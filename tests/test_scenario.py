import hashlib
import math

import numpy as np
import pytest

from mecsim import scenario as scenario_mod
from mecsim.cli import main
from mecsim.scenario import (MBS_SBS, SBS_MD, Counts, SystemParams,
                             _drop_nodes, channel_gain, generate_scenario,
                             hex_lattice, load_scenario, los_probability,
                             pathloss_db, rng_streams, save_scenario)
from conftest import demand_for

SCENARIO_FIELDS = ("mbs_pos", "sbs_pos", "sbs_cell", "hrd_pos", "hrd_cell",
                   "csd_pos", "csd_cell", "gain_sbs_hrd", "gain_sbs_csd",
                   "gain_mbs_sbs", "backhaul_mbs")


def _place_in_disc(rng, center, radius, occupied, tries):
    """Reference for ``_drop_nodes``: one node, two scalar draws per try,
    checked against every occupied point by ``math.hypot``.  Appends the
    number of tries to ``tries``."""
    for attempt in range(scenario_mod._MAX_PLACEMENT_RETRIES):
        r = radius * math.sqrt(rng.random())
        ang = 2.0 * math.pi * rng.random()
        pos = np.array([center[0] + r * math.cos(ang),
                        center[1] + r * math.sin(ang)])
        if not occupied or min(
            math.hypot(pos[0] - o[0], pos[1] - o[1]) for o in occupied
        ) > scenario_mod._COLLOCATION_EPS_M:
            tries.append(attempt + 1)
            return pos
    raise RuntimeError("could not place a node without collocation")


def _reference_scenario(params, counts, tries):
    """``generate_scenario`` placing one node at a time; returns the
    scenario's arrays by name and the generators it drew from."""
    rng_dep, rng_shadow, rng_los = gens = rng_streams(params.seed)
    mbs_pos = hex_lattice(params.n_mbs, params.isd_m)
    occupied = [tuple(p) for p in mbs_pos]
    cells = ([c for c in range(params.n_mbs) for _ in range(params.m_sbs)]
             + [k % params.n_mbs for k in range(counts.n_hrd)]
             + [k % params.n_mbs for k in range(counts.n_csd)])
    pos = []
    for cell in cells:
        pos.append(_place_in_disc(rng_dep, mbs_pos[cell], params.isd_m / 2.0,
                                  occupied, tries))
        occupied.append(tuple(pos[-1]))
    pos = np.array(pos, dtype=float).reshape(-1, 2)
    cells = np.array(cells, dtype=np.int64)
    n_sbs, n_hrd = params.n_mbs * params.m_sbs, counts.n_hrd
    out = {"mbs_pos": mbs_pos, "sbs_pos": pos[:n_sbs],
           "sbs_cell": cells[:n_sbs], "hrd_pos": pos[n_sbs:n_sbs + n_hrd],
           "hrd_cell": cells[n_sbs:n_sbs + n_hrd],
           "csd_pos": pos[n_sbs + n_hrd:], "csd_cell": cells[n_sbs + n_hrd:]}

    def gains(model, d):
        return channel_gain(model, d, rng_los.random(d.shape),
                            rng_shadow.standard_normal(d.shape))

    for dev in ("hrd", "csd"):
        d = np.linalg.norm(out["sbs_pos"][:, None] - out[f"{dev}_pos"][None],
                           axis=2)
        out[f"gain_sbs_{dev}"] = np.asarray(gains(SBS_MD, d)).reshape(d.shape)
    d_ms = np.linalg.norm(mbs_pos[:, None] - out["sbs_pos"][None], axis=2)
    out["backhaul_mbs"] = np.argmin(d_ms, axis=0).astype(np.int64)
    out["gain_mbs_sbs"] = np.asarray(gains(
        MBS_SBS, d_ms[out["backhaul_mbs"], np.arange(n_sbs)])).reshape(-1)
    return out, gens


def _assert_matches_reference(monkeypatch, params, counts):
    """The scenario's arrays and its generators' end states equal the
    one-node-at-a-time reference, byte for byte; returns the reference's
    tries per node."""
    drawn = []

    def recording_streams(seed):
        gens = rng_streams(seed)
        drawn.extend(gens)
        return gens

    monkeypatch.setattr(scenario_mod, "rng_streams", recording_streams)
    scn = generate_scenario(params, counts)
    tries = []
    ref, ref_gens = _reference_scenario(params, counts, tries)
    for name in SCENARIO_FIELDS:
        got, want = getattr(scn, name), ref[name]
        assert (got.dtype, got.shape) == (want.dtype, want.shape), name
        assert got.tobytes() == want.tobytes(), name
    assert [g.bit_generator.state for g in drawn] == \
        [g.bit_generator.state for g in ref_gens]
    return tries


@pytest.mark.parametrize("n_hrd, n_csd, m_sbs", [
    (20, 20, 5),     # desk
    (20, 40, 5),     # sweep default
    (80, 160, 10),   # large
    (0, 20, 5),
])
def test_batched_placement_matches_one_node_at_a_time(monkeypatch, n_hrd,
                                                      n_csd, m_sbs):
    for seed in range(200):
        _assert_matches_reference(monkeypatch, SystemParams(seed=seed,
                                                            m_sbs=m_sbs),
                                  Counts(n_hrd=n_hrd, n_csd=n_csd))


def test_batched_placement_matches_reference_under_collocations(monkeypatch):
    # At a 50 m threshold most desk scenarios redraw some node, so every
    # batch is cut short and redrawn from the rejected node on.
    monkeypatch.setattr(scenario_mod, "_COLLOCATION_EPS_M", 50.0)
    redrawn = 0
    for seed in range(200):
        tries = _assert_matches_reference(monkeypatch, SystemParams(seed=seed),
                                          Counts(n_hrd=20, n_csd=20))
        redrawn += max(tries) > 1
    assert redrawn >= 150


def test_generation_is_deterministic():
    params = SystemParams(seed=42, m_sbs=3)
    counts = Counts(n_hrd=8, n_csd=5)
    a = generate_scenario(params, counts)
    b = generate_scenario(params, counts)
    assert np.array_equal(a.sbs_pos, b.sbs_pos)
    assert np.array_equal(a.hrd_pos, b.hrd_pos)
    assert np.array_equal(a.gain_sbs_hrd, b.gain_sbs_hrd)
    assert np.array_equal(a.gain_sbs_csd, b.gain_sbs_csd)
    assert np.array_equal(a.gain_mbs_sbs, b.gain_mbs_sbs)


def test_no_sbs_is_an_error():
    with pytest.raises(ValueError, match="SBS"):
        SystemParams(seed=1, n_mbs=1, m_sbs=0)


def test_three_mbs_form_equilateral_lattice():
    pos = hex_lattice(3, 1000.0)
    for i in range(3):
        for j in range(i + 1, 3):
            assert math.hypot(*(pos[i] - pos[j])) == pytest.approx(1000.0)


def test_lattice_spacing_holds_for_larger_counts():
    pos = hex_lattice(7, 500.0)
    d = np.linalg.norm(pos[:, None] - pos[None, :], axis=2)
    nonzero = d[d > 0]
    assert nonzero.min() == pytest.approx(500.0)


def test_pathloss_values_by_link_class():
    assert pathloss_db(SBS_MD, 10.0, False) == pytest.approx(70.4)
    assert pathloss_db(MBS_SBS, 100.0, True) == pytest.approx(77.2)


def test_pathloss_clamps_below_one_meter():
    assert pathloss_db(SBS_MD, 0.2, True) == pathloss_db(SBS_MD, 1.0, True)


def test_pathloss_monotone_in_distance():
    rng = np.random.default_rng(0)
    for model in (MBS_SBS, SBS_MD):
        for los in (True, False):
            d = np.sort(rng.uniform(1.0, 3000.0, size=200))
            pl = pathloss_db(model, d, los)
            assert np.all(np.diff(pl) >= 0)


def test_los_probability_limits():
    assert los_probability(MBS_SBS, 1e-9) == pytest.approx(1.0)
    assert los_probability(MBS_SBS, 18.0) == pytest.approx(1.0)


def test_los_probability_street_form_pinned_value():
    # regression value: 0.5 - min(.5, 5e^(-156/30)) + min(.5, 5e^(-1))
    assert los_probability(SBS_MD, 30.0) == pytest.approx(
        0.9724171778961961, rel=1e-14)


def test_los_probability_within_unit_interval():
    rng = np.random.default_rng(1)
    d = rng.uniform(1e-3, 1e4, size=500)
    for model in (MBS_SBS, SBS_MD):
        p = los_probability(model, d)
        assert np.all((p >= 0.0) & (p <= 1.0))


def test_channel_gain_unit_conversion():
    # SBS-MD NLOS pathloss hits 80 dB at this distance; no shadowing.
    d = 10.0 ** ((80.0 - 32.9) / 37.5)
    gain = channel_gain(SBS_MD, d, los_uniform=1.0, shadow_normal=0.0)
    assert gain == pytest.approx(1e-8, rel=1e-12)


def test_shadowing_scales_gain_in_db():
    d = 120.0
    g0 = channel_gain(SBS_MD, d, 1.0, 0.0)
    g1 = channel_gain(SBS_MD, d, 1.0, 10.0 / SBS_MD.shadow_sd_nlos_db)
    assert g1 / g0 == pytest.approx(0.1, rel=1e-12)


def test_zero_uniform_always_takes_los_branch():
    for d in (5.0, 80.0, 400.0):
        g = channel_gain(SBS_MD, d, 0.0, 0.0)
        assert g == pytest.approx(10 ** (-pathloss_db(SBS_MD, d, True) / 10.0))


def test_backhaul_is_nearest_mbs(desk_scenario):
    d = np.linalg.norm(desk_scenario.mbs_pos[:, None, :]
                       - desk_scenario.sbs_pos[None, :, :], axis=2)
    assert np.array_equal(desk_scenario.backhaul_mbs, np.argmin(d, axis=0))


def test_gains_positive_and_below_unity(desk_scenario):
    s = desk_scenario
    assert np.all(s.gain_sbs_hrd > 0) and np.all(s.gain_sbs_csd > 0)
    assert np.all(s.gain_mbs_sbs > 0)
    # Sub-unity gain holds away from degenerate distances; skip links under
    # 10 m where extreme shadowing could formally lift the gain above 1.
    d = np.linalg.norm(s.sbs_pos[:, None, :] - s.hrd_pos[None, :, :], axis=2)
    far = d >= 10.0
    assert np.all(s.gain_sbs_hrd[far] < 1.0)


def test_devices_land_inside_their_cells(desk_scenario):
    s = desk_scenario
    radius = s.params.isd_m / 2.0
    for pos, cell in ((s.hrd_pos, s.hrd_cell), (s.csd_pos, s.csd_cell),
                      (s.sbs_pos, s.sbs_cell)):
        d = np.linalg.norm(pos - s.mbs_pos[cell], axis=1)
        assert np.all(d <= radius + 1e-9)


def test_collocation_resampling_gives_up_eventually():
    rng = np.random.default_rng(0)
    with pytest.raises(RuntimeError, match="collocation"):
        _drop_nodes(rng, np.zeros((1, 2)), 0.0, np.zeros((1, 2)))
    # It gives up where the reference does, after the same draws.
    ref = np.random.default_rng(0)
    with pytest.raises(RuntimeError, match="collocation"):
        _place_in_disc(ref, np.zeros(2), 0.0, [(0.0, 0.0)], [])
    assert rng.bit_generator.state == ref.bit_generator.state


def test_with_params_keeps_gains_but_rejects_geometry_changes(desk_scenario):
    other = desk_scenario.with_params(a=0.9)
    assert other.params.a == 0.9
    assert other.gain_sbs_hrd is desk_scenario.gain_sbs_hrd
    with pytest.raises(ValueError):
        desk_scenario.with_params(isd_m=500.0)


def test_scenario_roundtrip_is_bit_exact(tmp_path, desk_scenario):
    demand = demand_for(desk_scenario)
    path = tmp_path / "scn.txt"
    save_scenario(path, desk_scenario, demand)
    loaded, demand2 = load_scenario(path)
    assert loaded.params == desk_scenario.params
    for field in ("mbs_pos", "sbs_pos", "hrd_pos", "csd_pos", "gain_sbs_hrd",
                  "gain_sbs_csd", "gain_mbs_sbs"):
        assert np.array_equal(getattr(loaded, field),
                              getattr(desk_scenario, field)), field
    assert np.array_equal(loaded.backhaul_mbs, desk_scenario.backhaul_mbs)
    assert np.array_equal(demand2.request, demand.request)
    assert np.array_equal(demand2.cache, demand.cache)
    assert np.array_equal(demand2.storage_bytes, demand.storage_bytes)
    assert demand2.catalog.popularity == pytest.approx(
        demand.catalog.popularity, abs=0)


def test_roundtrip_of_rewritten_file_is_stable(tmp_path, desk_scenario):
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    save_scenario(p1, desk_scenario, demand_for(desk_scenario))
    save_scenario(p2, *load_scenario(p1))
    assert p1.read_text() == p2.read_text()


# SHA-256 of ``save_scenario`` output with its demand block, per case.  The
# file format is fixed: a change to the writer must leave these alone.
SCENARIO_FILE_SHA256 = {
    "desk": "45fc8731c7ac050ab9696f4ac311a9f1945c03df6b97dfc6bb7af0cf90dc72e4",
    "no_hrd":
        "dd8b20dd839d8373d48e00e30afd15d95a3c1882ed3e25025cff61af4c50f111",
    "two_requests":
        "57127fb3d4316bfd03cb422cfec5001b135a86b219737278a846540b7ee63546",
}


@pytest.mark.parametrize("case, n_hrd, demand_kw", [
    ("desk", 20, {}),
    ("no_hrd", 0, {}),
    ("two_requests", 20, {"n_files": 100, "requests_per_hrd": 2}),
])
def test_scenario_file_matches_recorded_digest(tmp_path, case, n_hrd,
                                               demand_kw):
    scn = generate_scenario(SystemParams(seed=7),
                            Counts(n_hrd=n_hrd, n_csd=20))
    path = tmp_path / "scn.txt"
    save_scenario(path, scn, demand_for(scn, **demand_kw))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        SCENARIO_FILE_SHA256[case]


def _edit_row(section, edit):
    """An edit of a scenario file's text that replaces the first line of
    ``section`` by ``edit`` of it."""
    def apply(text):
        lines = text.split("\n")
        at = lines.index(f"[{section}]") + 1
        lines[at] = edit(lines[at])
        return "\n".join(lines)
    return apply


MALFORMED = {
    "header": (lambda t: t.replace("mecsim-scenario v1", "mecsim v0", 1),
               "not a scenario file"),
    "before_first_section": (
        lambda t: t.replace("\n[params]", "\nstray\n[params]", 1),
        "before first section"),
    "ragged_sbs_pos": (_edit_row("sbs_pos", lambda ln: ln.split()[0]),
                       "sbs_pos"),
    "missing_params_key": (lambda t: t.replace("\nseed = 7\n", "\n", 1),
                           "seed"),
    "short_sbs_cell": (_edit_row("sbs_cell", lambda ln: ln.rsplit(" ", 1)[0]),
                       "sbs_cell"),
    "long_gain_row": (_edit_row("gain_mbs_sbs", lambda ln: ln + " 1e-9"),
                      "gain_mbs_sbs"),
    "extra_gain_row": (_edit_row("gain_sbs_hrd", lambda ln: ln + "\n" + ln),
                       "gain_sbs_hrd"),
    "extra_hrd": (_edit_row("hrd_pos", lambda ln: ln + "\n" + ln),
                  "hrd_cell"),
    "missing_section": (lambda t: t.replace("[csd_cell]", "[csd_cells]", 1),
                        r"\[csd_cell\]"),
    # Every file holds its demand block.
    "no_demand": (lambda t: t[:t.index("[demand]")], r"\[demand\]"),
    "twice": (lambda t: t.replace("[csd_cell]", "[sbs_cell]", 1), "twice"),
    "bad_token": (_edit_row("gain_sbs_csd", lambda ln: "x" + ln),
                  "gain_sbs_csd"),
    "short_requests_row": (_edit_row("requests", lambda ln: ln[:-2]),
                           "requests"),
    "missing_catalog_key": (lambda t: t.replace("\ndelta = ", "\ndelta: ", 1),
                            "delta"),
    "bad_params_value": (lambda t: t.replace("n_mbs = 3\n", "n_mbs = 3.5\n"),
                         r"\[params\].*3\.5"),
    "cache_overflow": (_edit_row("cache", lambda ln: "300" + ln[1:]), "cache"),
    "sbs_cell_negative": (_edit_row("sbs_cell", lambda ln: "-4" + ln[1:]),
                          r"\[sbs_cell\].*\[0, 3\)"),
    "backhaul_mbs_out_of_range": (
        _edit_row("backhaul_mbs", lambda ln: "3" + ln[1:]),
        r"\[backhaul_mbs\].*\[0, 3\)"),
    "hrd_cell_out_of_range": (_edit_row("hrd_cell", lambda ln: "7" + ln[1:]),
                              r"\[hrd_cell\].*\[0, 3\)"),
    "csd_cell_out_of_range": (_edit_row("csd_cell", lambda ln: "3" + ln[1:]),
                              r"\[csd_cell\].*\[0, 3\)"),
    "request_not_a_flag": (_edit_row("requests", lambda ln: "5" + ln[1:]),
                           r"\[requests\].*\[0, 2\)"),
    "cache_not_a_flag": (_edit_row("cache", lambda ln: "-1" + ln[1:]),
                         r"\[cache\].*\[0, 2\)"),
    "negative_task_bytes": (_edit_row("task_input_bytes",
                                      lambda ln: "-" + ln),
                            "task_input_bytes must not be negative"),
    "zero_task_bytes": (_edit_row("task_input_bytes",
                                  lambda ln: "0" + ln[ln.index(" "):]),
                        "task_input_bytes must be positive"),
    "negative_task_cycles": (_edit_row("task_cycles", lambda ln: "-" + ln),
                             "task_cycles must not be negative"),
    "negative_storage": (_edit_row("storage_bytes", lambda ln: "-" + ln),
                         "storage_bytes must not be negative"),
    "infinite_position": (_edit_row("hrd_pos", lambda ln: "inf" + ln[
        ln.index(" "):]), "hrd_pos must be finite"),
    "nan_position": (_edit_row("sbs_pos", lambda ln: "nan" + ln[
        ln.index(" "):]), "sbs_pos must be finite"),
    "nan_gain": (_edit_row("gain_sbs_hrd", lambda ln: "nan" + ln[
        ln.index(" "):]), "gain_sbs_hrd must be finite"),
    "negative_gain": (_edit_row("gain_sbs_csd", lambda ln: "-" + ln),
                      "gain_sbs_csd must not be negative"),
    "zero_gain": (_edit_row("gain_mbs_sbs", lambda ln: "0" + ln[
        ln.index(" "):]), "gain_mbs_sbs must be positive"),
}


@pytest.fixture(scope="module")
def desk_file_text(tmp_path_factory, desk_scenario):
    path = tmp_path_factory.mktemp("scn") / "desk.txt"
    save_scenario(path, desk_scenario, demand_for(desk_scenario))
    return path.read_text()


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_scenario_file_is_a_value_error(tmp_path, desk_file_text,
                                                  case):
    edit, match = MALFORMED[case]
    path = tmp_path / "bad.txt"
    path.write_text(edit(desk_file_text))
    with pytest.raises(ValueError, match=match):
        load_scenario(path)


def test_cli_run_rejects_a_malformed_file_without_a_traceback(
        tmp_path, capsys, desk_file_text):
    path = tmp_path / "bad.txt"
    path.write_text(MALFORMED["missing_params_key"][0](desk_file_text))
    assert main(["run", "--scenario", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("mecsim: ") and "seed" in err
    assert "Traceback" not in err

