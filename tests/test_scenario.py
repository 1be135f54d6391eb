import math

import numpy as np
import pytest

from mecsim.scenario import (MBS_MD, MBS_SBS, SBS_MD, Counts, SystemParams,
                             _place_in_disc, channel_gain, generate_scenario,
                             hex_lattice, load_scenario, los_probability,
                             pathloss_db, save_scenario)
from conftest import demand_for


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
    assert pathloss_db(MBS_MD, 100.0, True) == pytest.approx(79.2)
    assert pathloss_db(SBS_MD, 10.0, False) == pytest.approx(70.4)
    assert pathloss_db(MBS_SBS, 100.0, True) == pytest.approx(77.2)


def test_pathloss_clamps_below_one_meter():
    assert pathloss_db(SBS_MD, 0.2, True) == pathloss_db(SBS_MD, 1.0, True)


def test_pathloss_monotone_in_distance():
    rng = np.random.default_rng(0)
    for model in (MBS_MD, MBS_SBS, SBS_MD):
        for los in (True, False):
            d = np.sort(rng.uniform(1.0, 3000.0, size=200))
            pl = pathloss_db(model, d, los)
            assert np.all(np.diff(pl) >= 0)


def test_los_probability_limits():
    assert los_probability(MBS_MD, 1e-9) == pytest.approx(1.0)
    assert los_probability(MBS_MD, 18.0) == pytest.approx(1.0)


def test_los_probability_street_form_pinned_value():
    # regression value: 0.5 - min(.5, 5e^(-156/30)) + min(.5, 5e^(-1))
    assert los_probability(SBS_MD, 30.0) == pytest.approx(
        0.9724171778961961, rel=1e-14)


def test_los_probability_within_unit_interval():
    rng = np.random.default_rng(1)
    d = rng.uniform(1e-3, 1e4, size=500)
    for model in (MBS_MD, MBS_SBS, SBS_MD):
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
        _place_in_disc(rng, np.zeros(2), 0.0, [(0.0, 0.0)])


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
    save_scenario(p1, desk_scenario)
    loaded, _ = load_scenario(p1)
    save_scenario(p2, loaded)
    assert p1.read_text() == p2.read_text()
