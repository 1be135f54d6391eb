"""The domain table: every numeric input has a domain, and every entry point
either solves or names the field it rejects."""

import math
import re
from dataclasses import MISSING, fields

import numpy as np
import pytest

from mecsim.cli import main
from mecsim.content import Catalog, DemandProfile
from mecsim.domains import DOMAINS
from mecsim.experiments import ExperimentConfig, load_csv
from mecsim.scenario import Counts, SystemParams


def test_every_numeric_field_has_a_domain():
    for cls in (SystemParams, Counts, Catalog, DemandProfile,
                ExperimentConfig):
        for f in fields(cls):
            numbers = (f.type is tuple and f.default is not MISSING and all(
                isinstance(v, (int, float)) for v in f.default))
            if f.type in (int, float, np.ndarray) or numbers:
                assert f.name in DOMAINS, f"{cls.__name__}.{f.name}"


TINY = ["--hrd", "4", "--csd", "4", "--n-mbs", "1", "--m-sbs", "2"]
TINY_FIELDS = ["n_hrd=4", "n_csd=4", "n_mbs=1", "m_sbs=2", "deltas=0.6"]

# Each float flag of ``run``: its config field, and where a scenario file
# holds it: a key of [params] or [catalog], or a [demand] array.
FLAGS = {
    "--a": ("a", "key"),
    "--t1-frac": ("t1_frac", "key"),
    "--isd": ("isd_m", "key"),
    "--w-hz": ("w_hz", "key"),
    "--file-size": ("file_size_bytes", "key"),
    "--delta": ("deltas", "key"),
    "--storage": ("storage_bytes", "array"),
    "--task-bytes": ("task_input_bytes", "array"),
    "--task-cycles": ("task_cycles", "array"),
    "--local-cps": ("local_cps", "array"),
    "--edge-cps": ("edge_cps", "array"),
}
VALUES = ("nan", "inf", "-inf", "0", "-1", "1e-320", "1e308")
VALID_TODAY = {("--delta", "0"), ("--storage", "0"), ("--task-cycles", "0")}


@pytest.fixture(scope="module")
def tiny_file_text(tmp_path_factory):
    path = tmp_path_factory.mktemp("scn") / "tiny.txt"
    assert main(["gen", "-o", str(path)] + TINY) == 0
    return path.read_text()


def _edit(text, name, where, value):
    """``text`` with the key ``name`` set to ``value``, or every entry of
    the array section ``name``."""
    if where == "key":
        return re.sub(rf"(?m)^{name} = .*$", f"{name} = {value}", text)
    head = f"[{name}]\n"
    start = text.index(head) + len(head)
    end = text.index("\n", start)
    row = " ".join([value] * len(text[start:end].split()))
    return text[:start] + row + text[end:]


def _outcome(capsys, argv, names):
    """``main(argv)``'s exit code and output; an exit 1 must print exactly
    one ``mecsim:`` line, which names one of ``names``."""
    code = main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 1), (argv, code, err)
    if code == 1:
        assert out == "" and err.count("\n") == 1, (argv, err)
        assert err.startswith("mecsim: "), (argv, err)
        assert any(re.search(rf"(?<![\w-]){n}(?!\w)", err) for n in names), \
            (argv, err)
    return code, out


def _finite_f(out):
    fs = [float(f) for f in re.findall(r"F = (\S+) s", out)]
    return fs and all(math.isfinite(f) for f in fs)


@pytest.mark.parametrize("value", VALUES)
@pytest.mark.parametrize("flag", sorted(FLAGS))
def test_every_entry_point_solves_or_names_the_field(
        tmp_path, capsys, tiny_file_text, flag, value):
    field, where = FLAGS[flag]
    key = "delta" if field == "deltas" else field
    names = {field, key}
    # The form ``--flag=value`` lets argparse take "-inf" as a value.
    run_code, run_out = _outcome(capsys, ["run", f"{flag}={value}"] + TINY,
                                 names)
    audit_code, audit_out = _outcome(
        capsys, ["audit", f"{flag}={value}"] + TINY, names)
    assert run_code == audit_code, (flag, value)
    if run_code == 0:
        assert _finite_f(run_out)
        assert "audit: CLEAN" in audit_out
    if (flag, value) in VALID_TODAY:
        assert run_code == 0

    # The same value in the config: by --set, and from a config file.
    csv, cfg = tmp_path / "sweep.csv", tmp_path / "cfg.txt"
    sweep = ["sweep", "--seeds", "1", "--grid", "0.5", "--audit", "-o",
             str(csv)]
    sets = [item for kv in TINY_FIELDS + [f"{field}={value}"]
            for item in ("--set", kv)]
    cfg.write_text("\n".join(["mecsim-config v1"] + [
        kv.replace("=", " = ") for kv in TINY_FIELDS + [f"{field}={value}"]])
        + "\n")
    for argv in (sweep + sets, sweep + ["--config", str(cfg)]):
        if _outcome(capsys, argv, names)[0] == 0:
            assert all(math.isfinite(row.F) for row in load_csv(csv))
        csv.unlink(missing_ok=True)

    # The same value in a scenario file.
    path = tmp_path / "scn.txt"
    edited = _edit(tiny_file_text, key, where, value)
    assert edited != tiny_file_text
    path.write_text(edited)
    run_code, run_out = _outcome(capsys, ["run", "--scenario", str(path)],
                                 names)
    audit_code, audit_out = _outcome(
        capsys, ["audit", "--scenario", str(path)], names)
    assert run_code == audit_code, (flag, value)
    if run_code == 0:
        assert _finite_f(run_out)
        assert "audit: CLEAN" in audit_out


@pytest.mark.parametrize("argv", [
    ["--delta", "0"], ["--storage", "0"], ["--task-cycles", "0"],
    ["--a", "1", "--hrd", "0"]])
def test_inputs_valid_before_the_table_still_solve(capsys, argv):
    tiny = TINY[2:] if "--hrd" in argv else TINY
    assert main(["run"] + argv + tiny) == 0
    assert main(["audit"] + argv + tiny) == 0
    assert "audit: CLEAN" in capsys.readouterr().out


@pytest.mark.parametrize("value", VALUES + ("-nan", "-1e-5", "-1."))
@pytest.mark.parametrize("flag", sorted(FLAGS))
def test_a_separate_value_reads_as_the_joined_form(capsys, flag, value):
    outcomes = []
    for form in ([flag, value], [f"{flag}={value}"]):
        code = main(["run"] + form + TINY)
        outcomes.append((code,) + capsys.readouterr())
    assert outcomes[0] == outcomes[1], (flag, value, outcomes)
    assert outcomes[0][0] in (0, 1), outcomes[0]


@pytest.mark.parametrize("argv, message", [
    (["--delta", "500"],
     "delta=500 leaves 4 of the 20 files a nonzero popularity, fewer than "
     "the 5 distinct files of a sampled cache"),
    (["--delta", "500", "--requests-per-hrd", "5"],
     "delta=500 leaves 4 of the 20 files a nonzero popularity, fewer than "
     "the 5 distinct requests of requests_per_hrd")],
    ids=["cache", "requests"])
def test_too_few_popular_files_names_delta_and_both_counts(capsys, argv,
                                                           message):
    # Popularities of files 5 to 20 at delta 500 underflow to 0.
    assert main(["run"] + argv + TINY) == 1
    assert capsys.readouterr().err == f"mecsim: {message}\n"


def test_generated_gains_that_underflow_name_the_gain_and_isd(tmp_path,
                                                               capsys):
    # At isd_m = 1e90 the backhaul gains underflow to 0, which a scenario
    # file may not hold: ``gen`` writes no file, and ``run`` refuses the
    # same deployment alike.
    argv = ["--isd", "1e90", "--hrd", "0", "--csd", "0", "--n-mbs", "1",
            "--m-sbs", "2"]
    path = tmp_path / "s.txt"
    for command in (["gen", "-o", str(path)], ["run"]):
        assert main(command + argv) == 1
        assert capsys.readouterr() == (
            "", "mecsim: gain_mbs_sbs must be positive: its pathloss "
                "underflows at isd_m = 1e+90 m\n")
    assert not path.exists()
