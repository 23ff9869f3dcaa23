"""End-to-end checks of the command-line interface.

Most tests drive ``main`` in process for speed; a few go through a real
subprocess to cover the module entry point and file output.
"""

import json
import os
import stat
import subprocess
import sys
import warnings

import numpy as np
import pytest

import harmonic_schwarz
from harmonic_schwarz import ProblemSpec, SolverError, acceptance, solver
from harmonic_schwarz.bounds import classical_bound
from harmonic_schwarz.cli import main
from harmonic_schwarz.mapping import boundary_map
from harmonic_schwarz.sphere import zonal_rule

HEINZ = ["--n", "2", "--m", "1", "--r", "0.5", "--a", "0", "--b", "0"]
MIXED = ["--n", "3", "--m", "2", "--r", "0.5", "--a", "0.25,-0.1", "--b", "0.35"]


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def lambda_line(text):
    prefix = "# lambda = "
    line = next(l for l in text.splitlines() if l.startswith(prefix))
    return np.array([float(v) for v in line[len(prefix):].split(",")])


def test_module_entry_point_emits_valid_json(tmp_path, subprocess_env):
    proc = subprocess.run(
        [sys.executable, "-m", "harmonic_schwarz", "bound", *HEINZ],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=subprocess_env,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["value"] == pytest.approx((4.0 / np.pi) * np.arctan(0.5), abs=1e-8)
    assert doc["e"] == [1, 0]
    assert doc["branch"] == "zero_b"


NO_SCIPY_SCRIPT = """
import contextlib, io, json, sys
import harmonic_schwarz
from harmonic_schwarz import cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"codes": codes, "scipy": loaded}))
"""


def test_solving_cli_calls_never_load_scipy(tmp_path, subprocess_env):
    # only the oracle's dual solve (verify, discretized_max*) imports SciPy
    calls = [["bound", *MIXED], ["bound", *HEINZ], ["region", *MIXED, "--directions=8"]]
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SCRIPT, json.dumps(calls)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=subprocess_env,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["codes"] == [0, 0, 0]
    assert doc["scipy"] == []


def test_importing_the_cli_leaves_the_acceptance_suite_unloaded(tmp_path, subprocess_env):
    script = (
        "import sys, harmonic_schwarz.cli, harmonic_schwarz as hs\n"
        "assert 'harmonic_schwarz.acceptance' not in sys.modules\n"
        "assert 'heinz' in hs.CRITERIA and hs.run_suite is hs.acceptance.run_suite\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, cwd=tmp_path, env=subprocess_env
    )
    assert proc.returncode == 0, proc.stderr


def test_importing_the_cli_builds_no_rule(tmp_path, subprocess_env):
    # the rule caches fill on first use, so import time stays free of rule builds
    script = (
        "import json, harmonic_schwarz.cli\n"
        "from harmonic_schwarz import solver, sphere\n"
        "caches = [sphere.zonal_rule, sphere.biaxial_rule, sphere._base_jacobi, solver._unit_pieces]\n"
        "print(json.dumps({f.__qualname__: f.cache_info().currsize for f in caches}))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, cwd=tmp_path, env=subprocess_env
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == dict.fromkeys(
        ["zonal_rule", "biaxial_rule", "_base_jacobi", "_unit_pieces"], 0
    )


def test_console_help_lists_the_subcommands(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0
    text = capsys.readouterr().out
    for name in ("bound", "region", "extremal", "classical", "verify"):
        assert name in text


def test_bound_csv_header_is_stable(capsys):
    code, out, _ = run(["bound", *HEINZ, "--format", "csv"], capsys)
    assert code == 0
    header, row, trailer = out.split("\n")
    assert header == "value,mean_residual,mass_residual,iterations,branch"
    assert row.endswith(",zero_b")
    assert trailer == ""


def test_direction_flag_reorients_and_normalizes(capsys):
    code, out, _ = run(
        ["bound", "--n", "3", "--m", "1", "--r", "0.5", "--a", "0.2", "--b", "0.3",
         "--e", "0,2"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["e"] == [0, 1]  # normalized before reporting
    assert doc["branch"] == "positive_b"
    assert 0.3 < doc["value"] < 1.0


def test_invalid_geometry_exits_with_code_two(capsys):
    bad = [
        ["bound", "--n", "3", "--m", "1", "--r", "1.5", "--a", "0.2", "--b", "0.3"],
        ["bound", "--n", "3", "--m", "1", "--r", "0.5", "--a", "0.2,0.1", "--b", "0.3"],
        ["bound", "--n", "3", "--m", "1", "--r", "0.5", "--a", "0.2", "--b", "0.3",
         "--e", "1,0,0"],
    ]
    for argv in bad:
        code, _, err = run(argv, capsys)
        assert code == 2, argv
        assert err.startswith("error:")


@pytest.mark.parametrize(
    "flags",
    [["--a", "nan"], ["--b", "nan"], ["--a", "inf"]],
)
def test_non_finite_input_or_tolerance_exits_with_code_two(flags, capsys):
    code, _, err = run(["bound", *HEINZ, *flags], capsys)  # the last occurrence wins
    assert code == 2, flags
    assert err.startswith("error:")


@pytest.mark.parametrize("e", ["nan,0", "0,inf", "-inf,1"])
def test_non_finite_direction_exits_with_code_two_and_names_it(e, capsys):
    code, _, err = run(["bound", *HEINZ, f"--e={e}"], capsys)
    assert code == 2
    assert err.startswith("error: direction must be finite, got --e=")


@pytest.mark.parametrize("e, same_as", [("1e308,1e308", "1,1"), ("1e-200,0", "1,0"), ("1e-160,0", "1,0"), ("1e-13,0", "1,0")])
def test_direction_beyond_the_squared_range_normalizes_like_its_scaled_copy(e, same_as, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflow warning fails the test
        code, out, err = run(["bound", *HEINZ, f"--e={e}"], capsys)
    assert (code, err) == (0, "")
    assert out == run(["bound", *HEINZ, f"--e={same_as}"], capsys)[1]


def test_zero_direction_exits_with_code_two(capsys):
    code, _, err = run(["bound", *HEINZ, "--e=0,0"], capsys)
    assert code == 2
    assert "nonzero" in err


def test_unreachable_tolerance_exits_with_code_three(monkeypatch, capsys):
    monkeypatch.setattr(solver, "_ZERO_B_TOL", 1e-30)  # HEINZ has b = 0
    code, _, err = run(["bound", *HEINZ], capsys)
    assert code == 3
    assert err.startswith("solver failure:")


def test_origin_region_envelope_is_round(capsys):
    code, out, _ = run(
        ["region", "--n", "3", "--m", "1", "--r", "0.45", "--a", "0", "--b", "0",
         "--directions", "8"],
        capsys,
    )
    assert code == 0
    env = json.loads(out)
    assert env["scheme"] == "grid"
    values = np.array([hs["h"] for hs in env["halfspaces"]])
    assert values.shape == (8,)
    assert np.ptp(values) < 1e-9


def test_region_output_file_is_reproducible(tmp_path, subprocess_env):
    argv = [sys.executable, "-m", "harmonic_schwarz", "region",
            "--n", "3", "--m", "1", "--r", "0.4", "--a", "0.2", "--b", "0.1",
            "--directions", "6", "--scheme", "random", "--seed", "7",
            "--out", "env.json"]
    first = subprocess.run(argv, capture_output=True, cwd=tmp_path, env=subprocess_env)
    assert first.returncode == 0, first.stderr
    payload = (tmp_path / "env.json").read_bytes()
    second = subprocess.run(argv, capture_output=True, cwd=tmp_path, env=subprocess_env)
    assert first.returncode == 0 and second.returncode == 0
    assert (tmp_path / "env.json").read_bytes() == payload
    # atomic replacement leaves no scratch files behind
    assert sorted(p.name for p in tmp_path.iterdir()) == ["env.json"]


def test_extremal_table_header_and_jump_endpoints(capsys):
    code, out, _ = run(["extremal", *HEINZ, "--nodes", "5"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert "# branch = zero_b" in lines
    assert "# mu = null" in lines
    header_at = lines.index("t,u1,v")
    rows = [line.split(",") for line in lines[header_at + 1:]]
    assert len(rows) == 5
    assert [float(v) for v in rows[0]] == [-1.0, -1.0, 0.0]
    assert [float(v) for v in rows[-1]] == [1.0, 1.0, 0.0]


def test_extremal_multipliers_are_discretization_stable(capsys):
    def lam_for(extra):
        code, out, _ = run(["extremal", *MIXED, "--nodes", "3", *extra], capsys)
        assert code == 0
        return lambda_line(out)

    baseline = lam_for([])
    spec = ProblemSpec(n=3, m=2, r=0.5, a=(0.25, -0.1), b=0.35)  # MIXED
    assert np.abs(boundary_map(spec, zonal_rule(3, 256)).solution.lam - baseline).max() < 1e-12


@pytest.mark.parametrize("command", ["bound", "region", "extremal", "classical"])
def test_accuracy_is_not_a_flag(command, capsys):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    text = capsys.readouterr().out
    assert "--order" not in text and "--tol" not in text


def test_extremal_json_samples_are_well_formed(capsys):
    code, out, _ = run(["extremal", *MIXED, "--nodes", "7", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["branch"] == "positive_b"
    assert doc["columns"] == ["t", "u1", "u2", "v"]
    samples = np.array(doc["samples"])
    assert samples.shape == (7, 4)
    assert samples[0, 0] == -1.0 and samples[-1, 0] == 1.0
    norms = np.linalg.norm(samples[:, 1:], axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-12)


def test_extremal_rejects_tiny_node_count(capsys):
    code, _, err = run(["extremal", *MIXED, "--nodes", "1"], capsys)
    assert code == 2
    assert "at least 2" in err


def test_classical_reports_both_formats(capsys):
    code, out, _ = run(["classical", "--n", "3", "--r", "0.7"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 3
    assert doc["value"] == pytest.approx(classical_bound(3, 0.7), abs=1e-15)

    code, out, _ = run(["classical", "--n", "3", "--r", "0.7", "--format", "csv"], capsys)
    assert code == 0
    header, row, _ = out.split("\n")
    assert header == "n,r,value"
    assert row.startswith("3,")


def test_classical_runs_past_dimension_26(capsys):
    code, out, _ = run(["classical", "--n", "27", "--r", "0.9"], capsys)
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(classical_bound(27, 0.9), abs=1e-15)


def test_verify_passes_and_is_reproducible(capsys):
    code, first, _ = run(["verify", "--suite", "heinz"], capsys)
    assert code == 0
    assert first.splitlines()[0].startswith("PASS heinz:")
    assert first.splitlines()[-1] == "1/1 criteria passed"
    code, second, _ = run(["verify", "--suite", "heinz"], capsys)
    assert code == 0
    assert second == first


def test_verify_rejects_unknown_suite(capsys):
    code, _, err = run(["verify", "--suite", "bogus"], capsys)
    assert code == 2
    assert "unknown suite" in err


def test_verify_rejects_the_retired_taylor_criterion(capsys):
    code, out, err = run(["verify", "--suite", "taylor"], capsys)
    assert (code, out) == (2, "")
    said, offered = err.strip().split("; choose from full, ")
    assert said == "error: unknown suite name(s) taylor"
    offered = offered.split(", ")
    assert offered == [
        "heinz", "moments", "oracle", "jacobian", "determinants",
        "signs", "sharpness", "envelope", "limits", "harmonicity",
    ]


def test_every_exported_name_resolves():
    assert [name for name in harmonic_schwarz.__all__ if not hasattr(harmonic_schwarz, name)] == []


@pytest.mark.parametrize("suite", ["", ",", " , "])
def test_verify_refuses_an_empty_suite(suite, capsys):
    # no criterion run must not read as every criterion passed
    code, out, err = run(["verify", "--suite", suite], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: empty suite")


def test_verify_reports_an_aborted_criterion(monkeypatch, capsys):
    def stalls():
        raise SolverError("moment solve stalled at residual 1.000e-03 (tol 1.0e-10)")

    monkeypatch.setitem(acceptance._REGISTRY, "heinz", stalls)
    code, out, _ = run(["verify", "--suite", "heinz,signs"], capsys)
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "FAIL heinz: aborted: moment solve stalled at residual 1.000e-03 (tol 1.0e-10)"
    assert lines[1].startswith("PASS signs:")
    assert lines[-1] == "1/2 criteria passed"


def test_verify_reports_a_failed_criterion_with_its_time(monkeypatch, capsys):
    failed = dict(passed=False, measured=1.0, budget=1e-8, detail="max deviation 1.000e+00")
    monkeypatch.setitem(acceptance._REGISTRY, "heinz", lambda: dict(failed))
    code, out, _ = run(["verify", "--suite", "heinz"], capsys)
    assert code == 1
    first, last = out.splitlines()
    assert first.startswith("FAIL heinz: max deviation 1.000e+00 [elapsed ")
    assert first.endswith("s]")
    assert last == "0/1 criteria passed"


def test_unwritable_out_exits_with_code_two_and_leaves_nothing(tmp_path, capsys):
    target = tmp_path / "missing" / "out.json"
    code, out, err = run(["bound", *MIXED, "--out", str(target)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write --out {target}:")
    assert ".part-" not in err
    assert list(tmp_path.iterdir()) == []
    (tmp_path / "taken").mkdir()  # the rename fails after the temporary file is written
    code, _, err = run(["bound", *MIXED, "--out", str(tmp_path / "taken")], capsys)
    assert code == 2 and err.startswith(f"error: cannot write --out {tmp_path / 'taken'}:")
    assert [p.name for p in tmp_path.rglob("*")] == ["taken"]


def test_out_file_matches_stdout_exactly(tmp_path, capsys):
    code, out, _ = run(["bound", *MIXED], capsys)
    assert code == 0
    target = tmp_path / "bound.json"
    code, _, _ = run(["bound", *MIXED, "--out", str(target)], capsys)
    assert code == 0
    assert target.read_text() == out
    assert out.endswith("\n")


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask022", "umask077"])
def test_out_file_takes_the_mode_of_a_plain_write(umask, mode, tmp_path, capsys):
    target = tmp_path / "classical.csv"
    old = os.umask(umask)
    try:
        code, _, _ = run(["classical", "--n=2", "--r=0.5", "--out", str(target)], capsys)
    finally:
        os.umask(old)
    assert code == 0
    assert stat.S_IMODE(target.stat().st_mode) == mode
