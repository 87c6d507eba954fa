"""End-to-end command-line behavior: outputs, exit codes, determinism."""

import ast
import dataclasses
import gc
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import susyrabi
from susyrabi.cli import _build_parser, run_command
from susyrabi.config import RunConfig

FAST = ["--n-fock", "64", "--buffer", "16"]


def test_spectrum_prints_levels(capsys):
    code = run_command(["spectrum", "--r", "0.0", "--k-levels", "3", *FAST])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("level 0:")
    assert abs(float(lines[0].split(":")[1])) < 1e-9


def test_spectrum_csv_output(tmp_path, capsys):
    path = tmp_path / "spec.csv"
    code = run_command(["spectrum", "--out-csv", str(path), *FAST])
    assert code == 0
    assert path.exists()
    assert "level_index" in path.read_text().splitlines()[0]


def test_sweep_writes_csv_and_svg(tmp_path, capsys):
    csv_path, svg_path = tmp_path / "flow.csv", tmp_path / "flow.svg"
    code = run_command([
        "sweep", "--sweep-points", "5", "--k-levels", "4",
        "--out-csv", str(csv_path), "--out-svg", str(svg_path), *FAST,
    ])
    assert code == 0
    assert csv_path.read_text().count("\n") == 1 + 5 * 4
    assert svg_path.read_text().startswith("<svg")


def test_sweep_requires_csv_path():
    assert run_command(["sweep", *FAST]) == 1


def test_sweep_csv_is_identical_across_repeat_runs(tmp_path):
    args = ["sweep", "--sweep-points", "9", "--k-levels", "5",
            "--c", "0.2513", *FAST]
    p1, p2 = tmp_path / "first.csv", tmp_path / "second.csv"
    assert run_command([*args, "--out-csv", str(p1)]) == 0
    assert run_command([*args, "--out-csv", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_verify_suite_passes(capsys):
    code = run_command([
        "verify", "--n-fock", "128", "--buffer", "32", "--c", "0.2513",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "FAIL" not in out
    assert "transform.a2_removal" in out
    assert "broken.vacuum_nonannihilation.1" in out
    rows = out.splitlines()
    assert len(rows) == 25
    assert all(row.endswith(",pass") for row in rows)


def test_witten_transition(capsys):
    code = run_command(["witten", "--c", "0.2513", "--n-fock", "128",
                        "--buffer", "32"])
    out = capsys.readouterr().out
    assert code == 0
    assert "r=0.0: index 1.000000" in out
    assert "(rounded 0" in out  # broken endpoint


def test_converge_command(capsys):
    code = run_command(["converge", "--c", "0.628", "--n-fock", "32",
                        "--buffer", "8", "--k-levels", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "converged True" in out


def test_mass_command(capsys):
    code = run_command(["mass", "--g", "6.2832", "--c", "0.2513"])
    out = capsys.readouterr().out
    assert code == 0
    assert "omega_g 16.9947" in out
    assert "delta_m 15.7906" in out
    assert "self_energy_limit 0.994827" in out


@pytest.mark.parametrize("argv", [
    ["--g-max", "1.0", "--g", "6.2832"],
    ["--g", "1.0", "--g-max", "6.2832"],
])
def test_mass_g_is_an_alias_of_g_max(argv, capsys):
    # --g and --g-max set the same value; the last one given wins.
    assert run_command(["mass", "--c", "0.2513", *argv]) == 0
    assert "omega_g 16.9947" in capsys.readouterr().out


@pytest.mark.parametrize("flag", ["--g", "--g-max"])
@pytest.mark.parametrize("value, message", [
    ("nan", "key 'g_max' must be finite"),
    ("inf", "key 'g_max' must be finite"),
    ("-1", "g_max and c must be non-negative"),
])
def test_mass_rejects_bad_coupling(flag, value, message, capsys):
    assert run_command(["mass", flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [
    ["mass", "--g", "1e200"],
    ["mass", "--omega", "1e200"],
    ["mass", "--g", "1e154", "--c", "0.2513"],
    ["witten", "--g-max", "1e200"],
    ["spectrum", "--g-max", "1e154", "--c", "0.2513"],
    ["sweep", "--sweep-kind", "g", "--sweep-stop", "1e200", "--sweep-points", "2",
     "--out-csv", "x.csv"],
])
def test_overflowing_coupling_is_a_validation_error(argv, tmp_path, monkeypatch, capsys):
    # A finite omega or g whose omega_g overflows float64 exits 1 with one line.
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_command(argv)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: omega_g = sqrt(omega^2 + 4 c omega g^2) overflows float64")
    assert err.count("\n") == 1
    assert not caught


@pytest.mark.parametrize("argv", [
    ["witten", "--omega", "1e-300"],
    ["mass", "--omega", "1e-300"],
    ["spectrum", "--omega", "1e-300"],
    ["mass", "--omega", "1e-160"],  # omega^2 is subnormal
    ["sweep", "--sweep-kind", "g", "--sweep-stop", "1e20", "--sweep-points", "2", "--c", "1",
     "--omega", "1e-300", "--out-csv", "x.csv"],
])
def test_underflowing_omega_g_is_a_validation_error(argv, tmp_path, monkeypatch, capsys):
    # An omega so small that omega_g^2 underflows exits 1 with one line,
    # where omega / omega_g would divide by zero.
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_command(argv)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: omega_g = sqrt(omega^2 + 4 c omega g^2) underflows float64")
    assert err.count("\n") == 1
    assert not caught
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("beta", ["nan", "inf", "0", "-1"])
def test_witten_rejects_beta_not_finite_and_positive(beta, capsys):
    assert run_command(["witten", *FAST, "--beta", beta]) == 1
    assert capsys.readouterr().err.startswith("error: beta must be finite and > 0, got ")


def test_goldstino_command(capsys):
    code = run_command(["goldstino", *FAST])
    out = capsys.readouterr().out
    assert code == 0
    assert "energy_increment 0.000e+00" in out


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"c": 0.2513, "g_max": 1.0}))
    code = run_command(["mass", "--config", str(cfg), "--g-max", "6.2832"])
    out = capsys.readouterr().out
    assert code == 0
    # c comes from the file, g_max from the overriding flag.
    assert "omega_g 16.9947" in out


def test_config_file_is_closed_after_loading(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"c": 0.2513}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_command(["mass", "--config", str(cfg)]) == 0
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_exit_code_validation_errors(tmp_path, capsys):
    assert run_command(["spectrum", "--n-fock", "4"]) == 1
    assert run_command(["spectrum", "--config", str(tmp_path / "missing.json")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text('{"omga": 1}')
    assert run_command(["spectrum", "--config", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


def test_exit_code_numerical_errors(tmp_path, capsys):
    # A g-sweep far beyond the truncation cap must fail numerically, not crash.
    code = run_command([
        "sweep", "--sweep-kind", "g", "--sweep-stop", "1000.0",
        "--sweep-points", "3", "--out-csv", str(tmp_path / "x.csv"), *FAST,
    ])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_g_sweep_far_past_the_cap_is_one_short_line(tmp_path, capsys):
    # At g = 1e150 the truncation rule asks for N near 1e300; the error
    # names the cap, not that N.
    code = run_command([
        "sweep", "--sweep-kind", "g", "--sweep-stop", "1e150",
        "--sweep-points", "2", "--out-csv", str(tmp_path / "x.csv"),
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: g=1e+150 requires n_fock above the cap 2048")
    assert err.count("\n") == 1 and len(err) < 200
    assert not (tmp_path / "x.csv").exists()


def test_verify_truncation_error_names_the_buffer(capsys):
    # At N = 8 the squeeze rule keeps int(0.7 N) = 5 levels, but N - buffer = 4
    # is the stricter cut, so the error must blame the buffer.
    assert run_command(["verify", "--n-fock", "8", "--buffer", "4"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: buffer 4 leaves fewer than 8 checkable levels at n_fock=8")
    assert "squeeze angle" not in err


@pytest.mark.parametrize("argv, cause", [
    # Buffer 0 puts the truncation corner |up, N-1> of the free charges, where
    # 2 q1^2 = 0 but H = omega N, inside the interior.
    (["verify", "--n-fock", "64", "--buffer", "0"], "buffer 0 puts boson level 63"),
    (["verify", "--buffer", "0"], "buffer 0 puts boson level 255"),
    # A squeeze angle beyond MAX_SQUEEZE, at any truncation.
    (["verify", "--c", "200", "--n-fock", "4096"], "|zeta| must be <= 2.0"),
])
def test_verify_truncation_limits_exit_2_without_rows(argv, cause, capsys):
    assert run_command(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {cause}")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("n_fock", ["64", "256"])
def test_verify_passes_at_buffer_1(n_fock, capsys):
    assert run_command(["verify", "--n-fock", n_fock, "--buffer", "1"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 25 and all(row.endswith(",pass") for row in rows)


# The CLI contract: every RunConfig field is a flag of this type.
FLAG_TYPES = {
    "omega": float, "g_max": float, "c": float,
    "n_fock": int, "buffer": int,
    "sweep_kind": str, "sweep_start": float, "sweep_stop": float,
    "sweep_points": int, "k_levels": int,
    "tol_degeneracy": float, "tol_convergence": float,
    "out_csv": str, "out_svg": str,
}


def test_every_config_field_has_exactly_one_flag():
    names = [f.name for f in dataclasses.fields(RunConfig)]
    assert sorted(names) == sorted(FLAG_TYPES)
    parser = _build_parser()
    subparsers = next(a for a in parser._actions if a.dest == "command").choices
    assert len(subparsers) == 7
    for command, sub in subparsers.items():
        for name in names:
            flag = "--" + name.replace("_", "-")
            actions = [a for a in sub._actions if flag in a.option_strings]
            assert len(actions) == 1, (command, flag)
            assert actions[0].dest == name
            assert actions[0].type is FLAG_TYPES[name], (command, flag)
            assert actions[0].default is None


@pytest.mark.parametrize("command", [
    ["verify", *FAST],
    ["sweep", *FAST, "--sweep-points", "2", "--out-csv", "{tmp}/flow.csv"],
])
@pytest.mark.parametrize("key, value", [
    ("omega_a_schedule", "linear"), ("g_schedule", "linear"), ("tol_algebra", 1e-3),
])
def test_removed_path_and_tolerance_knobs_exit_1(command, key, value, tmp_path, capsys):
    # The r path is the paper's straight line and verify's algebra threshold
    # is fixed, so neither a flag nor a config key sets them.
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in command]
    assert run_command([*argv, "--" + key.replace("_", "-"), str(value)]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({key: value}))
    assert run_command([*argv, "--config", str(cfg)]) == 1
    assert f"error: unknown configuration key {key!r}" in capsys.readouterr().err
    assert not (tmp_path / "flow.csv").exists()


def test_unknown_subcommand_is_usage_error(capsys):
    assert run_command(["frobnicate"]) == 1
    assert run_command([]) == 1


def fresh_env():
    """This environment without OPENBLAS_THREAD_TIMEOUT, with src on the path."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_module(*argv):
    return subprocess.run([sys.executable, "-m", "susyrabi.cli", *argv],
                          capture_output=True, text=True, env=fresh_env(), timeout=120)


def test_module_entry_point_runs_commands():
    ok = run_module("mass", "--g", "6.2832", "--c", "1.257")
    assert ok.returncode == 0
    assert ok.stdout.startswith("omega_g ")
    bad = run_module("mass", "--g", "6.2832", "--c", "-1")
    assert bad.returncode == 1
    assert "error:" in bad.stderr


# Modules no command needs, each tens to hundreds of ms to import:
# scipy.linalg, and numpy.f2py and numpy.testing, which it pulls in; and
# the scipy package itself, whose __init__ susyrabi.linalg does not run.
UNUSED = ("scipy", "scipy.linalg", "numpy.f2py", "numpy.testing")
IMPORT_PROBE = (
    "import json, os, sys\n"
    "import susyrabi.cli\n"
    "print(json.dumps({'timeout': os.environ.get('OPENBLAS_THREAD_TIMEOUT'),"
    " 'scipy': sorted(m for m in sys.modules if m.startswith('scipy.')),"
    f" 'unused': [m for m in {UNUSED!r} if m in sys.modules]}}))\n"
)


@pytest.mark.parametrize("preset, want", [(None, "18"), ("28", "28")])
def test_cli_import_sets_openblas_timeout_without_heavy_scipy(preset, want):
    env = fresh_env()
    if preset is not None:
        env["OPENBLAS_THREAD_TIMEOUT"] = preset
    run = subprocess.run([sys.executable, "-c", IMPORT_PROBE],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    probe = json.loads(run.stdout)
    assert probe["timeout"] == want
    heavy = [m for m in probe["scipy"] if m.split(".")[1] in ("sparse", "special")]
    assert heavy == []
    assert probe["unused"] == []


# Every command, and an error path, in one fresh process, where tests/ is
# not on sys.path as it is under pytest: each exits as expected, so none
# needs a module of the tests, and none loads a module of UNUSED.
COMMANDS_PROBE = (
    "import contextlib, io, json, sys, tempfile\n"
    "from susyrabi.cli import run_command\n"
    "fast = ['--n-fock', '64', '--buffer', '16']\n"
    "with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \\\n"
    "        contextlib.redirect_stderr(io.StringIO()):\n"
    "    codes = [run_command(argv) for argv in [\n"
    "        ['spectrum', *fast], ['verify', *fast], ['witten', *fast], ['converge', *fast],\n"
    "        ['mass'], ['goldstino', *fast], ['verify', '--buffer', '0'],\n"
    "        ['sweep', *fast, '--sweep-points', '3', '--out-csv', tmp + '/r.csv',\n"
    "         '--out-svg', tmp + '/r.svg'],\n"
    "        ['sweep', *fast, '--sweep-kind', 'g', '--sweep-points', '3',\n"
    "         '--out-csv', tmp + '/g.csv']]]\n"
    "print(json.dumps({'codes': codes,"
    f" 'unused': [m for m in {UNUSED!r} if m in sys.modules]}}))\n"
)


def test_commands_exit_as_expected_in_a_fresh_interpreter(tmp_path):
    # Run from tmp_path: `python -c` puts its working directory on sys.path.
    run = subprocess.run([sys.executable, "-c", COMMANDS_PROBE], cwd=tmp_path,
                         capture_output=True, text=True, env=fresh_env(), timeout=120)
    assert run.returncode == 0, run.stderr
    probe = json.loads(run.stdout)
    assert probe["codes"] == [0, 0, 0, 0, 0, 0, 2, 0, 0]
    assert probe["unused"] == []


# susyrabi loads scipy's LAPACK extension by itself; a later plain import
# of scipy.linalg in the same process must still work, bind its _flapack
# as in any process, and agree with susyrabi's solvers.
LATE_SCIPY_PROBE = (
    "import contextlib, io, json\n"
    "import numpy as np\n"
    "from susyrabi.cli import run_command\n"
    "from susyrabi.linalg import banded_eigh, banded_lowest\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    code = run_command(['witten', '--n-fock', '64', '--buffer', '16'])\n"
    "import scipy.linalg\n"
    "from scipy.linalg import lapack\n"
    "band = np.array([[2.0, -1.0, 0.5, 3.0], [0.4, 0.3, -0.2, 0.0]])\n"
    "levels = scipy.linalg.eig_banded(band, lower=True, eigvals_only=True,"
    " select='i', select_range=(1, 2))\n"
    "values, vectors, info = lapack.dstevd(band[0], band[1, :-1])\n"
    "print(json.dumps({'code': code, 'info': info, 'bound': hasattr(scipy.linalg, '_flapack'),"
    " 'lowest': bool(np.array_equal(levels, banded_lowest(band, 3, 1))),"
    " 'eigh': all(np.array_equal(a, b) for a, b in zip((values, vectors), banded_eigh(band)))}))\n"
)


def test_scipy_linalg_imports_after_a_command():
    run = subprocess.run([sys.executable, "-c", LATE_SCIPY_PROBE],
                         capture_output=True, text=True, env=fresh_env(), timeout=120)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == {"code": 0, "info": 0, "bound": True, "lowest": True,
                                      "eigh": True}


def test_no_src_module_imports_the_tests():
    # The source side of COMMANDS_PROBE: no package module imports the
    # tests' oracle, or any other module of tests/, in a function or at
    # the top.
    tests = Path(__file__).resolve().parent
    local = {path.stem for path in tests.glob("*.py")} | {"tests"}
    assert "oracle" in local
    package = Path(susyrabi.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert package / "cli.py" in modules
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            assert not {name.split(".")[0] for name in names} & local, (path.name, names)
