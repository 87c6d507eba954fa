"""End-to-end command-line behavior: outputs, exit codes, determinism."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_sweep_determinism_across_worker_counts(tmp_path, monkeypatch):
    args = ["sweep", "--sweep-points", "9", "--k-levels", "5",
            "--c", "0.2513", *FAST]
    p1, p2 = tmp_path / "auto.csv", tmp_path / "serial.csv"
    assert run_command([*args, "--out-csv", str(p1)]) == 0
    monkeypatch.setenv("SUSYRABI_WORKERS", "1")
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


# The CLI contract: every RunConfig field is a flag of this type.
FLAG_TYPES = {
    "omega": float, "g_max": float, "c": float,
    "omega_a_schedule": str, "g_schedule": str,
    "n_fock": int, "buffer": int,
    "sweep_kind": str, "sweep_start": float, "sweep_stop": float,
    "sweep_points": int, "k_levels": int,
    "tol_degeneracy": float, "tol_algebra": float, "tol_convergence": float,
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


def test_unknown_subcommand_is_usage_error(capsys):
    assert run_command(["frobnicate"]) == 1
    assert run_command([]) == 1


def run_module(*argv):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "susyrabi.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


def test_module_entry_point_runs_commands():
    ok = run_module("mass", "--g", "6.2832", "--c", "1.257")
    assert ok.returncode == 0
    assert ok.stdout.startswith("omega_g ")
    bad = run_module("mass", "--g", "6.2832", "--c", "-1")
    assert bad.returncode == 1
    assert "error:" in bad.stderr
