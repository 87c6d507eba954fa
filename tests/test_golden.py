"""Golden CLI outputs: the exit code, stdout, stderr and written files of a fixed list.

Each case in CASES runs in process through run_command, in a fresh
temporary directory that "{tmp}" in its argv names, and its record is
compared with tests/golden/<name>.txt.  The record shows the temporary
directory as $TMP.  Text compares exactly, numbers apart: two numbers
both below FLOOR in magnitude are equal, and other numbers agree to the
relative tolerance RTOL, pinned before the files were first written.
Round-off moves the last printed digit between BLAS builds and thread
counts (transform.polaron at N = 1024 reads 8.126e-14 with the default
BLAS threads and 8.132e-14 with one); pass/FAIL, exit codes and messages
do not move.

Regenerating a file is a reviewed diff:
    PYTHONPATH=src python tests/test_golden.py
rewrites every file whose text differs from its case's record, even
where the comparison above would pass it, so no file keeps a number
(below FLOOR, or within RTOL) that the command no longer prints.
"""

from __future__ import annotations

import contextlib
import io
import re
import sys
import tempfile
import warnings
from pathlib import Path

from susyrabi.cli import run_command

GOLDEN = Path(__file__).resolve().parent / "golden"
RTOL = 1e-6
FLOOR = 1e-10
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")

N128 = ["--n-fock", "128", "--buffer", "32"]
CASES = {
    "verify_n128_c0.2513": ["verify", *N128, "--c", "0.2513"],
    "verify_c0": ["verify", "--c", "0"],
    "verify_c1.257": ["verify", "--c", "1.257"],
    "verify_c0_beta2": ["verify", "--c", "0", "--g-max", "12.5664"],
    "verify_n255_c0.2513": ["verify", "--n-fock", "255", "--buffer", "64", "--c", "0.2513"],
    "verify_n128_c1.257_fails": ["verify", *N128, "--c", "1.257"],
    "verify_buffer0": ["verify", "--buffer", "0"],
    "verify_c200_n4096": ["verify", "--c", "200", "--n-fock", "4096"],
    "verify_n64_c0_beta3": ["verify", "--n-fock", "64", "--buffer", "16", "--c", "0",
                            "--g-max", "18.85"],
    "witten_n128_c0.2513": ["witten", *N128, "--c", "0.2513"],
    "witten_c0.2513": ["witten", "--c", "0.2513"],
    "goldstino_n128": ["goldstino", *N128],
    "goldstino_omega1e200": ["goldstino", "--omega", "1e200"],
    "goldstino_omega1.7e308": ["goldstino", "--omega", "1.7e308"],
    "goldstino_omega5e-324": ["goldstino", "--omega", "5e-324"],
    "mass_c1.257": ["mass", "--g", "6.2832", "--c", "1.257"],
    "mass_c0": ["mass"],
    "spectrum_csv": ["spectrum", "--r", "0.5", "--c", "0.2513", "--out-csv", "{tmp}/spectrum.csv"],
    "converge_c0.2513": ["converge", "--c", "0.2513"],
    "sweep_r_csv_svg": ["sweep", "--c", "0.2513", "--out-csv", "{tmp}/flow.csv",
                        "--out-svg", "{tmp}/flow.svg"],
    "sweep_g_c0.0377": ["sweep", "--sweep-kind", "g", "--sweep-stop", "31.416",
                        "--sweep-points", "21", "--c", "0.0377", "--out-csv", "{tmp}/g.csv"],
    "sweep_g_c0_svg": ["sweep", "--sweep-kind", "g", "--sweep-stop", "12.5664",
                       "--sweep-points", "5", "--c", "0", "--out-csv", "{tmp}/g.csv",
                       "--out-svg", "{tmp}/g.svg"],
    # k = 2N: every level of both chains, the full-spectrum edge of lowest_k's merge.
    "sweep_k_full_n8": ["sweep", "--n-fock", "8", "--buffer", "0", "--k-levels", "16",
                        "--sweep-points", "5", "--out-csv", "{tmp}/k_full.csv"],
    "sweep_g_past_cap": ["sweep", "--sweep-kind", "g", "--sweep-stop", "1000",
                         "--sweep-points", "2", "--out-csv", "{tmp}/g.csv"],
    # The input-domain contract: each exits 1 with one "error:" line.
    "rejects_witten_beta_nan": ["witten", "--beta", "nan"],
    "rejects_witten_beta_inf": ["witten", "--beta", "inf"],
    "rejects_mass_g_nan": ["mass", "--g", "nan"],
    "rejects_mass_g1e200": ["mass", "--g", "1e200"],
    "rejects_mass_g1e154_c0.2513": ["mass", "--g", "1e154", "--c", "0.2513"],
    "rejects_witten_g1e200": ["witten", "--g-max", "1e200"],
    "rejects_sweep_g1e200": ["sweep", "--sweep-kind", "g", "--sweep-stop", "1e200",
                             "--sweep-points", "2", "--out-csv", "{tmp}/x.csv"],
    "rejects_witten_omega1e-300": ["witten", "--omega", "1e-300"],
    "rejects_mass_omega1e-300": ["mass", "--omega", "1e-300"],
    "rejects_sweep_omega1e-300": ["sweep", "--sweep-kind", "g", "--sweep-stop", "1e20",
                                  "--sweep-points", "2", "--c", "1", "--omega", "1e-300",
                                  "--out-csv", "{tmp}/x.csv"],
}


def record(argv: list[str]) -> str:
    """The run's exit code, stdout, stderr, warnings and written files, as text."""
    with tempfile.TemporaryDirectory() as tmp:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_command([arg.replace("{tmp}", tmp) for arg in argv])
        parts = [f"exit {code}", "--- stdout", out.getvalue(), "--- stderr", err.getvalue()]
        parts += [f"warning: {w.category.__name__}: {w.message}\n" for w in caught]
        for path in sorted(Path(tmp).iterdir()):
            parts += [f"--- file {path.name}", path.read_text(encoding="utf-8")]
        return "\n".join(parts).replace(tmp, "$TMP")


def same(want: str, got: str) -> bool:
    """Equal text, with numbers compared as in the module docstring."""
    if NUMBER.split(want) != NUMBER.split(got):
        return False
    pairs = zip(NUMBER.findall(want), NUMBER.findall(got))
    return all(
        (abs(a) < FLOOR and abs(b) < FLOOR) or abs(a - b) <= RTOL * max(abs(a), abs(b))
        for a, b in ((float(x), float(y)) for x, y in pairs)
    )


def mismatches() -> dict[str, str]:
    """The record of every case that differs from its golden file, by name."""
    found = {}
    for name, argv in CASES.items():
        path = GOLDEN / f"{name}.txt"
        got = record(argv)
        if not path.is_file() or not same(path.read_text(encoding="utf-8"), got):
            found[name] = got
    return found


def test_cli_outputs_match_golden_files():
    assert {p.stem for p in GOLDEN.glob("*.txt")} == set(CASES)
    bad = mismatches()
    assert not bad, f"outputs differ from tests/golden for: {sorted(bad)}"


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        path = GOLDEN / f"{name}.txt"
        text = record(argv)
        if not path.is_file() or path.read_text(encoding="utf-8") != text:
            path.write_text(text, encoding="utf-8")
            print(f"wrote {name}", file=sys.stderr)
