"""Correctness gate: checks each command's output, outside the timed region.

A command counts as failed when it exits non-zero or when any check here
reports a problem.  The reference energies come from a Hamiltonian this
module builds on its own (qubit-major basis, literal truncated (a+a_dag)^2,
self-energy shift), never from the package under test.
"""

from __future__ import annotations

import math
import re

import numpy as np

CSV_HEADER = "sweep_kind,grid_value,level_index,energy,group_id,group_size,n_fock,converged"
FREE_TOL = 1e-8
ORACLE_RTOL = 1e-9
VERIFY_ROWS = 25
GOLDSTINO_TOL = 1e-8
MASS_RTOL = 1e-5


def free_ladder(omega: float, k: int) -> np.ndarray:
    """0, w, w, 2w, 2w, ...: the spectrum of H(w, w, 0, 0)."""
    return omega * ((np.arange(k) + 1) // 2)


def oracle_energies(omega_a, omega_b, g, c, n, k) -> np.ndarray:
    """Lowest k eigenvalues of the truncated H(omega_a, omega_b, g, c) + g^2/(omega_b + 4cg^2)."""
    levels = np.arange(n)
    x = np.zeros((n, n))
    x[levels[:-1], levels[1:]] = np.sqrt(levels[1:])
    x = x + x.T
    boson = np.diag(omega_b * (levels + 0.5)) + c * g**2 * (x @ x)
    eye = np.eye(n)
    h = np.block([[boson + omega_a / 2 * eye, g * x], [g * x, boson - omega_a / 2 * eye]])
    shift = g**2 / (omega_b + 4.0 * c * g**2)
    return np.linalg.eigvalsh(h)[:k] + shift


def _read_csv(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


def check_sweep(expect: dict, res: dict, oracle: bool) -> list[str]:
    """Header, shape, r grid, n_fock column, free ladder at r=0, oracle points."""
    problems = []
    grid, k, omega = expect["grid"], expect["k"], expect["omega"]
    try:
        lines = _read_csv(expect["csv"])
    except OSError as exc:
        return [f"sweep CSV unreadable: {exc}"]
    if not lines or lines[0] != CSV_HEADER:
        return [f"sweep CSV header is {lines[:1]}"]
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != len(grid) * k or any(len(row) != 8 for row in rows):
        return [f"sweep CSV has {len(rows)} rows, expected {len(grid) * k} of 8 fields"]
    energies = np.array([float(row[3]) for row in rows]).reshape(len(grid), k)
    for i, value in enumerate(grid):
        for level, row in enumerate(rows[i * k:(i + 1) * k]):
            if (row[0] != "r_sweep" or int(row[2]) != level
                    or abs(float(row[1]) - value) > 1e-11 * max(1.0, abs(value))):
                return [f"sweep CSV row for point {i} level {level} is {row}"]
        n_col = {int(row[6]) for row in rows[i * k:(i + 1) * k]}
        if n_col != {expect["n_fock"][i]}:
            problems.append(f"point {i}: n_fock {sorted(n_col)}, expected {expect['n_fock'][i]}")
    err = np.max(np.abs(energies[0] - free_ladder(omega, k)))
    if err > FREE_TOL:
        problems.append(f"first point deviates from the free ladder by {err:.3e}")
    if oracle:
        for i in expect["oracle"]:
            omega_a, g = (1.0 - grid[i]) * omega, grid[i] * expect["g_max"]
            ref = oracle_energies(omega_a, omega, g, expect["c"], expect["n_fock"][i], k)
            err = np.max(np.abs(energies[i] - ref) / np.maximum(1.0, np.abs(ref)))
            if err > ORACLE_RTOL:
                problems.append(f"point {i} deviates from the oracle by {err:.3e} (relative)")
    if expect.get("svg"):
        try:
            with open(expect["svg"], encoding="utf-8") as fh:
                svg = fh.read()
        except OSError as exc:
            svg = ""
            problems.append(f"sweep SVG unreadable: {exc}")
        if svg and (not svg.startswith("<svg") or not svg.rstrip().endswith("</svg>")
                    or svg.count("<polyline") != k):
            problems.append("sweep SVG is not a plot with one polyline per level")
    return problems


def check_verify(expect: dict, res: dict) -> list[str]:
    rows = [line.split(",") for line in res["stdout"].splitlines()]
    if len(rows) != VERIFY_ROWS:
        return [f"verify printed {len(rows)} rows, expected {VERIFY_ROWS}"]
    bad = [row[0] for row in rows
           if len(row) != 4 or row[3] != "pass" or float(row[1]) > float(row[2])]
    return [f"verify rows not passing: {bad}"] if bad else []


def check_witten(expect: dict, res: dict) -> list[str]:
    rounded = [int(m) for m in re.findall(r"\(rounded (-?\d+)", res["stdout"])]
    return [] if rounded == [1, 0] else [f"witten rounded indices {rounded}, expected [1, 0]"]


def check_goldstino(expect: dict, res: dict) -> list[str]:
    values = dict(line.split() for line in res["stdout"].splitlines())
    names = ("residual_plus", "residual_minus", "energy_increment")
    bad = [n for n in names if n not in values or not float(values[n]) <= GOLDSTINO_TOL]
    return [f"goldstino values above {GOLDSTINO_TOL}: {bad}"] if bad else []


def check_mass(expect: dict, res: dict) -> list[str]:
    omega, c, g = expect["omega"], expect["c"], expect["g"]
    omega_g = math.sqrt(omega**2 + 4.0 * c * omega * g**2)
    want = {
        "omega_g": omega_g,
        "g_tilde": g * math.sqrt(omega / omega_g),
        "delta_m": 2.0 * math.sqrt(c * omega) * g,
        "self_energy_limit": 1.0 / (4.0 * c),
    }
    got = dict(line.split() for line in res["stdout"].splitlines())
    bad = [n for n, v in want.items()
           if n not in got or abs(float(got[n]) - v) > MASS_RTOL * abs(v)]
    return [f"mass values off: {bad}"] if bad else []


def check_converge(expect: dict, res: dict) -> list[str]:
    lines = res["stdout"].splitlines()
    if not lines or not lines[0].endswith("converged True"):
        return [f"converge reported {lines[:1]}"]
    if len(lines) != 1 + expect["k"]:
        return [f"converge printed {len(lines) - 1} levels, expected {expect['k']}"]
    return []


CHECKS = {
    "verify": check_verify,
    "witten": check_witten,
    "goldstino": check_goldstino,
    "mass": check_mass,
    "converge": check_converge,
}


def check_command(expect: dict, res: dict, oracle: bool) -> list[str]:
    """Problems with one command's result."""
    if res["rc"] != 0:
        return [f"{expect['kind']} exited {res['rc']}: {res['stderr'][-300:]}"]
    try:
        if expect["kind"] == "sweep":
            return check_sweep(expect, res, oracle)
        return CHECKS[expect["kind"]](expect, res)
    except (ValueError, IndexError) as exc:
        return [f"{expect['kind']} output unparseable: {exc}"]
