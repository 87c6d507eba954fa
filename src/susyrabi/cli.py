"""Command-line interface.

Subcommands: spectrum, sweep, verify, witten, converge, mass, goldstino.
Exit status: 0 success/pass, 1 validation error, 2 numerical failure,
3 verification failure.  All errors go to stderr with an "error:" prefix.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys

import numpy as np

from .config import RunConfig, parse_config, validate
from .errors import NumericalError, ValidationError
from .model import (
    ModelParams,
    broken_supercharges,
    free_supercharges,
    hamiltonian,
    mass_increment,
    parity_chains_r,
    renormalized_frequency,
)
from .output import emit_flow_csv, emit_flow_svg, emit_spectrum_csv
from .spectral import (
    SpectrumTable,
    degeneracy_groups,
    goldstino_check,
    lowest_k,
    spectral_flow_g,
    spectral_flow_r,
    susy_algebra_report,
    truncation_convergence,
    witten_index,
)
from .transforms import (
    field_identity_report,
    polaron_equivalence_report,
    u_a2_with_report,
)

# One flag per RunConfig field; a None default (the output paths) is a str.
_CONFIG_FLAGS = [
    (f.name, str if f.default is None else type(f.default))
    for f in dataclasses.fields(RunConfig)
]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="susyrabi",
        description="Quantum Rabi model with A^2 term: SUSY breaking, spectral "
        "flows and mass enhancement",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "spectrum": "eigenvalues of H(r) at one interpolation point",
        "sweep": "spectral flow over r or g, emitted as CSV (and optional SVG)",
        "verify": "SUSY algebra and unitary-equivalence identity suite",
        "witten": "Witten index at the sweep endpoints r=0 and r=1",
        "converge": "truncation-convergence study at r=1",
        "mass": "renormalized frequency and mass increment",
        "goldstino": "supercharge eigen-relation residuals on the vacuums",
    }
    for name, help_text in commands.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", help="JSON configuration file")
        for key, kind in _CONFIG_FLAGS:
            cmd.add_argument(f"--{key.replace('_', '-')}", type=kind, default=None)
        if name == "spectrum":
            cmd.add_argument("--r", type=float, default=1.0)
        if name == "mass":
            cmd.add_argument("--g", type=float, default=None,
                             help="coupling (alias for --g-max)")
        if name == "witten":
            cmd.add_argument("--beta", type=float, default=None)
    return parser


def _load_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        try:
            text = open(args.config, encoding="utf-8").read()
        except OSError as exc:
            raise ValidationError(f"cannot read config {args.config}: {exc}") from exc
        cfg = parse_config(text)
    overrides = {
        key: getattr(args, key)
        for key, _ in _CONFIG_FLAGS
        if getattr(args, key) is not None
    }
    if overrides:
        cfg = validate(dataclasses.replace(cfg, **overrides))
    return cfg


def _cmd_spectrum(args, cfg: RunConfig) -> int:
    vals = lowest_k(parity_chains_r(cfg.schedule(), args.r, cfg.fock()), cfg.k_levels)
    table = SpectrumTable(
        energies=vals,
        groups=degeneracy_groups(vals, cfg.tol_degeneracy),
        n_fock_used=cfg.n_fock,
    )
    if cfg.out_csv:
        emit_spectrum_csv(table, cfg.out_csv)
        print(f"wrote {cfg.out_csv}")
    else:
        for i, e in enumerate(table.energies):
            print(f"level {i}: {e:.12g}")
    return 0


def _cmd_sweep(args, cfg: RunConfig) -> int:
    if not cfg.out_csv:
        raise ValidationError("sweep requires out_csv")
    grid = np.linspace(cfg.sweep_start, cfg.sweep_stop, cfg.sweep_points)
    if cfg.sweep_kind == "r":
        flow = spectral_flow_r(cfg.schedule(), grid, cfg.k_levels, cfg.fock(),
                               cfg.tol_degeneracy)
    else:
        flow = spectral_flow_g(cfg.omega, cfg.c, grid, cfg.k_levels, cfg.fock(),
                               cfg.tol_degeneracy)
    emit_flow_csv(flow, cfg.out_csv)
    print(f"wrote {cfg.out_csv}")
    if cfg.out_svg:
        emit_flow_svg(flow, cfg.out_svg)
        print(f"wrote {cfg.out_svg}")
    return 0


def _cmd_verify(args, cfg: RunConfig) -> int:
    fp = cfg.fock()
    rows: list[tuple[str, float, float]] = []  # name, value, threshold

    h_free = hamiltonian(ModelParams(cfg.omega, cfg.omega, 0.0, 0.0), fp)
    free = susy_algebra_report(h_free, free_supercharges(cfg.omega, fp), fp,
                               cfg.tol_algebra)
    h_broken = hamiltonian(ModelParams(0.0, cfg.omega, 0.0, 0.0), fp)
    broken = susy_algebra_report(h_broken, broken_supercharges(cfg.omega, fp), fp,
                                 cfg.tol_algebra)
    for rep in (free, broken):
        for group, values in (
            ("anticommutator", rep.anticommutator),
            ("commutator_with_h", rep.commutator_with_h),
            ("grading", rep.anticommutator_with_grading),
            ("nilpotency", rep.nilpotency),
        ):
            for name, val in values.items():
                rows.append((f"{rep.variant}.{group}.{name}", val, cfg.tol_algebra))
    for i, val in enumerate(free.vacuum_annihilation):
        rows.append((f"free.vacuum_annihilation.{i}", val, 1e-8))
    target = math.sqrt(cfg.omega / 2.0)
    for i, val in enumerate(broken.vacuum_annihilation):
        rows.append((f"broken.vacuum_nonannihilation.{i}", abs(val - target), 1e-6))

    _, a2_rep = u_a2_with_report(
        ModelParams(cfg.omega, cfg.omega, cfg.g_max, cfg.c), fp, check=False
    )
    rows.append(("transform.a2_removal", a2_rep.residual, 1e-6))
    pol_rep = polaron_equivalence_report(cfg.omega, cfg.omega, cfg.g_max, fp)
    rows.append(("transform.polaron", pol_rep.residual, 1e-7))
    for r in (0.5, 1.0):
        f_rep = field_identity_report(cfg.schedule(), r, fp)
        rows.append((f"transform.field_identity.r={r}", f_rep.residual, 1e-8))

    ok = True
    for name, value, threshold in rows:
        status = "pass" if value <= threshold else "FAIL"
        ok = ok and value <= threshold
        print(f"{name},{value:.3e},{threshold:.1e},{status}")
    return 0 if ok else 3


def _cmd_witten(args, cfg: RunConfig) -> int:
    fp = cfg.fock()
    s = cfg.schedule()
    beta = args.beta if args.beta is not None else 5.0 / cfg.omega
    for r in (0.0, 1.0):
        rep = witten_index(parity_chains_r(s, r, fp), None, beta)
        print(
            f"r={r}: index {rep.index_value:.6f} (rounded {rep.rounded}, "
            f"beta {rep.beta:.4g}, tail {rep.truncation_tail:.2e})"
        )
    return 0


def _cmd_converge(args, cfg: RunConfig) -> int:
    s = cfg.schedule()
    rep = truncation_convergence(
        lambda fp: parity_chains_r(s, 1.0, fp),
        cfg.k_levels,
        cfg.tol_convergence,
        cfg.fock(),
    )
    print(f"n_star {rep.n_star}, drift {rep.drift:.3e}, converged {rep.converged}")
    for i, e in enumerate(rep.energies):
        print(f"level {i}: {e:.12g}")
    return 0


def _cmd_mass(args, cfg: RunConfig) -> int:
    g = args.g if args.g is not None else cfg.g_max
    if g < 0:
        raise ValidationError(f"g must be non-negative, got {g}")
    omega_g, g_tilde = renormalized_frequency(cfg.omega, cfg.c, g)
    dm = mass_increment(cfg.omega, cfg.c, g)
    print(f"omega_g {omega_g:.6g}")
    print(f"g_tilde {g_tilde:.6g}")
    print(f"delta_m {dm:.6g}")
    if cfg.c > 0:
        print(f"self_energy_limit {1.0 / (4.0 * cfg.c):.6g}")
    else:
        print("self_energy_limit inf")
    return 0


def _cmd_goldstino(args, cfg: RunConfig) -> int:
    rep = goldstino_check(cfg.omega, cfg.fock())
    print(f"residual_plus {rep.residual_plus:.3e}")
    print(f"residual_minus {rep.residual_minus:.3e}")
    print(f"energy_increment {rep.energy_increment:.3e}")
    return 0


_COMMANDS = {
    "spectrum": _cmd_spectrum,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
    "witten": _cmd_witten,
    "converge": _cmd_converge,
    "mass": _cmd_mass,
    "goldstino": _cmd_goldstino,
}


def run_command(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        cfg = _load_config(args)
        return _COMMANDS[args.command](args, cfg)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
