#!/usr/bin/env python3
"""Benchmark of the susyrabi CLI on two seeded workloads.

    python3 perfbench/run.py --workload flow_r --seed 1 --seconds 60 --trace 0

Each workload is a closed loop of CLI commands that one fresh interpreter
runs in order through `susyrabi.cli.run_command` (see child.py).  With
`--trace 0` the benchmark repeats fresh-interpreter passes for about
`--seconds` seconds and reports the end-to-end metrics of BENCHMARK.json
as medians over passes.  With `--trace 1` it runs one untraced pass, two
traced passes (whose counts must repeat exactly) and one single-thread
pass, and reports the per-layer metrics.  Every command's output goes
through the correctness gate in gates.py, outside the timed region.

The last line of stdout is the result object; the line before it is a
record of the inputs, the machine, the thread settings, every pass and,
when tracing, which end-to-end metric each per-layer metric should move.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import numpy as np

import gates

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"

OMEGA = 6.2832
C_PAPER = 0.2513
K = 7
N_FOCK = 256
R_POINTS = 51

# Cleared so the program runs with its documented default threading.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "SUSYRABI_WORKERS", "OMP_NUM_THREADS", "GOTO_NUM_THREADS")
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "SUSYRABI_WORKERS": "1"}
SETUP_SAMPLES = 3
RUN_LIMIT_S = 170.0

# Which end-to-end metric each per-layer metric should move, on which
# workload; the longest matching prefix applies.
MOVES = {
    "linalg.hermitian_eigs": "sweep_s, converge_s and wall_s on flow_r; barely on checks",
    "spectral.lowest_k": "sweep_s, converge_s and wall_s on flow_r; zero calls on checks",
    "model.hamiltonian": "sweep_s and peak_rss_mb on flow_r",
    "fock.make_operators": "sweep_s and peak_rss_mb on flow_r",
    "linalg.kron": "sweep_s and peak_rss_mb on flow_r",
    "linalg.projected_norm": "verify_s on checks; zero calls on flow_r",
    "linalg.spectral_norm": "verify_s on checks; zero calls on flow_r",
    "fock.interior_projector": "verify_s on checks; zero calls on flow_r",
    "spectral.susy_algebra_report": "verify_s on checks",
    "linalg.unitary_exp": "verify_s on checks",
    "transforms": "verify_s on checks",
    "spectral.witten_index": "witten_s on checks",
    "spectral.truncation_convergence": "converge_s on flow_r",
    "spectral.flow": "sweep_s on flow_r",
    "spectral.pool": "sweep_s on flow_r; wall_s on checks (BLAS threads only)",
    "spectral.point_s": "sweep_s on flow_r",
    "output": "nothing: a few ms of sweep_s on flow_r",
    "cli.parse_s": "setup_s on every workload",
    "trace.overhead_s": "nothing: traced wall_s minus untraced wall_s",
    "sweep_s": "wall_s on flow_r",
    "points_per_s": "wall_s on flow_r",
    "converge_s": "wall_s on flow_r",
    "verify_s": "wall_s on checks",
    "witten_s": "wall_s on checks",
}


def make_plan(workload: str, seed: int, workdir: str) -> dict:
    """The workload's commands, each with what the gate expects of it."""
    rng = random.Random(f"{workload}:{seed}")
    sizes = ["--omega", str(OMEGA), "--n-fock", str(N_FOCK), "--k-levels", str(K)]
    c = f"{C_PAPER * (1.0 + rng.uniform(-0.04, 0.04)):.6f}"
    params = {"c": float(c)}
    if workload == "flow_r":
        csv, svg = os.path.join(workdir, "flow_r.csv"), os.path.join(workdir, "flow_r.svg")
        params["oracle_points"] = sorted(rng.sample(range(1, R_POINTS), 2))
        commands = [
            (["sweep", *sizes, "--g-max", str(OMEGA), "--c", c, "--sweep-kind", "r",
              "--sweep-points", str(R_POINTS), "--out-csv", csv, "--out-svg", svg],
             {"kind": "sweep", "grid": np.linspace(0.0, 1.0, R_POINTS).tolist(),
              "omega": OMEGA, "g_max": OMEGA, "c": float(c), "k": K,
              "n_fock": [N_FOCK] * R_POINTS, "oracle": params["oracle_points"],
              "csv": csv, "svg": svg}),
            (["converge", *sizes, "--c", str(C_PAPER)], {"kind": "converge", "k": K}),
        ]
    else:
        commands = [
            (["verify", *sizes, "--c", c], {"kind": "verify"}),
            (["witten", *sizes, "--c", c], {"kind": "witten"}),
            (["goldstino", *sizes], {"kind": "goldstino"}),
            (["mass", "--omega", str(OMEGA), "--g", "6.2832", "--c", "1.257"],
             {"kind": "mass", "omega": OMEGA, "g": 6.2832, "c": 1.257}),
        ]
    return {"params": params, "commands": commands, "workdir": workdir}


class ChildFailed(RuntimeError):
    pass


def run_child(argvs: list, run: bool, trace: bool, extra_env: dict, deadline: float) -> dict:
    """Start a fresh interpreter on child.py and wait for its report."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(extra_env)
    spec = json.dumps({"src": str(SRC), "commands": argvs, "run": run, "trace": trace})
    t0 = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(CHILD)], input=spec, capture_output=True,
                              text=True, env=env, cwd=str(ROOT),
                              timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"pass timed out after {exc.timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"child exited {proc.returncode}: {proc.stderr[-2000:]}")
    doc = json.loads(proc.stdout)
    doc["setup_s"] = doc["ready"] - t0
    return doc


def run_pass(plan: dict, deadline: float, trace=False, extra_env=None, oracle=False) -> dict:
    """One fresh-interpreter pass over the workload, then the correctness gate.

    The work directory is emptied first, so a command that writes no output
    file cannot pass on a file left by an earlier pass.
    """
    for name in os.listdir(plan["workdir"]):
        os.remove(os.path.join(plan["workdir"], name))
    argvs = [argv for argv, _ in plan["commands"]]
    try:
        doc = run_child(argvs, True, trace, extra_env or {}, deadline)
    except ChildFailed as exc:
        return {"wall_s": None, "failed": len(argvs), "problems": [str(exc)]}
    problems = []
    failed = 0
    for (_, expect), res in zip(plan["commands"], doc["commands"]):
        found = gates.check_command(expect, res, oracle)
        failed += bool(found)
        problems += found
    doc["failed"] = failed
    doc["problems"] = problems
    doc["wall_s"] = sum(res["seconds"] for res in doc["commands"])
    return doc


def summarize(p: dict) -> dict:
    """The part of a pass that goes into the record."""
    if p["wall_s"] is None:
        return {"failed": p["failed"], "problems": p["problems"]}
    return {
        "wall_s": p["wall_s"],
        "setup_s": p["setup_s"],
        "peak_rss_mb": p["peak_rss_mb"],
        "commands": {f"{r['argv'][0]}#{i}": r["seconds"] for i, r in enumerate(p["commands"])},
        "failed": p["failed"],
        "problems": p["problems"],
    }


def timed_run(plan: dict, seconds: int, deadline: float) -> tuple[dict, list]:
    argvs = [argv for argv, _ in plan["commands"]]
    setups = []
    for _ in range(SETUP_SAMPLES):
        try:
            setups.append(run_child(argvs, False, False, {}, deadline)["setup_s"])
        except ChildFailed:
            break  # the passes below fail the same way and are counted
    passes = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        passes.append(run_pass(plan, deadline, oracle=not passes))
        now = time.monotonic()
        last = now - began
        if (passes[-1]["wall_s"] is None or now - start + last > seconds
                or now + 1.5 * last > deadline):
            break
    good = [p for p in passes if p["wall_s"] is not None]
    setups += [p["setup_s"] for p in good]
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in good) if good else 0.0,
        "setup_s": statistics.median(setups) if setups else 0.0,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in good) if good else 0.0,
    }
    return metrics, passes


def _quantile(values: list, q: int) -> float:
    """q-th percentile (q a multiple of 10) of the values; 0 when there are none."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[q // 10 - 1]


def count_facts(summary: dict) -> dict:
    """The counts of a traced pass that must repeat exactly."""
    return {
        "calls": {name: stat["calls"] for name, stat in summary["names"].items()},
        "eigs_calls_by_dim": summary["eigs_calls_by_dim"],
        "bytes": summary["bytes"],
        "convergence_solves": summary["convergence_solves"],
        "points_by_n_fock": dict(Counter(str(p["n_fock"]) for p in summary["points"])),
    }


def layer_metrics(declared: list, plan: dict, base: dict, traced: dict, single: dict) -> dict:
    """Per-layer metrics; a declared `<span>.<calls|busy_s|self_s|bytes>` reads the trace."""
    s = traced["trace"]
    m = {}
    for name in declared:
        span, _, key = name.rpartition(".")
        if key in ("calls", "busy_s", "self_s"):
            m[name] = s["names"].get(span, {}).get(key, 0)
        elif key in ("bytes", "bytes_computed"):
            m[name] = s["bytes"].get(span, 0)
        elif span == "linalg.hermitian_eigs.calls_by_dim":
            m[name] = s["eigs_calls_by_dim"].get(key, 0)
    m["spectral.truncation_convergence.solves"] = s["convergence_solves"]
    m["spectral.flow.wall_s"] = s["names"].get("spectral.spectral_flow_r", {}).get("busy_s", 0)
    points = s["points"]
    threads: dict = {}
    for p in points:
        threads.setdefault(p["flow"], set()).add(p["thread"])
    m["spectral.pool.workers"] = max((len(t) for t in threads.values()), default=0)
    m["spectral.pool.speedup_vs_1t"] = single["wall_s"] / base["wall_s"]
    durations = [p["s"] for p in points]
    m["spectral.point_s.p50"] = _quantile(durations, 50)
    m["spectral.point_s.p80"] = _quantile(durations, 80)
    m["cli.parse_s"] = base["parse_s"]
    m["trace.overhead_s"] = traced["wall_s"] - base["wall_s"]
    by_cmd = Counter()
    for res in base["commands"]:
        by_cmd[res["argv"][0]] += res["seconds"]
    for cmd in ("sweep", "verify", "witten", "converge"):
        m[f"{cmd}_s"] = by_cmd[cmd]
    n_points = sum(len(e["grid"]) for _, e in plan["commands"] if e["kind"] == "sweep")
    m["points_per_s"] = n_points / by_cmd["sweep"] if by_cmd["sweep"] else 0.0
    return m


def traced_run(declared: list, plan: dict, deadline: float) -> tuple[dict, list, dict]:
    base = run_pass(plan, deadline, oracle=True)
    first = run_pass(plan, deadline, trace=True)
    second = run_pass(plan, deadline, trace=True)
    single = run_pass(plan, deadline, extra_env=SINGLE_THREAD)
    passes = [base, first, second, single]
    if any(p["wall_s"] is None for p in passes):
        return {}, passes, {"counts_repeat": False}
    counts = [count_facts(first["trace"]), count_facts(second["trace"])]
    extra = {
        "counts_repeat": counts[0] == counts[1],
        "counts": counts[0] if counts[0] == counts[1] else counts,
        "single_thread_wall_s": single["wall_s"],
        "default_wall_s": base["wall_s"],
        "traced_wall_s": [first["wall_s"], second["wall_s"]],
        "layers": first["trace"]["names"],
    }
    return layer_metrics(declared, plan, base, first, single), passes, extra


def cpu_ticks() -> list[int]:
    """Machine-wide CPU time counters: user nice system idle iowait irq softirq steal."""
    with open("/proc/stat", encoding="utf-8") as fh:
        return [int(x) for x in fh.readline().split()[1:9]]


def machine() -> dict:
    def read(path):
        try:
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        except OSError:
            return "unknown"

    model = next((line.split(":", 1)[1].strip()
                  for line in read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), "unknown")
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        kind = read(f"{index}/type")
        suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
        caches[f"L{read(f'{index}/level')}{suffix}"] = read(f"{index}/size")
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "platform": platform.platform(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("flow_r", "checks"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (SRC / "susyrabi" / "cli.py").is_file():
        print(f"error: no susyrabi sources under {SRC}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    names = [d["name"] for d in declared]

    ticks = cpu_ticks()
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=str(ROOT))
    try:
        plan = make_plan(args.workload, args.seed, workdir)
        if args.trace:
            values, passes, extra = traced_run(names, plan, deadline)
        else:
            values, passes = timed_run(plan, args.seconds, deadline)
            extra = {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ticks = [b - a for a, b in zip(ticks, cpu_ticks())]
    attempted = len(plan["commands"]) * len(passes)
    failed = sum(p["failed"] for p in passes)
    ran = next((p for p in passes if p["wall_s"] is not None), {})
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "params": plan["params"],
        "commands": [argv for argv, _ in plan["commands"]],
        "machine": machine(),
        "cpu_share": {"busy": 1.0 - (ticks[3] + ticks[4]) / max(1, sum(ticks)),
                      "steal": ticks[7] / max(1, sum(ticks))},
        "threads": ran.get("threads"),
        "versions": ran.get("versions"),
        "ops_failed": failed / attempted,
        "passes": [summarize(p) for p in passes],
        **extra,
    }
    if args.trace:
        record["moves"] = {
            d["name"]: MOVES[max((k for k in MOVES if d["name"].startswith(k)), key=len)]
            for d in declared
        }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0 and extra.get("counts_repeat", True),
        "attempted": attempted,
        "failed": failed,
        "metrics": {d["name"]: {"value": values.get(d["name"], 0.0), "unit": d["unit"]}
                    for d in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
