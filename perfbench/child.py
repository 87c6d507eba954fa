"""One pass of a workload in a fresh interpreter.

Reads a JSON spec on stdin: {"src": ..., "commands": [argv, ...], "run": bool,
"trace": bool}.  Imports `susyrabi.cli` from `src`, parses every command's
argv and config (the set-up phase) and, when `run` is set, runs the commands
in order through `cli.run_command`, capturing each one's stdout.  Writes one
JSON document
to stdout with the set-up timestamp, per-command exit codes, times and
output, the peak RSS of this process, the resolved thread counts and, when
tracing, the tracer summary.

The commands go through `run_command` rather than `python -m susyrabi.cli`
because `cli.py` has no `__main__` guard: `python -m susyrabi.cli` imports
the module and exits 0 without running anything.
"""

import contextlib
import ctypes
import io
import json
import os
import resource
import sys
import time
import traceback


def blas_threads() -> dict:
    """Thread count and build of each OpenBLAS loaded into this process."""
    found = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        entry = {}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if getter is not None and config is not None:
                    getter.restype = ctypes.c_int
                    config.restype = ctypes.c_char_p
                    entry = {"threads": getter(), "config": config().decode()}
                    break
            if entry:
                break
        found[os.path.basename(path)] = entry
    return found


def main() -> None:
    spec = json.loads(sys.stdin.read())
    src = os.path.abspath(spec["src"])
    sys.path.insert(0, src)
    from susyrabi import cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"susyrabi imported from {cli.__file__}, not from {src}")
    t = time.perf_counter()
    for argv in spec["commands"]:
        cli._load_config(cli._build_parser().parse_args(argv))
    parse_s = time.perf_counter() - t
    ready = time.monotonic()
    if not spec["run"]:
        sys.stdout.write(json.dumps({"ready": ready, "parse_s": parse_s}))
        return

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    results = []
    for argv in spec["commands"]:
        out, err = io.StringIO(), io.StringIO()
        t = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.run_command(argv)
            except Exception:  # reported as a failed command, the pass goes on
                traceback.print_exc()
                rc = -1
        results.append({
            "argv": argv,
            "rc": rc,
            "seconds": time.perf_counter() - t,
            "stdout": out.getvalue(),
            "stderr": err.getvalue()[-4000:],
        })

    import numpy
    import scipy

    workers_env = os.environ.get("SUSYRABI_WORKERS")
    doc = {
        "ready": ready,
        "parse_s": parse_s,
        "commands": results,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "threads": {
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "SUSYRABI_WORKERS": workers_env,
            "workers_resolved": int(workers_env) if workers_env else min(8, os.cpu_count() or 1),
            "blas": blas_threads(),
        },
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
        "trace": tracer.summary() if tracer else None,
    }
    sys.stdout.write(json.dumps(doc))


if __name__ == "__main__":
    main()
