"""Quantum Rabi model with A^2 term: SUSY breaking, spectral flows,
mass enhancement.

Importing the package before numpy sets OPENBLAS_THREAD_TIMEOUT to 18
unless it is already set, so idle OpenBLAS workers stop spinning
against the solver after about 0.1 ms (see README, "Threading").

The package root exports nothing else: callers import the submodules
(susyrabi.cli, susyrabi.spectral, ...), which hold only what a command
runs.
"""

import os

# OpenBLAS workers busy-wait 2^THREAD_TIMEOUT TSC cycles (default 2^28,
# about 0.1 s) after each threaded call before they sleep; on few cores they
# take the CPU from the main thread.  2^18 cycles (about 0.1 ms at 2 GHz)
# ends the spin between calls about 1 ms apart, where the two OpenBLAS
# pools (numpy's and scipy's) spun against each other at 2^22, yet still
# spans the gaps between the BLAS calls inside one LAPACK routine, so a
# large solve does not pay a wake-up per call, as it does at OpenBLAS's
# minimum 4: measured on 2 cores, verify at N = 512 to 2048 was no slower
# than at 2^22.  Thread counts and results are unchanged.  OpenBLAS reads
# the variable only when it loads, so this acts only when susyrabi is
# imported before numpy (as by `python -m susyrabi.cli`).  A value already
# set wins.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "18")

__version__ = "0.1.0"
