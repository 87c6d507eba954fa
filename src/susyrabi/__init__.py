"""Quantum Rabi model with A^2 term: SUSY breaking, spectral flows,
mass enhancement.

Importing the package before numpy sets OPENBLAS_THREAD_TIMEOUT to 22
unless it is already set, so idle OpenBLAS workers stop spinning
against the solver after about 2 ms (see README, "Threading").

The package root exports nothing else: callers import the submodules
(susyrabi.cli, susyrabi.spectral, ...), which hold only what a command
runs.
"""

import os

# OpenBLAS workers busy-wait 2^THREAD_TIMEOUT TSC cycles (default 2^28,
# about 0.1 s) after each threaded call before they sleep; on few cores they
# take the CPU from the main thread.  2^22 cycles (about 2 ms) still spans
# the gaps between the BLAS calls inside one LAPACK routine, so a large
# solve does not pay a wake-up per call, as it does at OpenBLAS's minimum 4.
# Thread counts and results are unchanged.  OpenBLAS reads the variable only
# when it loads, so this acts only when susyrabi is imported before numpy
# (as by `python -m susyrabi.cli`).  A value already set wins.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "22")

__version__ = "0.1.0"
