"""Quantum Rabi model with A^2 term: SUSY breaking, spectral flows,
mass enhancement.

Importing the package before numpy sets OPENBLAS_THREAD_TIMEOUT to 22
unless it is already set, so idle OpenBLAS workers stop spinning
against the solver after about 2 ms (see README, "Threading").

The tests' dense 2N x 2N oracle is susyrabi.dense, which no module here
imports, so importing the package or the CLI never loads it.
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

from .fock import FockParams
from .model import (
    ModelParams, Schedule, SuperchargeSet, charge_pairs, mass_increment, renormalized_frequency,
)
from .spectral import (
    AlgebraReport, ConvergenceReport, FlowResult, SpectrumTable, WittenReport,
    degeneracy_groups, goldstino_check, graded_levels, limit_check, lowest_k,
    no_go_asymptote_check, pair_algebra_report, spectral_flow_g, spectral_flow_r,
    truncation_convergence, witten_index,
)
from .transforms import (
    TransformReport, displacement, field_identity_report, polaron_equivalence_report,
    squeeze, u_a2_with_report,
)

__version__ = "0.1.0"
