"""Federated averaging Langevin dynamics: simulation, bounds, privacy accounting."""

import os as _os

# d x d matrices gain nothing from a threaded BLAS; the worker pool is the one level of parallelism
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    _os.environ.setdefault(_var, "1")

from .engine import (
    ChainDivergenceError,
    DecayingStep,
    FixedStep,
    FullDevice,
    RunConfig,
    SchemeI,
    SchemeII,
    run_replicated,
)
from .metrics import GaussianSummary, classification_metrics, empirical_summary, w2_gaussian_parts
from .model import (
    EnergyConstants,
    FederatedDataset,
    GaussianModelSpec,
    LogisticModelSpec,
    client_grads,
    constants,
    gen_gaussian_federation,
    gen_logistic_federation,
    target_posterior,
)
from .privacy import DpBudget, DpParams, account_report, budget_search
from .theory import BoundInputs, bound_decaying, bound_full_fixed, bound_partial, optimal_local_steps, plan_steps

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
