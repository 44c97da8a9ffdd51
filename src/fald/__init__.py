"""Federated averaging Langevin dynamics: simulation, bounds, privacy accounting.

The exports below resolve on first access (PEP 562), so ``import fald`` loads
no submodule and each command loads only the modules it runs.
"""

import os as _os

# d x d matrices gain nothing from a threaded BLAS; the worker pool is the one level of parallelism
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    _os.environ.setdefault(_var, "1")

# submodule -> the names it exports here
_EXPORTS = {
    "engine": (
        "ChainDivergenceError",
        "DecayingStep",
        "FixedStep",
        "FullDevice",
        "RunConfig",
        "SchemeI",
        "SchemeII",
        "run_replicated",
    ),
    "metrics": ("GaussianSummary", "classification_metrics", "empirical_summary", "w2_gaussian_parts"),
    "model": (
        "EnergyConstants",
        "FederatedDataset",
        "GaussianModelSpec",
        "LogisticModelSpec",
        "client_grads",
        "constants",
        "gen_gaussian_federation",
        "gen_logistic_federation",
        "target_posterior",
    ),
    "privacy": ("DpBudget", "DpParams", "account_report", "budget_search"),
    "streams": (),
    "theory": ("BoundInputs", "bound_decaying", "bound_full_fixed", "bound_partial", "optimal_local_steps", "plan_steps"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        from importlib import import_module

        return import_module(f"{__name__}.{name}")  # the import binds it here
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(__getattr__(_HOME[name]), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
