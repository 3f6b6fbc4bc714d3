"""Chemistry scoring and ensemble recommendation for collaborating LLMs.

Quantifies how strongly pairs of models influence each other's marginal
benefit on a query, from recorded performance histories alone, and picks the
subset that realises the most of that interaction potential.

Each exported name, and each submodule reached as an attribute, is imported
on first use (PEP 562), so importing one module of the package, such as
``llmchem.cli``, loads only the modules it imports itself.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Bound now, because the function shares its module's name: once anything
# imports ``llmchem.recommend``, the import system binds that module to this
# attribute unless the function holds it already.  Every CLI process loads
# the module anyway.
from .recommend import recommend

#: Module -> the names the package exports from it.
_EXPORTS = {
    "audit": ("DiversityFamily", "audit_cost_properties", "heterogeneity_diagnostic"),
    "chemistry": (
        "ChemistryTable",
        "chem_pair_bruteforce",
        "chem_table_bruteforce",
        "cheme",
        "llmcp_filter",
        "profile_chemistry",
    ),
    "complementarity": (
        "CIParams",
        "EnsemblePoint",
        "complementarity_index",
        "delta_ci_map",
        "effectiveness_soft_vote",
        "hypervolume2d",
        "pearson_r",
        "rao_entropy",
    ),
    "consensus": (
        "GradeMatrix",
        "combined_accuracy",
        "generation_accuracy",
        "review_accuracy_from_variance",
        "vancouver_consensus",
    ),
    "core": (
        "ModelProfile",
        "ModelSet",
        "benefit",
        "cost",
        "model_set_fingerprint",
        "penalty",
        "rank_outputs",
        "subset_key",
        "used_subset",
    ),
    "history": (
        "HistoryRecord",
        "build_profiles",
        "iter_history_rows",
        "parse_history_csv",
        "read_profiles",
        "write_history_csv",
        "write_profiles",
    ),
    "mig": ("CoverLookup", "build_mig"),
    "recommend": (
        "CandidatePool",
        "LossParams",
        "chem_totals",
        "exhaustive_best",
        "neighbors",
        "recommend",
        "subset_loss",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME, key=str.lower)


def __getattr__(name: str):
    """Import an exported name, or a submodule, and bind it here for later lookups."""
    if name in _HOME:
        value = getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    else:  # a submodule, such as ``llmchem.core``
        try:
            value = _import_module(f"{__name__}.{name}")
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
