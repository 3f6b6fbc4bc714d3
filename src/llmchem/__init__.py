"""Chemistry scoring and ensemble recommendation for collaborating LLMs.

Quantifies how strongly pairs of models influence each other's marginal
benefit on a query, from recorded performance histories alone, and picks the
subset that realises the most of that interaction potential.
"""

__version__ = "0.1.0"

from .chemistry import (
    ChemistryTable,
    DiversityFamily,
    chem_pair_bruteforce,
    chem_table_bruteforce,
    cheme,
    heterogeneity_diagnostic,
    llmcp_filter,
)
from .complementarity import (
    CIParams,
    EnsemblePoint,
    complementarity_index,
    delta_ci_map,
    effectiveness_soft_vote,
    hypervolume2d,
    pearson_r,
    rao_entropy,
)
from .consensus import (
    GradeMatrix,
    combined_accuracy,
    generation_accuracy,
    review_accuracy_from_variance,
    vancouver_consensus,
)
from .core import (
    ModelProfile,
    ModelSet,
    audit_cost_properties,
    benefit,
    cost,
    model_set_fingerprint,
    penalty,
    rank_outputs,
    used_subset,
)
from .history import (
    HistoryRecord,
    build_profiles,
    iter_history_rows,
    parse_history_csv,
    read_profiles,
    write_history_csv,
    write_profiles,
)
from .mig import CoverLookup, build_mig, subset_key
from .recommend import (
    CandidatePool,
    LossParams,
    chem_totals,
    exhaustive_best,
    neighbors,
    recommend,
    subset_loss,
)

__all__ = [
    "CandidatePool",
    "ChemistryTable",
    "CIParams",
    "CoverLookup",
    "DiversityFamily",
    "EnsemblePoint",
    "GradeMatrix",
    "HistoryRecord",
    "LossParams",
    "ModelProfile",
    "ModelSet",
    "audit_cost_properties",
    "benefit",
    "build_mig",
    "build_profiles",
    "chem_pair_bruteforce",
    "chem_table_bruteforce",
    "chem_totals",
    "cheme",
    "combined_accuracy",
    "complementarity_index",
    "cost",
    "delta_ci_map",
    "effectiveness_soft_vote",
    "exhaustive_best",
    "generation_accuracy",
    "heterogeneity_diagnostic",
    "hypervolume2d",
    "iter_history_rows",
    "llmcp_filter",
    "model_set_fingerprint",
    "neighbors",
    "parse_history_csv",
    "pearson_r",
    "penalty",
    "rank_outputs",
    "rao_entropy",
    "read_profiles",
    "recommend",
    "review_accuracy_from_variance",
    "subset_key",
    "subset_loss",
    "used_subset",
    "vancouver_consensus",
    "write_history_csv",
    "write_profiles",
]
