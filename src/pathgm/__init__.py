"""Optimal path and tree structure learning over discrete data.

The package scores directed structures with decomposable criteria (maximum
likelihood, a description-length penalty, or a uniform-prior marginal
likelihood), learns the optimal tree or path structure for a dataset, and
ships a generator that encodes Hamiltonian-path instances as path-learning
problems together with a verifier and an end-to-end decision procedure.
"""

__version__ = "0.1.0"

from .dataset import (
    DiscreteDataset,
    SufficientStats,
    compute_stats,
    load_dataset,
    write_dataset,
)
from .errors import (
    DatasetFormatError,
    FormatError,
    GraphFormatError,
    InstanceTooSmallError,
    InvalidQueryError,
    InvalidStructureError,
    PathgmError,
    ReductionMismatchError,
    SolverLimitError,
    UndefinedScoreError,
)
from .path_learn import (
    PathSearchResult,
    path_score,
    solve_path_exact,
    solve_path_heuristic,
)
from .reduction import (
    EDGE_BLOCK,
    NONEDGE_BLOCK,
    ConditionCheck,
    HpDecision,
    ReductionConstants,
    ReductionReport,
    decide_hp,
    expected_pair_table,
    generate_reduction,
    verify_reduction,
)
from .scoring import (
    Criterion,
    ScoreValue,
    local_score,
    local_score_bayes,
    local_score_mdl,
    local_score_ml,
    score_structure,
)
from .structures import (
    Branching,
    HpInstance,
    PathStructure,
    brute_force_hp,
    is_hamiltonian_path,
    load_graph,
    path_from_parent_map,
    write_graph,
)
from .tree_learn import (
    WeightMatrix,
    build_weights,
    learn_optimal_branching,
    learn_optimal_spanning_tree,
)

__all__ = [
    "__version__",
    "Branching",
    "ConditionCheck",
    "Criterion",
    "EDGE_BLOCK",
    "NONEDGE_BLOCK",
    "DatasetFormatError",
    "DiscreteDataset",
    "FormatError",
    "GraphFormatError",
    "HpDecision",
    "HpInstance",
    "InstanceTooSmallError",
    "InvalidQueryError",
    "InvalidStructureError",
    "PathSearchResult",
    "PathStructure",
    "PathgmError",
    "ReductionConstants",
    "ReductionMismatchError",
    "ReductionReport",
    "ScoreValue",
    "SolverLimitError",
    "SufficientStats",
    "UndefinedScoreError",
    "WeightMatrix",
    "brute_force_hp",
    "build_weights",
    "compute_stats",
    "decide_hp",
    "expected_pair_table",
    "generate_reduction",
    "is_hamiltonian_path",
    "learn_optimal_branching",
    "learn_optimal_spanning_tree",
    "load_dataset",
    "load_graph",
    "local_score",
    "local_score_bayes",
    "local_score_mdl",
    "local_score_ml",
    "path_from_parent_map",
    "path_score",
    "score_structure",
    "solve_path_exact",
    "solve_path_heuristic",
    "verify_reduction",
    "write_dataset",
    "write_graph",
]
