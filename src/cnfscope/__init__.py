"""Structural analysis of CNF formulas as graphs: fractal dimension by greedy
box covering, power-law exponent of variable occurrences, community
modularity, and feature-based family classification / portfolio simulation.
"""

from .cnf import (
    ClauseTrace,
    CnfFormula,
    DimacsError,
    PropagationConflict,
    TraceError,
    augment_with_learnt,
    parse_dimacs,
    parse_trace,
    random_3cnf,
    random_replacement,
    read_input,
    unit_propagate,
    write_dimacs,
    write_trace,
)
from .community import (
    ModularityResult,
    Partition,
    fold_communities,
    modularity,
)
from .features import (
    FEATURE_NAMES,
    FeatureConfig,
    FeatureMatrix,
    FeatureRow,
    FeatureVector,
    extract_features,
    matrix_from_csv,
    normalize,
)
from .fractal import (
    CoverCurve,
    DimensionFit,
    cover_curve,
    fit_dimension,
    greedy_cover_count,
)
from .graph import (
    Graph,
    build_cig,
    build_cvig,
    build_vig,
    connected_components,
)
from .portfolio import (
    ClassificationReport,
    DecisionTree,
    RuntimeMatrix,
    SimulationReport,
    knn_loo_classify,
    loo_classify,
    loo_portfolio_sim,
    predict_runtime,
    select_solver,
    train_tree,
)
from .scalefree import (
    AlphaFit,
    OccurrenceHistogram,
    fit_alpha,
    occurrence_histogram,
)

__version__ = "0.1.0"
