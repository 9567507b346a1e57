"""Classify physical scenarios along the classicality hierarchy.

The package takes empirical probability tables, quantum state and
measurement sets, generalized probabilistic theories, and qubit
preparation ensembles, and settles where each sits on the ladder
Bell-local / assignment-noncontextual / ontic-expansion-noncontextual,
emitting a machine-checkable certificate for every definite verdict.
"""

from __future__ import annotations

from .classify import (
    ClassificationReport,
    LatticeViolation,
    RunConfig,
    assemble_report,
    check_implications,
    classify,
    classify_gpt,
    classify_model,
    classify_prep_ensemble,
    classify_quantum,
    hierarchy_level,
    parse_document,
    report_to_json,
)
from .embedding import (
    Gpt,
    GptError,
    embed_lp,
    embed_sharp,
    gpt_from_json,
    gpt_to_json,
    induced_model,
    make_gpt,
    prep_nc_check,
    pusey_incomplete_check,
    qubit_prep_ensemble,
    sharp_gpt_from_quantum,
    six_ensemble_statistics,
)
from .polytope import (
    CHSH_LOCAL_BOUND,
    CHSH_OPTIMAL_ANGLES,
    badziag_inequality,
    bipartite_structure,
    chsh_value,
    contextuality_to_bell,
    csw_inequality,
    kcbs_graph,
    make_behaviour,
    make_orthogonality_graph,
    membership_lp,
    singlet_behaviour,
)
from .qsl import (
    QslProgram,
    QslRunResult,
    qsl_compare,
    quantum_outcome_probs,
    run_program,
)
from .quantum import (
    KCBS_NONCONTEXTUAL_BOUND,
    kcbs_construction,
    max_entangled,
    peres_mermin_square,
    projective_context,
    pvm_from_observable,
    random_density,
    werner_state,
)
from .scenario import (
    EmpiricalModel,
    from_quantum,
    model_from_json,
    model_to_json,
    rationalize_model,
    validate_no_disturbance,
)
from .sheaf import solve_global_section

__version__ = "0.1.0"

__all__ = [
    "CHSH_LOCAL_BOUND",
    "CHSH_OPTIMAL_ANGLES",
    "ClassificationReport",
    "EmpiricalModel",
    "Gpt",
    "GptError",
    "KCBS_NONCONTEXTUAL_BOUND",
    "LatticeViolation",
    "QslProgram",
    "QslRunResult",
    "RunConfig",
    "assemble_report",
    "badziag_inequality",
    "bipartite_structure",
    "check_implications",
    "chsh_value",
    "classify",
    "classify_gpt",
    "classify_model",
    "classify_prep_ensemble",
    "classify_quantum",
    "contextuality_to_bell",
    "csw_inequality",
    "embed_lp",
    "embed_sharp",
    "from_quantum",
    "gpt_from_json",
    "gpt_to_json",
    "hierarchy_level",
    "induced_model",
    "kcbs_construction",
    "kcbs_graph",
    "make_behaviour",
    "make_gpt",
    "make_orthogonality_graph",
    "max_entangled",
    "membership_lp",
    "model_from_json",
    "model_to_json",
    "parse_document",
    "peres_mermin_square",
    "prep_nc_check",
    "projective_context",
    "pusey_incomplete_check",
    "pvm_from_observable",
    "qsl_compare",
    "quantum_outcome_probs",
    "qubit_prep_ensemble",
    "random_density",
    "rationalize_model",
    "report_to_json",
    "run_program",
    "sharp_gpt_from_quantum",
    "singlet_behaviour",
    "six_ensemble_statistics",
    "solve_global_section",
    "validate_no_disturbance",
    "werner_state",
]
