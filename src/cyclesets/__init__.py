"""Finite cycle sets and involutive set-theoretic Yang-Baxter solutions.

Construction, validation, retraction analysis, solution conversion,
isomorphism testing, exhaustive enumeration and classification for finite
cycle sets, with an independent brute-force oracle cross-checking the
parameterized classification routes.
"""

from types import ModuleType as _ModuleType

from .classify import (
    AUTO_CROSS_CHECK_MAX,
    ClassEntry,
    ClassificationReport,
    classify_cyclic_prime_power,
    classify_pq,
    dedupe_by_isomorphism,
    enumerate_specs,
    group_type_of,
)
from .construct import (
    CyclicBuildSpec,
    build_elementary_abelian,
    build_p2_level2,
    build_prime_power,
    compatible_bijections,
    exponent_symmetry_check,
    extract_spec,
    phi_injectivity_check,
    sigma_exponents,
    trivial_cycle_set,
    validate_spec,
)
from .cycleset import (
    CycleSet,
    RetractionStep,
    Solution,
    are_isomorphic,
    f_invariant,
    find_violations,
    from_solution,
    is_indecomposable,
    is_nondegenerate,
    is_square_free,
    mpl,
    permutation_group,
    relabel,
    retract,
    retraction_tower,
    retraction_tower_sizes,
    squaring_map,
    to_solution,
    validate,
    validate_solution,
)
from .errors import (
    BudgetExceeded,
    CycleSetError,
    FormatError,
    HypothesesError,
    InvalidCycleSet,
    OracleDisagreement,
    RetractionError,
    SolutionError,
    SpecError,
    TableError,
)
from .oracle import SearchConfig, abelian_templates, brute_force_enumerate
from .perm import (
    PermGroup,
    Permutation,
    discrete_log,
    format_cycles,
    generate_group,
    is_abelian,
    is_cyclic,
    is_transitive,
    parse_permutation,
)

# the imported names, not the submodules that importing them bound
__all__ = [
    name for name in dir()
    if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)
]
