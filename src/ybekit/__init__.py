"""
ybekit: involutive non-degenerate set-theoretic Yang-Baxter solutions on
finite sets -- validation, permutation-group analysis, the left-brace
structure on the permutation group, exhaustive isomorph-free enumeration,
and the classification of primitive solutions at small sizes.
"""

# Defined before the submodule imports, which import it from the package.
__version__ = "0.1.0"

from .braces import (
    FiniteBrace,
    SylowDecomposition,
    additive_identities_check,
    associated_solution,
    brace_from_solution,
    check_brace_axiom,
    decomp_check,
    is_trivial_brace,
    permutational_isomorphism_check,
    socle,
    socle_is_ideal,
    sylow_decomposition,
)
from .catalog import CatalogRecord, read_catalog, write_catalog
from .enumeration import (
    ClassificationReport,
    analyze,
    classify_primitive,
    fast_enumerate,
    oracle_enumerate,
)
from .errors import (
    BudgetExceededError,
    ConstructionError,
    InvalidSolutionError,
    ClassificationShapeError,
    YbekitError,
)
from .permgroup import BlockSystem, PermGroup
from .perms import Perm, compose, cycle_type, cycles, from_cycles, identity, inverse
from .solutions import (
    SigmaClassPartition,
    Solution,
    ValidationReport,
    canonical_form,
    gamma,
    gamma_table,
    is_indecomposable,
    is_irretractable,
    is_isomorphic,
    multipermutation_level,
    relabel,
    retract,
    sigma_class_blocks,
    solution_group,
    validate,
)
