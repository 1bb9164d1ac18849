"""Finite (2,n)-semigroups of partial n-place functions.

Concrete side: dense partial-function tables, slot compositions and
superposition, closure into function algebras, and their domain relations.
Abstract side: operation tables, composition words and their reachable
states, exact representability checking, relation predicates and closure
operators, canonical representations, and theorem-level round-trip
verifiers with independent brute-force oracles.
"""

from .algebra import (
    EMPTY,
    AbstractAlgebra,
    Violation,
    abstract_from_concrete,
    check_associativity,
    check_menger_identities,
    check_representability,
    find_zero,
    reachable_states,
)
from .bitrel import BinRelation
from .errors import CapacityError, ClosureCapError, InputError, MengerkitError
from .forge import (
    GeneratorConfig,
    enumerate_relations,
    generate_concrete,
    identity_representation,
)
from .relations import (
    build_closure,
    check_compatibility,
    check_word_system,
    is_l_cancellative,
    is_l_regular,
    is_v_negative,
    is_zero_quasi_equivalence,
    seed_relations,
)
from .represent import (
    Representation,
    Universe,
    build_universe,
    is_faithful,
    representation_relations,
    sum_over_pairs,
    sum_over_points,
    sum_representations,
    verify_homomorphism,
)
from .tables import (
    UNDEFINED,
    ConcreteAlgebra,
    PartialFunction,
    close_under_operations,
    domain_relations,
    mann_compose,
    superpose,
)
from .theorems import (
    Target,
    TheoremVerdict,
    least_quasiorder_oracle,
    roundtrip,
    verify_conditions,
    word_system_crosscheck,
)

__all__ = [
    "EMPTY",
    "AbstractAlgebra",
    "Violation",
    "abstract_from_concrete",
    "check_associativity",
    "check_menger_identities",
    "check_representability",
    "find_zero",
    "reachable_states",
    "BinRelation",
    "CapacityError",
    "ClosureCapError",
    "InputError",
    "MengerkitError",
    "GeneratorConfig",
    "enumerate_relations",
    "generate_concrete",
    "identity_representation",
    "build_closure",
    "check_compatibility",
    "check_word_system",
    "is_l_cancellative",
    "is_l_regular",
    "is_v_negative",
    "is_zero_quasi_equivalence",
    "seed_relations",
    "Representation",
    "Universe",
    "build_universe",
    "is_faithful",
    "representation_relations",
    "sum_over_pairs",
    "sum_over_points",
    "sum_representations",
    "verify_homomorphism",
    "UNDEFINED",
    "ConcreteAlgebra",
    "PartialFunction",
    "close_under_operations",
    "domain_relations",
    "mann_compose",
    "superpose",
    "Target",
    "TheoremVerdict",
    "least_quasiorder_oracle",
    "roundtrip",
    "verify_conditions",
    "word_system_crosscheck",
]
