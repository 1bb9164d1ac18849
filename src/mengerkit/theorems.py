"""End-to-end verifiers: condition batteries, constructive round-trips,
and brute-force oracles.

A target names which relations are prescribed (a full triplet, one of the
pairs, or a single relation).  ``verify_conditions`` runs the exact
characterization for that target; ``roundtrip`` then builds the canonical
representation the characterization promises and checks that its domain
relations reproduce the target exactly.  Round-trip inequality is reported
as a counterexample verdict, never raised: the theory says it cannot
happen, so an occurrence is an implementation defect worth archiving.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import AbstractAlgebra, Violation
from .bitrel import BinRelation
from .errors import CapacityError, InputError
from .forge import identity_representation
from .relations import (
    build_closure,
    check_compatibility,
    check_word_system,
    is_l_cancellative,
    is_l_regular,
    is_v_negative,
    is_zero_quasi_equivalence,
)
from .represent import (
    Representation,
    is_faithful,
    representation_relations,
    sum_over_pairs,
    sum_over_points,
    sum_representations,
    verify_homomorphism,
)
from .tables import ConcreteAlgebra

# target kind -> (prescribed relations, theorem id)
_TARGETS = {
    "triplet": (("chi", "gamma", "pi"), "T1"),
    "pair_chi_gamma": (("chi", "gamma"), "T1a"),
    "pair_gamma_pi": (("gamma", "pi"), "T2"),
    "pair_chi_pi": (("chi", "pi"), "T4"),
    "single_chi": (("chi",), "T5"),
    "single_gamma": (("gamma",), "T8"),
    "single_pi": (("pi",), "T6"),
}
_PLAIN_THEOREM_IDS = {"pair_gamma_pi": "T11", "single_gamma": "T12"}

TARGET_KINDS = tuple(_TARGETS)


@dataclass(frozen=True)
class Target:
    kind: str
    chi: BinRelation | None = None
    gamma: BinRelation | None = None
    pi: BinRelation | None = None

    def __post_init__(self):
        if self.kind not in _TARGETS:
            raise InputError(f"unknown target kind {self.kind!r}")
        for name in _TARGETS[self.kind][0]:
            if getattr(self, name) is None:
                raise InputError(f"target {self.kind} requires {name}")


@dataclass(frozen=True)
class ConditionResult:
    name: str
    ok: bool
    witness: Violation | None = None
    detail: str = ""


@dataclass
class ConditionsReport:
    target_kind: str
    theorem_id: str
    results: list[ConditionResult]
    derived: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def failing(self):
        return [r for r in self.results if not r.ok]


@dataclass
class TheoremVerdict:
    theorem_id: str
    target_kind: str
    flavor: str
    conditions: ConditionsReport
    roundtrip_attempted: bool = False
    equalities: list = field(default_factory=list)
    hom_violation: Violation | None = None
    faithful: dict | None = None
    representation: Representation | None = None

    @property
    def ok(self) -> bool:
        if not self.conditions.ok:
            return False
        if not self.roundtrip_attempted:
            return True
        if self.hom_violation is not None:
            return False
        if self.faithful is not None and not self.faithful["ok"]:
            return False
        return all(ok for _, ok in self.equalities)


def _closure_kind(flavor: str, with_pi: bool) -> str:
    if flavor == "menger":
        return "chi_pi" if with_pi else "chi0"
    return "chi_pi_bullet" if with_pi else "chi0_bullet"


def _chi_conditions(alg, chi, results):
    ok = chi.is_quasi_order()
    results.append(ConditionResult("chi-quasi-order", ok))
    witness = is_l_regular(chi, alg)
    results.append(ConditionResult("chi-l-regular", witness is None, witness))
    witness = is_v_negative(chi, alg)
    results.append(ConditionResult("chi-v-negative", witness is None, witness))


def _gamma_conditions(alg, gamma, results):
    witness = is_zero_quasi_equivalence(gamma, alg)
    results.append(ConditionResult("gamma-zero-quasi-equivalence",
                                   witness is None, witness))
    witness = is_l_cancellative(gamma, alg)
    results.append(ConditionResult("gamma-l-cancellative", witness is None, witness))


def _pi_closure_conditions(alg, pi, results, derived):
    results.append(ConditionResult("pi-equivalence", pi.is_equivalence()))
    witness = is_l_regular(pi, alg)
    results.append(ConditionResult("pi-l-regular", witness is None, witness))
    if not (results[-1].ok and results[-2].ok):
        results.append(ConditionResult(
            "pi-closure-antisymmetry", False,
            detail="not evaluated: pi preconditions failed"))
        return None
    closure = build_closure(alg, _closure_kind(alg.flavor, True), pi)
    derived["closure"] = closure
    ok = (closure & closure.transpose()).issubset(pi)
    results.append(ConditionResult("pi-closure-antisymmetry", ok))
    return closure


def verify_conditions(alg: AbstractAlgebra, target: Target) -> ConditionsReport:
    """Exact condition battery for the target's characterization.

    Relation sizes must match the carrier.  Closure-dependent conditions
    are evaluated only when their prerequisites hold and are reported as
    failed otherwise.
    """
    for name in ("chi", "gamma", "pi"):
        rel = getattr(target, name)
        if rel is not None and rel.size != alg.size:
            raise InputError(f"{name} size {rel.size} does not match carrier {alg.size}")
    kind = target.kind
    theorem_id = _TARGETS[kind][1]
    if alg.flavor == "plain":
        theorem_id = _PLAIN_THEOREM_IDS.get(kind, theorem_id)
    report = ConditionsReport(kind, theorem_id, [])
    results = report.results

    if kind in ("triplet", "pair_chi_gamma", "pair_chi_pi", "single_chi"):
        _chi_conditions(alg, target.chi, results)
    if kind in ("triplet", "pair_chi_gamma", "pair_gamma_pi", "single_gamma"):
        _gamma_conditions(alg, target.gamma, results)
    if kind in ("triplet", "pair_chi_pi"):
        ok = target.pi == target.chi & target.chi.transpose()
        results.append(ConditionResult("pi-is-chi-kernel", ok))
    if kind in ("triplet", "pair_chi_gamma"):
        witness = check_compatibility(target.chi, target.gamma)
        results.append(ConditionResult("compatibility", witness is None, witness))
    if kind in ("pair_gamma_pi", "single_pi"):
        closure = _pi_closure_conditions(alg, target.pi, results, report.derived)
        if kind == "pair_gamma_pi":
            if closure is None:
                results.append(ConditionResult(
                    "compatibility-closure", False,
                    detail="not evaluated: pi preconditions failed"))
            else:
                witness = check_compatibility(closure, target.gamma)
                results.append(ConditionResult("compatibility-closure",
                                               witness is None, witness))
    if kind == "single_gamma":
        closure = build_closure(alg, _closure_kind(alg.flavor, False))
        report.derived["closure"] = closure
        witness = check_compatibility(closure, target.gamma)
        results.append(ConditionResult("compatibility-least-closure",
                                       witness is None, witness))
    return report


def roundtrip(alg: AbstractAlgebra, target: Target,
              concrete: ConcreteAlgebra | None = None) -> TheoremVerdict:
    """Build the prescribed representation and compare its domain
    relations with the target, exactly.

    Attempted only when all conditions pass.  ``concrete`` supplies the
    faithful summand for the chi-pi and single-chi targets: the identity
    representation of the concrete origin is added and the sum must stay
    faithful with intersected relations.
    """
    conditions = verify_conditions(alg, target)
    verdict = TheoremVerdict(conditions.theorem_id, target.kind, alg.flavor,
                             conditions)
    if not conditions.ok:
        return verdict
    verdict.roundtrip_attempted = True
    kind = target.kind

    if kind in ("triplet", "pair_chi_gamma"):
        rep = sum_over_pairs(alg, target.chi, target.gamma)
        chi_p, gamma_p, pi_p = representation_relations(rep)
        verdict.equalities.append(("chi == chi_P", target.chi == chi_p))
        verdict.equalities.append(("gamma == gamma_P", target.gamma == gamma_p))
        if kind == "triplet":
            verdict.equalities.append(("pi == pi_P", target.pi == pi_p))
    elif kind == "pair_gamma_pi":
        closure = conditions.derived["closure"]
        rep = sum_over_pairs(alg, closure, target.gamma)
        chi_p, gamma_p, pi_p = representation_relations(rep)
        verdict.equalities.append(("gamma == gamma_P", target.gamma == gamma_p))
        verdict.equalities.append(("pi == pi_P", target.pi == pi_p))
        verdict.equalities.append(("closure == chi_P", closure == chi_p))
    elif kind == "single_gamma":
        closure = conditions.derived["closure"]
        rep = sum_over_pairs(alg, closure, target.gamma)
        chi_p, gamma_p, _ = representation_relations(rep)
        verdict.equalities.append(("gamma == gamma_P", target.gamma == gamma_p))
        verdict.equalities.append(("closure == chi_P", closure == chi_p))
    elif kind in ("pair_chi_pi", "single_chi"):
        rep = sum_over_points(alg, target.chi)
        chi_p, _, pi_p = representation_relations(rep)
        verdict.equalities.append(("chi == chi_P", target.chi == chi_p))
        if kind == "pair_chi_pi":
            verdict.equalities.append(("pi == pi_P", target.pi == pi_p))
        if concrete is not None:
            verdict.faithful = _faithful_augmentation(alg, concrete, rep)
    elif kind == "single_pi":
        closure = conditions.derived["closure"]
        rep = sum_over_points(alg, closure)
        _, _, pi_p = representation_relations(rep)
        verdict.equalities.append(("pi == pi_P", target.pi == pi_p))
    else:  # pragma: no cover
        raise InputError(f"unhandled target kind {kind!r}")

    verdict.representation = rep
    verdict.hom_violation = verify_homomorphism(rep, alg)
    return verdict


def _faithful_augmentation(alg: AbstractAlgebra, concrete: ConcreteAlgebra,
                           point_rep: Representation) -> dict:
    if len(concrete.functions) != alg.size:
        raise InputError("concrete origin size does not match carrier")
    anchor = identity_representation(concrete)
    combined = sum_representations([anchor, point_rep])
    chi_a, gamma_a, pi_a = representation_relations(anchor)
    chi_p, gamma_p, pi_p = representation_relations(point_rep)
    chi_c, gamma_c, pi_c = representation_relations(combined)
    collision = is_faithful(combined)
    return {
        "ok": collision is None
        and chi_c == chi_a & chi_p
        and gamma_c == gamma_a | gamma_p
        and pi_c == pi_a & pi_p,
        "collision": collision,
    }


def least_quasiorder_oracle(alg: AbstractAlgebra, pi: BinRelation | None = None,
                            cap: int = 4) -> BinRelation:
    """Intersection of every l-regular, v-negative quasi-order (containing
    pi when given), found by enumerating all relations on the carrier.

    Independent of the closure construction: candidates are filtered with
    the direct predicate scans, never assembled from seed relations.
    """
    m = alg.size
    if m > cap:
        raise CapacityError(f"oracle cap {cap} exceeded by carrier size {m}",
                            count=m)
    result = BinRelation.full(m)
    for candidate in alg.derived("oracle_family", lambda: _oracle_family(alg)):
        if pi is not None and not pi.issubset(candidate):
            continue
        result = result & candidate
    return result


def _oracle_family(alg: AbstractAlgebra) -> list[BinRelation]:
    """Every l-regular, v-negative quasi-order on the carrier."""
    m = alg.size
    diagonal_mask = 0
    for a in range(m):
        diagonal_mask |= 1 << (a * m + a)
    family = []
    for mask in range(1 << (m * m)):
        if mask & diagonal_mask != diagonal_mask:
            continue
        rows = tuple((mask >> (a * m)) & ((1 << m) - 1) for a in range(m))
        candidate = BinRelation(m, rows)
        if not candidate.is_transitive():
            continue
        if is_l_regular(candidate, alg) is not None:
            continue
        if is_v_negative(candidate, alg) is not None:
            continue
        family.append(candidate)
    return family


def word_system_crosscheck(alg: AbstractAlgebra, pi: BinRelation | None,
                           gamma: BinRelation | None, n_bound: int = 4,
                           m_bound: int = 4) -> dict:
    """Truncated chain systems against the exact closure conditions.

    For each applicable system the exact condition passing forces the
    truncated system to pass at every bounded depth, and a truncated
    failure forces an exact failure.  Any divergence flags an
    implementation bug.
    """
    if n_bound < 1 or m_bound < 1:
        raise InputError(f"word-system bounds must be at least 1, got {n_bound},{m_bound}")
    plain = alg.flavor == "plain"
    suffix = "_bullet" if plain else ""
    report = {"systems": {}, "divergence": False}

    def record(name, exact_ok, truncated):
        truncated_ok = truncated is None
        consistent = truncated_ok or not exact_ok
        report["systems"][name] = {
            "exact": exact_ok,
            "truncated": truncated_ok,
            "consistent": consistent,
            "violation": truncated,
        }
        if not consistent:
            report["divergence"] = True

    if pi is not None:
        closure = build_closure(alg, _closure_kind(alg.flavor, True), pi)
        exact_a = (closure & closure.transpose()).issubset(pi)
        record("A" + suffix, exact_a,
               check_word_system(alg, "A" + suffix, n_bound, m_bound, pi=pi))
        if gamma is not None:
            exact_b = check_compatibility(closure, gamma) is None
            record("B" + suffix, exact_b,
                   check_word_system(alg, "B" + suffix, n_bound, m_bound,
                                     pi=pi, gamma=gamma))
    if gamma is not None:
        least = build_closure(alg, _closure_kind(alg.flavor, False))
        exact_c = check_compatibility(least, gamma) is None
        record("C" + suffix, exact_c,
               check_word_system(alg, "C" + suffix, n_bound, m_bound, gamma=gamma))
    return report
