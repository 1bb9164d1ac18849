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
from .forge import enumerate_relations, identity_representation
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

# target kind -> (prescribed relations, menger theorem id, plain theorem id);
# every condition and round-trip step follows from the prescribed relations
_TARGETS = {
    "triplet": (("chi", "gamma", "pi"), "T1", "T1"),
    "pair_chi_gamma": (("chi", "gamma"), "T1a", "T1a"),
    "pair_gamma_pi": (("gamma", "pi"), "T2", "T11"),
    "pair_chi_pi": (("chi", "pi"), "T4", "T4"),
    "single_chi": (("chi",), "T5", "T5"),
    "single_gamma": (("gamma",), "T8", "T12"),
    "single_pi": (("pi",), "T6", "T6"),
}
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


_NOT_EVALUATED = "not evaluated: pi preconditions failed"


def _pi_closure_conditions(alg, pi, results):
    results.append(ConditionResult("pi-equivalence", pi.is_equivalence()))
    witness = is_l_regular(pi, alg)
    results.append(ConditionResult("pi-l-regular", witness is None, witness))
    if not (results[-1].ok and results[-2].ok):
        results.append(ConditionResult("pi-closure-antisymmetry", False,
                                       detail=_NOT_EVALUATED))
        return None
    closure = build_closure(alg, _closure_kind(alg.flavor, True), pi)
    ok = (closure & closure.transpose()).issubset(pi)
    results.append(ConditionResult("pi-closure-antisymmetry", ok))
    return closure


def _prescribed(target: Target):
    """(chi, gamma, pi) of the target, None where its kind does not
    prescribe the relation (a relation given anyway is ignored)."""
    names = _TARGETS[target.kind][0]
    return tuple(getattr(target, name) if name in names else None
                 for name in ("chi", "gamma", "pi"))


def verify_conditions(alg: AbstractAlgebra, target: Target) -> ConditionsReport:
    """Exact condition battery for the target's characterization.

    The conditions follow from which relations the target prescribes:
    chi brings the quasi-order conditions and gamma the zero
    quasi-equivalence ones.  pi with chi must be chi's kernel; pi without
    chi must be an l-regular equivalence whose closure is antisymmetric
    over it.  gamma must be compatible with the anchor order: chi, else the
    pi closure, else the least closure (kept in ``derived["closure"]``).

    Relation sizes must match the carrier.  Closure-dependent conditions
    are evaluated only when their prerequisites hold and are reported as
    failed otherwise.
    """
    for name in ("chi", "gamma", "pi"):
        rel = getattr(target, name)
        if rel is not None and rel.size != alg.size:
            raise InputError(f"{name} size {rel.size} does not match carrier {alg.size}")
    _, menger_id, plain_id = _TARGETS[target.kind]
    report = ConditionsReport(target.kind, menger_id if alg.flavor == "menger"
                              else plain_id, [])
    results = report.results
    chi, gamma, pi = _prescribed(target)

    if chi is not None:
        _chi_conditions(alg, chi, results)
    if gamma is not None:
        _gamma_conditions(alg, gamma, results)
    closure = None
    if pi is not None and chi is not None:
        results.append(ConditionResult("pi-is-chi-kernel", pi == chi & chi.transpose()))
    elif pi is not None:
        closure = _pi_closure_conditions(alg, pi, results)
    if gamma is not None:
        if chi is not None:
            name, anchor = "compatibility", chi
        elif pi is not None:
            name, anchor = "compatibility-closure", closure
        else:
            name = "compatibility-least-closure"
            anchor = closure = build_closure(alg, _closure_kind(alg.flavor, False))
        if anchor is None:
            results.append(ConditionResult(name, False, detail=_NOT_EVALUATED))
        else:
            witness = check_compatibility(anchor, gamma)
            results.append(ConditionResult(name, witness is None, witness))
    if closure is not None:
        report.derived["closure"] = closure
    return report


def roundtrip(alg: AbstractAlgebra, target: Target,
              concrete: ConcreteAlgebra | None = None) -> TheoremVerdict:
    """Build the prescribed representation and compare its domain
    relations with the target, exactly.

    Attempted only when all conditions pass.  The representation is a sum
    over gamma's pairs when gamma is prescribed, else over the carrier,
    anchored in chi or, without chi, in the closure.  Each prescribed
    relation must equal its realized one, and without chi the closure
    must equal the realized chi as well.  With chi and without gamma,
    ``concrete`` supplies the faithful summand: the identity
    representation of the concrete origin is added and the sum must stay
    faithful with intersected relations.

    The representation, its relations and its homomorphism verdict are
    kept with the algebra under ("roundtrip", anchor, gamma or None), and
    the faithful check under ("faithful", concrete, anchor): verdicts with
    one key share one Representation, which nothing writes to.
    """
    conditions = verify_conditions(alg, target)
    verdict = TheoremVerdict(conditions.theorem_id, target.kind, alg.flavor,
                             conditions)
    if not conditions.ok:
        return verdict
    verdict.roundtrip_attempted = True
    chi, gamma, pi = _prescribed(target)
    anchor = conditions.derived["closure"] if chi is None else chi

    def stage():
        rep = (sum_over_points(alg, anchor) if gamma is None
               else sum_over_pairs(alg, anchor, gamma))
        return rep, representation_relations(rep), verify_homomorphism(rep, alg)

    rep, realized, verdict.hom_violation = alg.derived(("roundtrip", anchor, gamma), stage)
    for name, rel, rel_p in zip(("chi", "gamma", "pi"), (chi, gamma, pi), realized):
        if rel is not None:
            verdict.equalities.append((f"{name} == {name}_P", rel == rel_p))
    if gamma is not None and chi is None:
        verdict.equalities.append(("closure == chi_P", anchor == realized[0]))
    if chi is not None and gamma is None and concrete is not None:
        verdict.faithful = alg.derived(("faithful", concrete, anchor), lambda: (
            _faithful_augmentation(alg, concrete, rep, realized)))
    verdict.representation = rep
    return verdict


def _faithful_augmentation(alg: AbstractAlgebra, concrete: ConcreteAlgebra,
                           point_rep: Representation, point_relations) -> dict:
    if len(concrete.functions) != alg.size:
        raise InputError("concrete origin size does not match carrier")

    def identity():  # the faithful summand, kept with the concrete algebra
        anchor = identity_representation(concrete)
        return anchor, representation_relations(anchor)

    anchor, (chi_a, gamma_a, pi_a) = concrete.derived("identity", identity)
    combined = sum_representations([anchor, point_rep])
    chi_p, gamma_p, pi_p = point_relations
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
    return [candidate for candidate in enumerate_relations(alg.size, "quasi_orders")
            if is_l_regular(candidate, alg) is None and is_v_negative(candidate, alg) is None]


def word_system_crosscheck(alg: AbstractAlgebra, pi: BinRelation | None,
                           gamma: BinRelation | None, n_bound: int = 4,
                           m_bound: int = 4) -> dict:
    """Truncated chain systems against the exact closure conditions.

    For each applicable system the exact condition passing forces the
    truncated system to pass at every bounded depth, and a truncated
    failure forces an exact failure.  Any divergence flags an
    implementation bug.  The A and B systems are judged against pi's
    closure, which build_closure refuses unless pi is an l-regular
    equivalence; for another pi they are left out.
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

    closure = None
    if pi is not None:
        try:
            closure = build_closure(alg, _closure_kind(alg.flavor, True), pi)
        except InputError:
            if pi.size != alg.size:
                raise
    if closure is not None:
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
