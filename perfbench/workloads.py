"""The operations of each workload and the checks on their outputs.

An operation is one timed call sequence into mengerkit's public API.  Its
check runs afterwards, outside the timed region, and compares the outputs
with ``oracle`` or with properties the method must have: every forge
algebra is a closed set of partial functions, so its own domain relations
pass every condition and every round-trip.  A check returns a list of
problems; an empty list means the output is right.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

import mengerkit as mk
import mengerkit.cli  # noqa: F401  (the hostile operations call mk.cli.main)
import mengerkit.fileio  # noqa: F401
import make_inputs
import oracle

TARGET_KINDS = ("triplet", "pair_chi_gamma", "pair_gamma_pi", "pair_chi_pi",
                "single_chi", "single_gamma", "single_pi")
# the relations a target prescribes; its representation must realize each
# of them exactly (the closure stands in for chi where chi is not given)
NEEDS = {
    "triplet": ("chi", "gamma", "pi"), "pair_chi_gamma": ("chi", "gamma"),
    "pair_gamma_pi": ("gamma", "pi"), "pair_chi_pi": ("chi", "pi"),
    "single_chi": ("chi",), "single_gamma": ("gamma",), "single_pi": ("pi",),
}
FAITHFUL_KINDS = ("pair_chi_pi", "single_chi")
EQUATIONS = 32  # homomorphism equations sampled per representation
BOUNDS = (4, 4)  # word-system cross-check depths


FAILED = "failed"  # a check's answer for an operation that shows a known fault


@dataclass
class Op:
    """``check(run())`` is a list of problems, or FAILED."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], object]


class Instance:
    """One algebra's files plus the oracle's view of them."""

    def __init__(self, root: str, entry: dict):
        self.name = entry["name"]
        self.entry = entry
        self.paths = {k: os.path.join(root, entry[k])
                      for k in ("algebra", "chi", "gamma", "pi")}
        with open(self.paths["algebra"], encoding="utf-8") as handle:
            self.table = oracle.function_table(json.load(handle)["functions"])
        self.tables = oracle.Tables(self.table, entry["n"], entry["base"],
                                    entry["flavor"] == "menger")
        self.rels = dict(zip(("chi", "gamma", "pi"), oracle.domain_relations(self.table)))

    def load(self):
        conc = mk.fileio.load_algebra(self.paths["algebra"])
        rels = {k: mk.fileio.load_relation(self.paths[k]) for k in ("chi", "gamma", "pi")}
        return conc, rels, mk.abstract_from_concrete(conc)

    def loaded_problems(self, rels, alg) -> list:
        problems = []
        if not self.tables.matches(alg):
            problems.append("abstraction differs from the oracle's operation tables")
        for k, rel in rels.items():
            if not np.array_equal(oracle.to_bool(rel), self.rels[k]):
                problems.append(f"loaded {k} differs from the file")
        return problems


def target(kind: str, rels: dict):
    return mk.Target(kind, **{k: rels[k] for k in NEEDS[kind]})


def bin_relation(r: np.ndarray):
    rows = tuple(int(sum(1 << int(b) for b in np.flatnonzero(row))) for row in r)
    return mk.BinRelation(r.shape[0], rows)


# -- checks ------------------------------------------------------------


def condition_problems(label: str, results, decided: dict, all_pass: bool) -> list:
    """Each condition the oracle decides must get the oracle's verdict; on
    unperturbed inputs every condition must pass."""
    reported = {r.name: r.ok for r in results}
    problems = [f"{label}: {name} reported {reported.get(name)}, oracle says {ok}"
                for name, ok in decided.items() if reported.get(name) != ok]
    if all_pass:
        problems += [f"{label}: {name} failed on a realized relation"
                     for name, ok in reported.items() if not ok]
    return problems


def verdict_problems(inst: Instance, verdict, eq_seed: str) -> list:
    kind = verdict.target_kind
    label = f"{inst.name}/{kind}"
    problems = condition_problems(label, verdict.conditions.results,
                                  oracle.decidable(kind, inst.rels, inst.tables), True)
    if not verdict.roundtrip_attempted:
        return problems + [f"{label}: round-trip not attempted"]
    problems += [f"{label}: round-trip {name} failed"
                 for name, ok in verdict.equalities if not ok]
    if verdict.hom_violation is not None:
        problems.append(f"{label}: homomorphism violation {verdict.hom_violation}")
    if kind in FAITHFUL_KINDS and not (verdict.faithful and verdict.faithful["ok"]):
        problems.append(f"{label}: faithful augmentation failed")
    rep = verdict.representation
    built = dict(zip(("chi", "gamma", "pi"), oracle.representation_relations(rep)))
    problems += [f"{label}: representation's {k} differs from the target"
                 for k in NEEDS[kind] if not np.array_equal(built[k], inst.rels[k])]
    eqs = oracle.draw_equations(rep, inst.tables, eq_seed, EQUATIONS)
    bad = oracle.failed_equations(rep, inst.tables, eqs)
    if bad:
        problems.append(f"{label}: {len(bad)} sampled homomorphism equations fail, "
                        f"first {bad[0]}")
    return problems


def crosscheck_problems(label: str, report) -> list:
    problems = [] if not report["divergence"] else [f"{label}: word systems diverge"]
    for name, entry in report["systems"].items():
        if not (entry["exact"] and entry["truncated"] and entry["consistent"]):
            problems.append(f"{label}: word system {name} failed on realized relations")
    return problems


def selftest_verdict(inst: Instance, verdict, eq_seed: str) -> list:
    """The checks must flag a flipped verdict and a corrupted cell."""
    out = []
    flipped = copy.copy(verdict)
    name, ok = verdict.equalities[0]
    flipped.equalities = [(name, not ok)] + list(verdict.equalities[1:])
    if not verdict_problems(inst, flipped, eq_seed):
        out.append("self-test: a flipped round-trip verdict went unflagged")
    rep = verdict.representation
    eqs = oracle.draw_equations(rep, inst.tables, eq_seed, EQUATIONS)
    for eq in eqs:
        if eq[0] != "slot":
            continue
        k, slot, g1, g2, p = eq[1:]
        head = int(inst.tables.mann[slot][g1, g2])
        assign = rep.parts[k].assign.copy()
        assign[head, p] = -1 if assign[head, p] >= 0 else 0
        parts = list(rep.parts)
        parts[k] = mk.represent.ReprPart(parts[k].universe, assign, parts[k].labels)
        corrupted = mk.represent.Representation(rep.size, parts)
        sides = oracle.equation_sides(corrupted, inst.tables, eq, {})
        if sides[0] == sides[1]:
            continue  # the right side reads the corrupted cell too
        broken = copy.copy(verdict)
        broken.representation = corrupted
        if not verdict_problems(inst, broken, eq_seed):
            out.append("self-test: a corrupted assignment cell went unflagged")
        return out
    return out + ["self-test: no slot equation to corrupt"]


# -- battery and scale -----------------------------------------------------


def roundtrip_op(inst: Instance, kinds, crosscheck: bool, seed: int,
                 selftest: bool) -> Op:
    def run():
        conc, rels, alg = inst.load()
        laws = [mk.check_associativity(alg)]
        if alg.flavor == "menger":
            laws.append(mk.check_menger_identities(alg))
        laws.append(mk.check_representability(alg))
        verdicts = [mk.roundtrip(alg, target(kind, rels), concrete=conc) for kind in kinds]
        cross = (mk.word_system_crosscheck(alg, rels["pi"], rels["gamma"], *BOUNDS)
                 if crosscheck else None)
        return rels, alg, laws, verdicts, cross

    def check(result):
        rels, alg, laws, verdicts, cross = result
        problems = inst.loaded_problems(rels, alg)
        problems += [f"{inst.name}: law {v.law} fails at {v.witness}"
                     for v in laws if v is not None]
        for verdict in verdicts:
            problems += verdict_problems(
                inst, verdict, f"{seed}:{inst.name}:{verdict.target_kind}")
        if cross is not None:
            problems += crosscheck_problems(inst.name, cross)
        if selftest:
            verdict = verdicts[0]
            problems += selftest_verdict(
                inst, verdict, f"{seed}:{inst.name}:{verdict.target_kind}")
        return problems

    return Op(inst.name, run, check)


def hostile_op(root: str, spec: dict) -> Op:
    """One CLI call on a malformed or non-semigroup input.  It fails while
    the named fault shows; the mended behaviour is an exit code in the
    spec's ``mended`` list."""
    argv = [a if not a.endswith(".json") else os.path.join(root, a) for a in spec["argv"]]

    def run():
        out, err = io.StringIO(), io.StringIO()
        raised, code = None, None
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = mk.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # the fault under watch escapes cli.main
            raised = type(exc).__name__
        return code, out.getvalue(), raised

    def check(result):
        code, stdout, raised = result
        fault = spec["fault"]
        if fault == "pass" and code == 0 and "PASS" in stdout and raised is None:
            return FAILED
        if fault == "TypeError" and raised == "TypeError":
            return FAILED
        if raised is None and code in spec["mended"]:
            return []
        return [f"hostile {spec['name']}: unexpected outcome code={code} raised={raised}"]

    return Op("hostile:" + spec["name"], run, check)


# -- queries -----------------------------------------------------------


def query_ops(root: str, inst: Instance, selftest: bool) -> list:
    ctx = {}
    ops = []

    def load():
        conc, rels, alg = inst.load()
        space = alg.states()
        ctx.update(rels=rels, alg=alg)
        return rels, alg, space

    def check_load(result):
        rels, alg, space = result
        problems = inst.loaded_problems(rels, alg)
        if not space.states:
            problems.append(f"{inst.name}: no reachable word states")
        return problems

    ops.append(Op(f"{inst.name}:load", load, check_load))

    for kind in TARGET_KINDS:
        def run(kind=kind):
            return mk.verify_conditions(ctx["alg"], target(kind, ctx["rels"]))

        def check(report, kind=kind):
            return condition_problems(f"{inst.name}/{kind}", report.results,
                                      oracle.decidable(kind, inst.rels, inst.tables), True)

        ops.append(Op(f"{inst.name}:conditions:{kind}", run, check))

    kinds = ["chi_pi_bullet", "chi0_bullet"]
    if inst.tables.menger:
        kinds = ["chi_pi", "chi0"] + kinds
    for kind in kinds:
        with_pi = kind.startswith("chi_pi")

        def run(kind=kind, with_pi=with_pi):
            return mk.build_closure(ctx["alg"], kind, ctx["rels"]["pi"] if with_pi else None)

        def check(closure, kind=kind, with_pi=with_pi):
            r = oracle.to_bool(closure)
            label = f"{inst.name}/{kind}"
            problems = []
            if not oracle.is_quasi_order(r):
                problems.append(f"{label}: closure is not a quasi-order")
            if with_pi and (inst.rels["pi"] & ~r).any():
                problems.append(f"{label}: closure misses a pair of pi")
            if (r & ~inst.rels["chi"]).any():
                problems.append(f"{label}: closure leaves the realized chi")
            if not oracle.is_l_regular(r, inst.tables, not kind.endswith("bullet")):
                problems.append(f"{label}: closure is not l-regular")
            return problems

        ops.append(Op(f"{inst.name}:closure:{kind}", run, check))

    def cross():
        rels = ctx["rels"]
        return mk.word_system_crosscheck(ctx["alg"], rels["pi"], rels["gamma"], *BOUNDS)

    ops.append(Op(f"{inst.name}:word-systems", cross,
                  lambda report: crosscheck_problems(inst.name, report)))

    first_break = selftest
    for i, spec in enumerate(inst.entry["perturbations"]):
        which = spec["relation"]
        with open(os.path.join(root, spec["file"]), encoding="utf-8") as handle:
            r = np.array(json.load(handle)["matrix"], dtype=bool)
        perturbed = dict(inst.rels)
        perturbed[which] = r
        kind = make_inputs.PERTURB_TARGET[which]
        decided = oracle.decidable(kind, perturbed, inst.tables)
        relation = bin_relation(r)
        selftest_here = first_break and not all(decided.values())
        first_break = first_break and not selftest_here

        def run(which=which, relation=relation, kind=kind):
            rels = dict(ctx["rels"])
            rels[which] = relation
            return mk.verify_conditions(ctx["alg"], target(kind, rels))

        def check(report, decided=decided, label=f"{inst.name}/{which}{i}",
                  selftest_here=selftest_here):
            problems = condition_problems(label, report.results, decided, False)
            if selftest_here:
                name = next(n for n, ok in decided.items() if not ok)
                lied = [replace(c, ok=True) if c.name == name else c for c in report.results]
                if not condition_problems(label, lied, decided, False):
                    problems.append("self-test: a flipped condition verdict went unflagged")
            return problems

        ops.append(Op(f"{inst.name}:perturb:{which}{i}", run, check))
    return ops


def build(workload: str, root: str, seed: int) -> list:
    with open(os.path.join(root, "manifest.json"), encoding="utf-8") as handle:
        manifest = json.load(handle)
    instances = [Instance(root, entry) for entry in manifest["instances"]]
    ops = []
    if workload == "battery":
        for i, inst in enumerate(instances):
            ops.append(roundtrip_op(inst, TARGET_KINDS, True, seed, i == 0))
        ops += [hostile_op(root, spec) for spec in manifest["hostile"]]
    elif workload == "scale":
        for i, inst in enumerate(instances):
            ops.append(roundtrip_op(inst, ("triplet", "single_chi"), False, seed, i == 0))
    elif workload == "queries":
        for i, inst in enumerate(instances):
            ops += query_ops(root, inst, i == 0)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops
