"""Command-line front end.

Exit codes: 0 pass, 1 fail or counterexample, 2 input error, 3 capacity
error.  ``closure``, ``classify``, ``represent``, ``verify`` and ``oracle``
refuse a table that breaks the composition laws as an input error;
``check`` reports the laws as verdicts.  The human summary goes to stdout;
``--json`` replaces it with the machine report (stable key order,
byte-identical for identical inputs).  Slots are 1-based in all files and
reports.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import fileio
from .algebra import (
    abstract_from_concrete,
    abstraction_or_witness,
    check_associativity,
    check_menger_identities,
    check_representability,
)
from .errors import CapacityError, InputError
from .forge import GeneratorConfig, generate_concrete
from .relations import build_closure
from .represent import sum_over_pairs, sum_over_points
from .tables import ConcreteAlgebra, domain_relations
from .theorems import (
    TARGET_KINDS,
    Target,
    least_quasiorder_oracle,
    roundtrip,
    verify_conditions,
    word_system_crosscheck,
)

_KIND_FLAGS = {
    "chi-pi": "chi_pi",
    "chi0": "chi0",
    "chi-bullet": "chi_pi_bullet",
    "chi0-bullet": "chi0_bullet",
}


def _load_algebra(path: str, flavor_override: str | None):
    """The concrete or abstract algebra of an algebra file, as its plain
    reduct when ``flavor_override`` is "plain"."""
    loaded = fileio.load_algebra(path)
    if flavor_override == "plain" and loaded.flavor == "menger":
        if isinstance(loaded, ConcreteAlgebra):
            return ConcreteAlgebra(loaded.arity, loaded.base_size, loaded.functions,
                                   "plain")
        return loaded.plain_reduct()
    return loaded


def _load_semigroup(path: str, flavor_override: str | None):
    """(abstract algebra, concrete origin or None) from an algebra file.
    A concrete algebra that is not closed, or a table that breaks
    associativity (or, on menger flavor, the Menger identities), is an
    input error: every later verdict assumes these laws."""
    alg, concrete = _load_algebra(path, flavor_override), None
    if isinstance(alg, ConcreteAlgebra):
        alg, concrete = abstract_from_concrete(alg), alg
    violation = check_associativity(alg)
    if violation is None and alg.flavor == "menger":
        violation = check_menger_identities(alg)
    if violation is not None:
        raise InputError(f"not a (2,n)-semigroup: {violation.law} fails at "
                         f"{violation.witness}")
    return alg, concrete


class Report:
    def __init__(self, argv):
        self.command = list(argv)
        self.verdicts = []
        self.lines = []

    def add(self, name: str, ok: bool, detail=None, **extra):
        verdict = {"name": name, "ok": ok}
        if detail is not None:
            verdict["detail"] = detail
        verdict.update(extra)
        self.verdicts.append(verdict)
        suffix = "" if detail is None else f" ({detail})"
        self.lines.append(f"{'PASS' if ok else 'FAIL'} {name}{suffix}")

    def note(self, line: str):
        self.lines.append(line)

    @property
    def ok(self) -> bool:
        return all(v["ok"] for v in self.verdicts)

    def emit(self, as_json: bool) -> int:
        if as_json:
            doc = {
                "format": fileio.REPORT_FORMAT,
                "command": self.command,
                "verdicts": self.verdicts,
                "summary": "\n".join(self.lines),
            }
            sys.stdout.write(fileio.dump_doc(doc))
        else:
            for line in self.lines:
                print(line)
        return 0 if self.ok else 1


def _violation_detail(violation):
    if violation is None:
        return None
    return fileio.violation_to_json(violation)


def cmd_check(args, report: Report) -> None:
    alg = _load_algebra(args.algebra, args.flavor)
    if isinstance(alg, ConcreteAlgebra):
        alg, witness = abstraction_or_witness(alg)
        report.add("concrete-closure", witness is None,
                   None if witness is None else witness[0])
        if alg is None:  # the laws below are verdicts on the abstraction
            return
    witness = check_associativity(alg)
    report.add("associativity", witness is None, _violation_detail(witness))
    if alg.flavor == "menger":
        witness = check_menger_identities(alg)
        report.add("menger-identities", witness is None, _violation_detail(witness))
    witness = check_representability(alg)
    report.add("representability", witness is None, _violation_detail(witness))
    zero = alg.zero_element()
    report.note(f"zero: {'none' if zero is None else zero}")


def cmd_relations(args, report: Report) -> None:
    loaded = fileio.load_algebra(args.algebra)
    if not isinstance(loaded, ConcreteAlgebra):
        raise InputError("relations requires a concrete algebra file")
    chi, gamma, pi = domain_relations(loaded)
    os.makedirs(args.out_dir, exist_ok=True)
    for name, rel in (("chi", chi), ("gamma", gamma), ("pi", pi)):
        path = os.path.join(args.out_dir, f"{name}.json")
        fileio.save_relation(rel, path)
        report.note(f"wrote {path}")
    report.add("relations-emitted", True)


def cmd_closure(args, report: Report) -> None:
    alg, _ = _load_semigroup(args.algebra, args.flavor)
    kind = _KIND_FLAGS[args.kind]
    pi = fileio.load_relation(args.pi) if args.pi else None
    closure = build_closure(alg, kind, pi)
    if args.out:
        fileio.save_relation(closure, args.out)
        report.note(f"wrote {args.out}")
    else:
        report.note(fileio.dump_doc(fileio.relation_to_doc(closure)).rstrip())
    report.add(f"closure-{args.kind}", True, f"{closure.count()} pairs")


def _target_from_args(args) -> Target:
    rels = {}
    for name in ("chi", "gamma", "pi"):
        path = getattr(args, name)
        if path:
            rels[name] = fileio.load_relation(path)
    return Target(args.target, **rels)


def _add_conditions(report: Report, conditions) -> None:
    for result in conditions.results:
        report.add(f"{conditions.theorem_id}:{result.name}", result.ok,
                   result.detail or _violation_detail(result.witness))


def cmd_classify(args, report: Report) -> None:
    alg, _ = _load_semigroup(args.algebra, args.flavor)
    _add_conditions(report, verify_conditions(alg, _target_from_args(args)))


def cmd_represent(args, report: Report) -> None:
    alg, _ = _load_semigroup(args.algebra, args.flavor)
    chi = fileio.load_relation(args.chi)
    if args.point_all:
        rep = sum_over_points(alg, chi)
    else:
        gamma = fileio.load_relation(args.gamma)
        rep = sum_over_pairs(alg, chi, gamma)
    fileio.save_representation(rep, args.out)
    report.note(f"wrote {args.out}")
    report.add("represent", True, f"{len(rep.parts)} distinct part(s)")


def cmd_verify(args, report: Report) -> None:
    alg, concrete = _load_semigroup(args.algebra, args.flavor)
    target = _target_from_args(args)
    verdict = roundtrip(alg, target, concrete=concrete)
    _add_conditions(report, verdict.conditions)
    if verdict.roundtrip_attempted:
        for name, ok in verdict.equalities:
            report.add(f"{verdict.theorem_id}:roundtrip {name}", ok)
        report.add(f"{verdict.theorem_id}:homomorphism",
                   verdict.hom_violation is None,
                   _violation_detail(verdict.hom_violation))
        if verdict.faithful is not None:
            report.add(f"{verdict.theorem_id}:faithful-augmentation",
                       verdict.faithful["ok"])
    if args.bounds:
        n_bound, m_bound = args.bounds
        crosscheck = word_system_crosscheck(
            alg, target.pi, target.gamma, n_bound, m_bound)
        for name, entry in sorted(crosscheck["systems"].items()):
            report.add(f"word-system-{name}-consistent", entry["consistent"],
                       f"exact={entry['exact']} truncated={entry['truncated']}")


def cmd_oracle(args, report: Report) -> None:
    alg, _ = _load_semigroup(args.algebra, args.flavor)
    pi = fileio.load_relation(args.pi) if args.pi else None
    least = least_quasiorder_oracle(alg, pi)
    if args.out:
        fileio.save_relation(least, args.out)
        report.note(f"wrote {args.out}")
    else:
        report.note(fileio.dump_doc(fileio.relation_to_doc(least)).rstrip())
    report.add("oracle", True, f"{least.count()} pairs")


def cmd_generate(args, report: Report) -> None:
    if args.count < 1:
        raise InputError(f"count must be at least 1, got {args.count}")
    os.makedirs(args.out_dir, exist_ok=True)
    for k in range(args.count):
        cfg = GeneratorConfig(
            arity=args.n, base_size=args.base, generator_count=args.gens,
            seed=args.seed + k, flavor=args.flavor or "menger")
        conc = generate_concrete(cfg)
        path = os.path.join(args.out_dir, f"instance-{cfg.seed}.json")
        fileio.save_algebra(conc, path)
        report.note(f"wrote {path} ({len(conc.functions)} functions)")
    report.add("generate", True, f"{args.count} instance(s)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mengerkit",
        description="Finite (2,n)-semigroups of partial n-place functions: "
                    "checks, closures, representations, theorem round-trips.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true",
                       help="emit the machine report instead of the summary")
        p.add_argument("--flavor", choices=["plain"],
                       help="force the plain reduct of a menger algebra")

    p = sub.add_parser("check", help="associativity, identities, representability")
    p.add_argument("--algebra", required=True)
    common(p)

    p = sub.add_parser("relations", help="emit the domain relations of a "
                                         "concrete algebra")
    p.add_argument("--algebra", required=True)
    p.add_argument("--out-dir", required=True)
    common(p)

    p = sub.add_parser("closure", help="least compatible quasi-order")
    p.add_argument("--algebra", required=True)
    p.add_argument("--kind", required=True, choices=sorted(_KIND_FLAGS))
    p.add_argument("--pi")
    p.add_argument("--out")
    common(p)

    p = sub.add_parser("classify", help="run the condition battery for a target")
    p.add_argument("--algebra", required=True)
    p.add_argument("--target", required=True, choices=TARGET_KINDS)
    p.add_argument("--chi")
    p.add_argument("--gamma")
    p.add_argument("--pi")
    common(p)

    p = sub.add_parser("represent", help="build and save a canonical representation")
    p.add_argument("--algebra", required=True)
    p.add_argument("--chi", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--gamma")
    group.add_argument("--point-all", action="store_true")
    p.add_argument("--out", required=True)
    common(p)

    p = sub.add_parser("verify", help="conditions plus constructive round-trip")
    p.add_argument("--algebra", required=True)
    p.add_argument("--target", required=True, choices=TARGET_KINDS)
    p.add_argument("--chi")
    p.add_argument("--gamma")
    p.add_argument("--pi")
    p.add_argument("--bounds", type=_parse_bounds,
                   help="N,M word-system cross-check depths")
    common(p)

    p = sub.add_parser("oracle", help="least quasi-order by brute enumeration")
    p.add_argument("--algebra", required=True)
    p.add_argument("--pi")
    p.add_argument("--out")
    common(p)

    p = sub.add_parser("generate", help="deterministic concrete instances")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--base", type=int, required=True)
    p.add_argument("--gens", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--flavor", choices=["menger", "plain"])
    return parser


def _parse_bounds(text: str):
    try:
        n, m = text.split(",")
        return (int(n), int(m))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bounds must be N,M, got {text!r}") from exc


_COMMANDS = {
    "check": cmd_check,
    "relations": cmd_relations,
    "closure": cmd_closure,
    "classify": cmd_classify,
    "represent": cmd_represent,
    "verify": cmd_verify,
    "oracle": cmd_oracle,
    "generate": cmd_generate,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    report = Report(["mengerkit"] + argv)
    try:
        _COMMANDS[args.command](args, report)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3
    return report.emit(args.json)


if __name__ == "__main__":
    sys.exit(main())
