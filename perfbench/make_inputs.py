"""Generate and write one workload's inputs (the benchmark's set-up step).

    python3 perfbench/make_inputs.py --workload battery --seed 1 --out DIR

Instances come from mengerkit's own forge (``generate_concrete``) with
fixed generator configurations, so every seed sees algebras of the same
shapes and sizes.  The seed relabels each algebra into an isomorphic copy
(member order and base points permuted) and seeds the samples drawn by
the checks.  The perturbed pairs of ``queries`` are chosen once on the
unrelabeled algebra and carried through the relabeling.
Relation files are computed by ``oracle``, not by the program.  The six
hostile inputs of ``battery`` do not depend on the seed.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from itertools import product

import numpy as np

import oracle

# (name, arity, base, generators, generator seed, flavor, closure cap)
SCALE = [
    ("m18", 2, 3, 1, 8, "menger", 26),
    ("m18b", 2, 3, 1, 33, "menger", 26),
    ("m20", 2, 3, 1, 28, "menger", 26),
    ("m23", 2, 3, 1, 56, "menger", 26),
]
QUERIES = [
    ("plain22", 3, 2, 1, 12, "plain", 40),
    ("plain23", 3, 2, 1, 7, "plain", 40),
    ("menger24", 2, 3, 1, 5, "menger", 26),
]
BATTERY_MENGER, BATTERY_PLAIN, BATTERY_CAP = 100, 50, 10
PERTURBATIONS = (("chi", 8), ("gamma", 7), ("pi", 7))
PERTURB_SCAN = 160  # candidate flips examined per relation
# the target whose condition battery checks a perturbed relation
PERTURB_TARGET = {"chi": "pair_chi_gamma", "gamma": "pair_chi_gamma",
                  "pi": "pair_gamma_pi"}


def battery_configs(mk):
    """The acceptance battery's seed scan: n=2, base 2-3, closures of at
    most 10 members, two menger algebras for every plain one."""
    out = []
    for flavor, want in (("menger", BATTERY_MENGER), ("plain", BATTERY_PLAIN)):
        seed, found = 0, 0
        while found < want:
            base = 2 + seed % 2
            gens = 1 + (seed % 2 if flavor == "menger" else seed % 3)
            cfg = mk.GeneratorConfig(arity=2, base_size=base, generator_count=gens,
                                     seed=seed, flavor=flavor, closure_cap=BATTERY_CAP)
            seed += 1
            try:
                conc = mk.generate_concrete(cfg)
            except mk.CapacityError:
                continue
            found += 1
            out.append((f"{flavor}{seed - 1:03d}", conc))
    return out


def catalogue_configs(mk, rows):
    out = []
    for name, arity, base, gens, seed, flavor, cap in rows:
        cfg = mk.GeneratorConfig(arity=arity, base_size=base, generator_count=gens,
                                 seed=seed, flavor=flavor, closure_cap=cap)
        out.append((name, mk.generate_concrete(cfg)))
    return out


def relabel(conc, rng: random.Random):
    """Members permuted and base points conjugated by a random permutation:
    an isomorphic closed function set, as an oracle function table, and
    the member order (new member i is old member ``members[i]``)."""
    n, base = conc.arity, conc.base_size
    table = np.array([f.entries for f in conc.functions], dtype=np.int64)
    members = list(range(len(table)))
    rng.shuffle(members)
    sigma = list(range(base))
    rng.shuffle(sigma)
    inverse = np.argsort(sigma)
    weights = base ** np.arange(n - 1, -1, -1)
    args = np.array(list(product(range(base), repeat=n)), dtype=np.int64)
    source = inverse[args] @ weights  # new cell a' reads old cell sigma^-1(a')
    values = table[members][:, source]
    return np.where(values >= 0, np.asarray(sigma)[np.clip(values, 0, None)], -1), members


def algebra_doc(table: np.ndarray, arity: int, base: int, flavor: str) -> dict:
    return {
        "format": "mengerkit-algebra-v1", "kind": "concrete", "flavor": flavor,
        "n": arity, "base_size": base,
        "functions": [[None if v < 0 else int(v) for v in row] for row in table],
    }


def relation_doc(r: np.ndarray) -> dict:
    return {"format": "mengerkit-relation-v1", "size": int(r.shape[0]),
            "matrix": r.astype(int).tolist()}


def write(out: str, name: str, doc) -> str:
    path = os.path.join(out, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, sort_keys=True)
    return name


def close_again(which: str, r: np.ndarray, tables: oracle.Tables) -> np.ndarray:
    """The least relation above r that passes the conditions the oracle
    decides for its kind: an l-regular quasi-order (chi), an l-regular
    equivalence (pi), or a symmetric, l-cancellative relation that is
    reflexive at the zero once the zero occurs in it (gamma)."""
    heads = tables.heads(tables.menger)
    zero = tables.zero()
    r = r.copy()
    while True:
        before = r.copy()
        if which == "gamma":
            r |= r.T
            r |= r[heads[:, None, :], heads[None, :, :]].any(axis=2)
            if zero is not None and r[zero].any():
                r[zero, zero] = True
        else:
            xs, ys = np.nonzero(r)
            r[heads[xs], heads[ys]] = True
            r |= (r.astype(np.int64) @ r.astype(np.int64)) > 0
            np.fill_diagonal(r, True)
            if which == "pi":
                r |= r.T
        if (r == before).all():
            return r


def perturbations(rels: dict, tables: oracle.Tables, rng: random.Random) -> list:
    """Single-pair perturbations of chi, gamma and pi.  A third are raw
    flips of one pair (and its mirror for the symmetric gamma and pi) that
    break a condition the oracle decides.  The others add one missing pair
    and close the relation again (``close_again``), so that the verdict
    rests on the conditions further down the battery; where a relation
    misses too few pairs, raw flips take their place."""
    m = tables.size
    chosen = []
    for which, count in PERTURBATIONS:
        pairs = [(a, b) for a in range(m) for b in range(m)
                 if which == "chi" or a <= b]
        rng.shuffle(pairs)
        missing = [(a, b) for a, b in pairs if not rels[which][a, b]]
        missing = missing[:count - count // 3]
        for a, b in missing:
            r = rels[which].copy()
            r[a, b] = True
            chosen.append((which, [a, b], True, close_again(which, r, tables)))
        raw = count - len(missing)
        for a, b in pairs[:PERTURB_SCAN]:
            if raw == 0:
                break
            r = rels[which].copy()
            r[a, b] = not r[a, b]
            if which != "chi":
                r[b, a] = r[a, b]
            perturbed = dict(rels, **{which: r})
            if not all(oracle.decidable(PERTURB_TARGET[which], perturbed, tables).values()):
                chosen.append((which, [a, b], False, r))
                raw -= 1
    return chosen


def hostile_inputs(out: str) -> list:
    """Files for the six hostile CLI calls, the fault each one shows and
    the exit codes that count as mended: 1 or 2 for a non-semigroup that
    must not pass, 2 for a malformed file."""
    sub3 = write(out, "hostile-sub3.json", {
        "format": "mengerkit-algebra-v1", "kind": "abstract", "flavor": "plain",
        "n": 1, "size": 3,
        "mann": [[[(x - y) % 3 for y in range(3)] for x in range(3)]]})
    full3 = write(out, "hostile-full3.json", relation_doc(np.ones((3, 3), dtype=bool)))
    size_str = write(out, "hostile-size-str.json", {
        "format": "mengerkit-algebra-v1", "kind": "abstract", "flavor": "plain",
        "n": 1, "size": "2", "mann": [[[0, 1], [1, 0]]]})
    functions5 = write(out, "hostile-functions5.json", {
        "format": "mengerkit-algebra-v1", "kind": "concrete", "flavor": "plain",
        "n": 1, "base_size": 2, "functions": [5]})
    matrix5 = write(out, "hostile-matrix5.json", {
        "format": "mengerkit-relation-v1", "size": 3, "matrix": 5})
    booleans = write(out, "hostile-booleans.json", {
        "format": "mengerkit-algebra-v1", "kind": "abstract", "flavor": "plain",
        "n": 1, "size": 2, "mann": [[[False, True], [True, False]]]})
    return [
        {"name": "closure-non-semigroup", "fault": "pass", "mended": [1, 2],
         "argv": ["closure", "--algebra", sub3, "--kind", "chi0-bullet"]},
        {"name": "classify-non-semigroup", "fault": "pass", "mended": [1, 2],
         "argv": ["classify", "--algebra", sub3, "--target", "single_pi", "--pi", full3]},
        {"name": "size-string", "fault": "TypeError", "mended": [2],
         "argv": ["check", "--algebra", size_str]},
        {"name": "functions-int", "fault": "TypeError", "mended": [2],
         "argv": ["check", "--algebra", functions5]},
        {"name": "matrix-int", "fault": "TypeError", "mended": [2],
         "argv": ["classify", "--algebra", sub3, "--target", "single_pi",
                  "--pi", matrix5]},
        {"name": "boolean-entries", "fault": "pass", "mended": [2],
         "argv": ["check", "--algebra", booleans]},
    ]


def make(mk, workload: str, seed: int, out: str) -> dict:
    os.makedirs(out, exist_ok=True)
    if workload == "battery":
        source = battery_configs(mk)
    elif workload == "scale":
        source = catalogue_configs(mk, SCALE)
    elif workload == "queries":
        source = catalogue_configs(mk, QUERIES)
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    instances = []
    for name, conc in source:
        table, members = relabel(conc, random.Random(f"perfbench:{workload}:{seed}:{name}"))
        chi, gamma, pi = oracle.domain_relations(table)
        entry = {
            "name": name, "flavor": conc.flavor, "n": conc.arity,
            "base": conc.base_size, "m": len(table),
            "algebra": write(out, f"{name}.algebra.json",
                             algebra_doc(table, conc.arity, conc.base_size, conc.flavor)),
            "chi": write(out, f"{name}.chi.json", relation_doc(chi)),
            "gamma": write(out, f"{name}.gamma.json", relation_doc(gamma)),
            "pi": write(out, f"{name}.pi.json", relation_doc(pi)),
        }
        if workload == "queries":
            # chosen on the unrelabeled algebra, so that every seed runs
            # isomorphic copies of the same queries
            original = np.array([f.entries for f in conc.functions], dtype=np.int64)
            tables = oracle.Tables(original, conc.arity, conc.base_size,
                                   conc.flavor == "menger")
            rels = dict(zip(("chi", "gamma", "pi"), oracle.domain_relations(original)))
            place = np.argsort(members)
            entry["perturbations"] = [
                {"relation": which, "pair": [int(place[a]), int(place[b])], "closed": closed,
                 "file": write(out, f"{name}.perturb{i}.json",
                               relation_doc(r[np.ix_(members, members)]))}
                for i, (which, (a, b), closed, r) in enumerate(perturbations(
                    rels, tables, random.Random(f"perfbench:queries:{name}")))]
        instances.append(entry)
    manifest = {"workload": workload, "seed": seed, "instances": instances,
                "hostile": hostile_inputs(out) if workload == "battery" else []}
    write(out, "manifest.json", manifest)
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", help="write set-up spans to this JSON file")
    args = parser.parse_args(argv)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer("time")
        tracer.install()
    import mengerkit as mk

    make(mk, args.workload, args.seed, args.out)
    if tracer is not None:
        with open(args.trace, "w", encoding="utf-8") as handle:
            json.dump(tracer.report(), handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
