"""Time the layers of the pipeline on a fixed ladder of forge algebras.

Each rung is the menger algebra of ``GeneratorConfig(arity=2, base_size=3,
generator_count=1, seed=s, closure_cap=130)`` for one seed s, with its
realized domain relations chi, gamma and pi.  Each rung runs in its own
child process under a 3 GB address-space limit, so that an oversized
array ends the rung with a MemoryError instead of taking the machine's
memory.  For each rung it records the carrier size, the number of right
translations and of distinct ones (``translation_classes``), the number
of superposition generators the Menger laws and the homomorphism check
are decided at (the carrier size where there are none; absent on trees
without ``superposition_generators``), the word states, the groups of
parts of the pairs sum with the bytes of their words, and for
``reachable_states``, ``is_l_regular(chi)``, ``is_l_cancellative(gamma)``,
``verify_conditions`` on the triplet target, ``check_menger_identities``,
``sum_over_pairs(alg, chi, gamma)`` with ``representation_relations`` of
it (whose result is whether they equal chi, gamma and pi) and
``verify_homomorphism`` of that sum, then ``represent._build_universe``
(the universe built afresh, word states already kept) and ``roundtrip``
of all seven targets with the rung's concrete origin: the wall time of
the first call
(which builds the algebra's derived tables; ``reachable_states`` keeps
nothing, so each of its calls is a first one) and of a second one, the
tracemalloc peak of a third (timed calls run untraced: tracing slows
the Python loops of the state search several times over), the place of
the call in the rung's order (a first call's time depends on what the
calls before it left in the allocator), and the equations the first
call compared, as the (phase, count) of each equation-cap check it
made: one per law phase, one per group of parts of the homomorphism
check.  A call that raises CapacityError or MemoryError records the
error (and the count reached) as its result, and the rung goes on.
The algebra keeps its verdicts on given relations, their closures and
its round-trips under keys that hold a ``BinRelation``, so a later call
would only look them up: before each of the three calls the ladder drops
those entries, of the algebra and of its plain reduct, and keeps the
algebra-wide tables (word states, translations, universe, generators).

Two more rungs are the arity-3 plain algebras of perfbench's ``queries``
workload, ``GeneratorConfig(arity=3, base_size=2, generator_count=1,
seed=s, flavor="plain", closure_cap=40)`` for s = 12 (plain22) and 7
(plain23).  They measure ``reachable_states``, ``check_representability``
and ``verify_conditions`` on the triplet target alone: the other calls
need menger flavor.

Before all of these, on the menger rungs, ``mengerkit verify --target
triplet`` runs end to end on the rung's algebra and relations, written by
``fileio``, in a child of the rung under the same limit: the report
records its exit code, its wall time, whether its stderr holds a
traceback and the last line of that stderr.

Each rung runs ROUNDS times per checkout, the checkouts taking turns, and
each time is the fastest of its rounds: on a shared host one call's time
drifts by a factor of two from run to run.

Usage::

    python scripts/ladder.py [LABEL=CHECKOUT ...] > ladder.json

Each argument names a checkout whose ``src`` directory mengerkit is
imported from (default: ``change=`` this script's checkout), so two trees
can be measured by one run.  The JSON report goes to stdout.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

SEEDS = (1, 19, 27, 36)  # m = 45, 81, 108, 128
PLAIN_SEEDS = {"plain22": 12, "plain23": 7}  # m = 22, 23 at arity 3
ROUNDS = 5
ADDRESS_SPACE_BYTES = 3 * 2**30
RUNG_TIMEOUT_S = 900


def timed(call):
    """(result, seconds) of one call."""
    start = time.perf_counter()
    result = call()
    return result, time.perf_counter() - start


def traced_peak(call) -> float:
    """The tracemalloc peak of one call, in MB."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def counting_equations(call, equations: list):
    """call, with the (phase, count) of every equation-cap check it makes
    appended to equations."""
    from mengerkit import algebra, represent

    def run():
        modules = (algebra, represent)
        checks = [module._check_law_cap for module in modules]
        for module, check in zip(modules, checks):
            module._check_law_cap = lambda phase, count, check=check: (
                equations.append([phase, count]), check(phase, count))
        try:
            return call()
        finally:
            for module, check in zip(modules, checks):
                module._check_law_cap = check

    return run


def forget_relations(alg):
    """Drop the entries that alg and its plain reduct keep under a key
    holding a BinRelation; the algebra-wide tables stay."""
    from mengerkit import BinRelation

    for owner in filter(None, (alg, alg._derived.get("reduct"))):
        for key in [key for key in owner._derived if isinstance(key, tuple)
                    and any(isinstance(part, BinRelation) for part in key)]:
            del owner._derived[key]


def measured(call, order: int, alg) -> dict:
    """The result, the first and the second call's time, a third call's
    tracemalloc peak and the equations the first call compared, or the
    CapacityError or MemoryError of the first call; with the call's place
    in the rung's order.  Each call starts from alg's algebra-wide tables
    alone (forget_relations)."""
    from mengerkit import CapacityError

    equations = []
    place = {"order": order}
    forget_relations(alg)
    try:
        result, first = timed(counting_equations(call, equations))
    except CapacityError as exc:
        return place | {"result": f"CapacityError: {exc}", "count": exc.count,
                        "equations": equations}
    except MemoryError as exc:
        return place | {"result": f"MemoryError: {exc}", "equations": equations}
    forget_relations(alg)
    _, again = timed(call)
    forget_relations(alg)
    return place | {"result": repr(result), "first_s": round(first, 5),
                    "again_s": round(again, 5), "again_peak_mb": round(traced_peak(call), 3),
                    "equations": equations}


def limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_BYTES, ADDRESS_SPACE_BYTES))


def verify_end_to_end(conc, relations) -> dict:
    """``mengerkit verify --target triplet`` on files that ``fileio`` writes
    from conc and (chi, gamma, pi), run from the imported mengerkit's
    source tree in a child under ADDRESS_SPACE_BYTES."""
    import mengerkit
    from mengerkit import fileio

    src = str(Path(mengerkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    with tempfile.TemporaryDirectory() as tmp:
        fileio.save_algebra(conc, f"{tmp}/alg.json")
        argv = ["verify", "--algebra", f"{tmp}/alg.json", "--target", "triplet"]
        for name, rel in zip(("chi", "gamma", "pi"), relations):
            fileio.save_relation(rel, f"{tmp}/{name}.json")
            argv += [f"--{name}", f"{tmp}/{name}.json"]
        done, seconds = timed(lambda: subprocess.run(
            [sys.executable, "-c", "import sys; from mengerkit.cli import main; sys.exit(main())",
             *argv], capture_output=True, text=True, env=env,
            preexec_fn=limit_address_space, timeout=RUNG_TIMEOUT_S))
    stderr = done.stderr.strip().splitlines()
    return {"exit": done.returncode, "seconds": round(seconds, 3),
            "traceback": any(line.startswith("Traceback") for line in stderr),
            "stderr": stderr[-1] if stderr else ""}


def run_rung(seed: int) -> dict:
    """Measure one rung in this process; mengerkit is already importable."""
    from mengerkit import (GeneratorConfig, Target, abstract_from_concrete,
                           check_menger_identities, domain_relations, generate_concrete,
                           is_l_cancellative, is_l_regular, reachable_states,
                           representation_relations, roundtrip, sum_over_pairs,
                           verify_conditions, verify_homomorphism)
    from mengerkit import algebra, represent
    from mengerkit.algebra import right_translations, translation_classes
    from mengerkit.theorems import TARGET_KINDS

    start = time.perf_counter()
    conc = generate_concrete(GeneratorConfig(arity=2, base_size=3, generator_count=1,
                                             seed=seed, closure_cap=130))
    alg = abstract_from_concrete(conc)
    chi, gamma, pi = domain_relations(conc)
    rung = {"seed": seed, "m": alg.size, "generate_s": round(time.perf_counter() - start, 4)}
    rung["verify --target triplet"] = verify_end_to_end(conc, (chi, gamma, pi))
    calls = {
        "reachable_states": lambda: len(reachable_states(alg).slots),
        "is_l_regular(chi)": lambda: is_l_regular(chi, alg),
        "is_l_cancellative(gamma)": lambda: is_l_cancellative(gamma, alg),
        "verify_conditions(triplet)": lambda: verify_conditions(
            alg, Target("triplet", chi=chi, gamma=gamma, pi=pi)).ok,
        "check_menger_identities": lambda: check_menger_identities(alg),
        "representation_relations(pairs sum)": lambda: representation_relations(
            sum_over_pairs(alg, chi, gamma)) == (chi, gamma, pi),
    }
    for order, (name, call) in enumerate(calls.items()):
        rung[name] = measured(call, order, alg)
    # trees older than superposition generators record none
    if hasattr(algebra, "superposition_generators"):
        generators = algebra.superposition_generators(alg)
        rung["generators"] = alg.size if generators is None else len(generators)
    pairs_sum = sum_over_pairs(alg, chi, gamma)
    # trees older than represent._word_dtype record the parts alone
    word_dtype = getattr(represent, "_word_dtype", None)
    rung["homomorphism_groups"] = [
        {"parts": len(parts)} | ({"word_bytes": word_dtype(parts).itemsize} if word_dtype else {})
        for parts, _ in represent._groups(pairs_sum.parts)]
    rung["verify_homomorphism(pairs sum)"] = measured(
        lambda: verify_homomorphism(pairs_sum, alg), len(calls), alg)
    rung["build_universe"] = measured(lambda: len(represent._build_universe(alg)),
                                      len(calls) + 1, alg)
    rung["roundtrip(seven targets)"] = measured(lambda: all(
        roundtrip(alg, Target(kind, chi=chi, gamma=gamma, pi=pi), concrete=conc).ok
        for kind in TARGET_KINDS), len(calls) + 2, alg)
    rung["translations"] = int(right_translations(alg)[0].shape[1])
    rung["translation_classes"] = len(translation_classes(alg)[0])
    return rung


def run_plain_rung(name: str) -> dict:
    """Measure one arity-3 plain rung in this process."""
    from mengerkit import (GeneratorConfig, Target, abstract_from_concrete,
                           check_representability, domain_relations, generate_concrete,
                           reachable_states, verify_conditions)

    start = time.perf_counter()
    conc = generate_concrete(GeneratorConfig(arity=3, base_size=2, generator_count=1,
                                             seed=PLAIN_SEEDS[name], flavor="plain",
                                             closure_cap=40))
    alg = abstract_from_concrete(conc)
    chi, gamma, pi = domain_relations(conc)
    rung = {"rung": name, "seed": PLAIN_SEEDS[name], "m": alg.size,
            "generate_s": round(time.perf_counter() - start, 4)}
    calls = {
        "reachable_states": lambda: len(reachable_states(alg).slots),
        "check_representability": lambda: check_representability(alg),
        "verify_conditions(triplet)": lambda: verify_conditions(
            alg, Target("triplet", chi=chi, gamma=gamma, pi=pi)).ok,
    }
    for order, (call_name, call) in enumerate(calls.items()):
        rung[call_name] = measured(call, order, alg)
    return rung


def child(rung_name: str, src: str):
    """Entry point of a rung's child process (a menger seed or a name in
    PLAIN_SEEDS): prints the rung as JSON."""
    limit_address_space()
    sys.path.insert(0, src)
    try:
        rung = run_plain_rung(rung_name) if rung_name in PLAIN_SEEDS else run_rung(int(rung_name))
    except Exception as exc:  # a failing rung (MemoryError, CapacityError) is its result
        rung = {"rung": rung_name, "error": f"{type(exc).__name__}: {exc}"}
    print(json.dumps(rung))


def measure(checkout: Path, rung) -> dict:
    """One rung (a menger seed or a name in PLAIN_SEEDS) run in a child
    that imports mengerkit from the checkout."""
    src = str((checkout / "src").resolve())
    # one thread, as in perfbench: a BLAS thread pool reserves address
    # space per thread, which would count against the rung's limit
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    try:
        done = subprocess.run([sys.executable, __file__, "--rung", str(rung), src],
                              capture_output=True, text=True, env=env,
                              timeout=RUNG_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"rung": rung, "error": f"timeout after {RUNG_TIMEOUT_S} s"}
    if done.returncode != 0 or not done.stdout.strip():
        return {"rung": rung, "error": f"exit {done.returncode}: {done.stderr.strip()[-400:]}"}
    return json.loads(done.stdout.splitlines()[-1])


def fastest(runs: list[dict]) -> dict:
    """The first run of a rung with each call's times the fastest of all
    runs."""
    rung = runs[0]
    for name, call in rung.items():
        if isinstance(call, dict):
            for key in {"first_s", "again_s", "seconds"} & call.keys():
                call[key] = min(run.get(name, {}).get(key, call[key]) for run in runs)
    return rung


def main(argv: list[str]):
    if argv[:1] == ["--rung"]:
        child(argv[1], argv[2])
        return
    checkouts = [arg.split("=", 1) for arg in argv] or [
        ("change", str(Path(__file__).resolve().parents[1]))]
    report = {"config": "GeneratorConfig(arity=2, base_size=3, generator_count=1, "
                        "seed=s, flavor='menger', closure_cap=130)",
              "plain_config": "GeneratorConfig(arity=3, base_size=2, generator_count=1, "
                              "seed=s, flavor='plain', closure_cap=40)",
              "address_space_limit_bytes": ADDRESS_SPACE_BYTES, "rounds": ROUNDS,
              "host": {"platform": platform.platform(), "machine": platform.machine(),
                       "cpus": os.cpu_count(), "python": platform.python_version()},
              "runs": {}}
    rungs = SEEDS + tuple(PLAIN_SEEDS)
    runs = {label: [[] for _ in rungs] for label, _ in checkouts}
    for _ in range(ROUNDS):
        for index, rung in enumerate(rungs):
            for label, path in checkouts:
                runs[label][index].append(measure(Path(path), rung))
    report["runs"] = {label: [fastest(rounds) for rounds in per_rung]
                      for label, per_rung in runs.items()}
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main(sys.argv[1:])
