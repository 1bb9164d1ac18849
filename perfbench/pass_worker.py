"""One pass over a workload's operations, in a fresh process.

    python3 perfbench/pass_worker.py --workload battery --inputs DIR \
        --seed 1 --trace off --out pass.json

Each operation is timed alone with ``perf_counter`` and then checked,
outside the timed region.  ``--trace time`` or ``--trace memory`` wraps
mengerkit's functions first (see ``tracing``).  The result file holds
each operation's time and status, the problems the checks found, the
process's peak resident set and, when traced, the span aggregates.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", choices=["off", "time", "memory"], default="off")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    tracer = None
    if args.trace != "off":
        import tracing

        tracer = tracing.Tracer(args.trace)
        tracer.install()
    import workloads

    ops = workloads.build(args.workload, args.inputs, args.seed)
    records, problems = [], []
    gc.collect()
    gc.freeze()  # start-up objects stay out of the collections inside operations
    for op in ops:
        start = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # recorded as a failed, wrong operation
            records.append([op.name, time.perf_counter() - start, "error"])
            problems.append(f"{op.name}: raised {type(exc).__name__}: {exc}")
            continue
        seconds = time.perf_counter() - start
        try:
            found = op.check(result)
        except Exception as exc:  # an output the checks cannot even read
            found = [f"{op.name}: check raised {type(exc).__name__}: {exc}"]
        if found == workloads.FAILED:
            status = "failed"
        elif found:
            status = "wrong"
            problems += found
        else:
            status = "ok"
        records.append([op.name, seconds, status])
        del result

    doc = {
        "ops": records,
        "problems": problems,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "trace": tracer.report() if tracer is not None else None,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
