"""Golden CLI reports: the exit code and verdict list of fixed ``mengerkit``
calls on two forge instances, kept in ``tests/golden/<instance>.json``.

The calls are ``check``, then for every target kind ``classify`` and
``verify --bounds 4,4`` with the instance's realized domain relations, and
``verify`` with two swaps of them: chi from gamma, gamma from chi and pi
from gamma; and pi from chi alone, which is not an equivalence.  Every
call is given all three relation files.  They run in the current
directory with relative paths, so the echoed argv is stable.

    PYTHONPATH=src python tests/golden_reports.py

rewrites the golden files from the package on the path; ``test_cli``
compares the current package against them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

from mengerkit.cli import main
from mengerkit.theorems import TARGET_KINDS

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
# instance name -> `mengerkit generate` options
INSTANCES = {
    "menger-seed8": ["--n", "2", "--base", "3", "--gens", "1", "--seed", "8"],
    "plain-seed4": ["--n", "2", "--base", "2", "--gens", "2", "--seed", "4",
                    "--flavor", "plain"],
}
REALIZED = ["--chi", "chi.json", "--gamma", "gamma.json", "--pi", "pi.json"]
SWAPPED = ["--chi", "gamma.json", "--gamma", "chi.json", "--pi", "gamma.json"]
PI_FROM_CHI = ["--chi", "chi.json", "--gamma", "gamma.json", "--pi", "chi.json"]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


def calls(algebra: str):
    yield ["check", "--algebra", algebra]
    for kind in TARGET_KINDS:
        common = ["--algebra", algebra, "--target", kind]
        yield ["classify", *common, *REALIZED]
        yield ["verify", *common, *REALIZED, "--bounds", "4,4"]
        yield ["verify", *common, *SWAPPED]
        yield ["verify", *common, *PI_FROM_CHI]


def reports(instance: str) -> list[dict]:
    """Generate the instance and its relations in the current directory,
    then run every call with ``--json``."""
    options = INSTANCES[instance]
    algebra = f"instance-{options[options.index('--seed') + 1]}.json"
    for argv in (["generate", *options, "--out-dir", "."],
                 ["relations", "--algebra", algebra, "--out-dir", "."]):
        code, _ = _run(argv)
        assert code == 0, argv
    entries = []
    for argv in calls(algebra):
        code, out = _run(argv + ["--json"])
        verdicts = json.loads(out)["verdicts"] if out else None
        entries.append({"argv": argv, "exit": code, "verdicts": verdicts})
    return entries


def golden_path(instance: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{instance}.json")


def write_golden() -> None:
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for instance in INSTANCES:
        with tempfile.TemporaryDirectory() as work:
            cwd = os.getcwd()
            os.chdir(work)
            try:
                entries = reports(instance)
            finally:
                os.chdir(cwd)
        with open(golden_path(instance), "w", encoding="utf-8") as fh:
            json.dump(entries, fh, indent=1)
            fh.write("\n")
        print(f"wrote {golden_path(instance)} ({len(entries)} calls)")


if __name__ == "__main__":
    sys.exit(write_golden())
