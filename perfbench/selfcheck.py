"""Self-check of the benchmark.

Usage, from the root of the repository: python3 perfbench/selfcheck.py

Runs a tiny version of every workload, untraced and traced, and requires that
every op passes its checks and every metric of BENCHMARK.json is reported.
Then it corrupts one label in a copy of a sweep CSV, a sweep JSON and one
analyze output, and requires that the checker counts exactly one failed op
each time.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import re
import shutil
import sys

import numpy as np

import run

SEED = 20191001
LABELS = ("Separable", "EntangledNoQT", "QTNoEPR", "EPRCorrelated")


def _swap_label(text: str, pattern: str) -> str:
    """Replace the first label matched by `pattern` (group 1) with another."""
    m = re.search(pattern, text)
    old = m.group(1)
    new = next(label for label in LABELS if label != old)
    return text[:m.start(1)] + new + text[m.end(1):]


def _corrupt(record: dict, op: int, pattern: str) -> int:
    """Failed-op count after corrupting one label in a copy of op `op`'s output."""
    import checks

    plan, result = record["plan"], record["result"]
    src = record["work"] / "out"
    dst = record["work"] / "corrupted"
    shutil.rmtree(dst, ignore_errors=True)
    shutil.copytree(src, dst)
    path = dst / f"op-{op:06d}{plan.out_suffix}"
    path.write_text(_swap_label(path.read_text(), pattern))
    verdict = checks.check_pass(plan, result, dst, np.random.default_rng(0))
    for problem in verdict.problems:
        print(f"  expected problem: {problem}")
    return verdict.failed


def main() -> int:
    declared = run.prepare()
    if declared is None:
        return 2
    ok = True
    records = {}
    for w in declared["workloads"]:
        name = w["name"]
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            keep = run.WORK / f"selfcheck-{name}-{kind}"
            record = run.run(name, SEED, 0.5, trace, tiny=True, keep=keep)
            record["work"] = keep
            missing = [m["name"] for m in declared[kind] if m["name"] not in record["metrics"]]
            good = record["failed"] == 0 and not missing and record["attempted"] > 0
            ok &= good
            print(f"{'ok  ' if good else 'FAIL'} {name} {kind}: {record['attempted']} ops, "
                  f"{record['failed']} failed, missing metrics {missing}")
            for problem in record["problems"][:5]:
                print(f"  problem: {problem}")
            records[name, trace] = record

    corruptions = [
        ("sweep-tmst-csv", 0, r"\n(?:[^,\n]*,){9}([A-Za-z]+)\n"),
        ("sweep-bs-json", 0, r'"class": "([A-Za-z]+)"'),
        ("analyze-files", 3, r'"classification": "((?!Unphysical)[A-Za-z]+)"'),
    ]
    for name, op, pattern in corruptions:
        record = records[name, False]
        if name == "analyze-files":
            # an op whose input is physical, so its label can be swapped
            op = next(i for i, _, code in record["result"]["ops"] if code == 0 and i >= op)
        failed = _corrupt(record, op, pattern)
        good = failed == 1
        ok &= good
        print(f"{'ok  ' if good else 'FAIL'} corrupted one label in a copy of {name} "
              f"op {op}: checker counts {failed} failed op(s), expected 1")

    for record in records.values():
        shutil.rmtree(record["work"], ignore_errors=True)
    print(json.dumps({"selfcheck": "pass" if ok else "fail"}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
