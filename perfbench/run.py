"""gaussqt benchmark: one workload, end-to-end or traced per-layer metrics.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: sweep-tmst-csv, sweep-bs-json, analyze-files, oracle-crosscheck
(see perfbench/README.md for why each is there).  Every op goes through
`gaussqt.cli.main` in a fresh worker process with BLAS/OpenMP pinned to one
thread, and every output is checked.  With --trace 0 the end-to-end metrics
of BENCHMARK.json are printed; with --trace 1 the per-layer metrics, from a
run whose ops alternate between traced and untraced.  The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
DEADLINE_S = 170.0
# half of the set-up probes run before the worker pass and half after it,
# so a run's setup_s spans two moments of the host's drifting speed
SETUP_PROBES = 10

# one thread for BLAS and OpenMP in this process and every child, so on a
# small host the numbers measure the program and not the scheduler
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# fresh-process import of gaussqt plus the first parser construction
_SETUP_PROBE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import gaussqt.cli\n"
    "gaussqt.cli.build_parser()\n"
    "print(repr(time.perf_counter() - t))\n"
)


class BenchError(Exception):
    pass


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("out of time")
    return left


def setup_probes(n: int, deadline: float, warm: bool = False) -> list:
    """Times of `n` fresh-process set-ups; with `warm`, after one untimed
    probe that fills the bytecode and file caches.  Not scaled to the
    reference speed: set-up time followed the calibration kernels at a slope
    of only about 0.4, so scaling it added more spread than it took away."""
    times = []
    for _ in range(n + warm):
        proc = subprocess.run([sys.executable, "-c", _SETUP_PROBE, str(SRC)],
                              capture_output=True, text=True, timeout=_remaining(deadline))
        if proc.returncode != 0:
            raise BenchError(f"setup probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout))
    return times[1:] if warm else times


def run_pass(plan, work: Path, seconds: float, trace: bool, deadline: float):
    """Run the plan's ops in one fresh worker; return (result, output dir)."""
    out_dir = work / "out"
    out_dir.mkdir(parents=True)
    spec = {"src": str(SRC), "ops": plan.ops, "warmup": plan.warmup,
            "out_dir": str(out_dir), "out_suffix": plan.out_suffix,
            "seconds": seconds, "trace": trace, "result": str(work / "result.json")}
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec))
    log_path = work / "worker.log"
    with open(log_path, "wb") as log:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path)],
                              stdout=log, stderr=subprocess.STDOUT,
                              timeout=_remaining(deadline))
    if proc.returncode != 0:
        tail = log_path.read_text(errors="replace")[-2000:]
        raise BenchError(f"worker exited {proc.returncode}:\n{tail}")
    return json.loads(Path(spec["result"]).read_text()), out_dir


def machine_context() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    llc_mb, llc_level = None, 0
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1 / 1024, "M": 1.0, "G": 1024.0}.get(size[-1:], 1 / 1048576)
        if level >= llc_level and size.rstrip("KMG").isdigit():
            llc_level, llc_mb = level, int(size.rstrip("KMG")) * scale
    import numpy

    return {"nproc": os.cpu_count(), "cpu_model": cpu, "llc_mb": llc_mb,
            "python": platform.python_version(), "numpy": numpy.__version__}


def sweep_context(llc_mb) -> dict:
    from gaussqt import sweep

    chunk = getattr(sweep, "_CHUNK", None)
    if chunk is None:
        return {"chunk_rows": None}
    ws = chunk * 4 * 4 * 8 / 1e6   # one chunk of 4x4 float64 covariance matrices
    return {"chunk_rows": chunk, "chunk_working_set_mb": ws,
            "chunk_working_set_over_llc": ws / llc_mb if llc_mb else None}


def _p95(values: list) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def end_to_end(plan, lat: list, setup_s: float, peak_rss_mb: float) -> dict:
    done = plan.rows_per_op * len(lat) / sum(lat)
    return {
        "setup_s": setup_s,
        "rows_per_s": done,
        # every output row holds one state, so the two rates coincide
        "states_per_s": done,
        "latency_p50_ms": 1e3 * statistics.median(lat),
        "latency_p95_ms": 1e3 * _p95(lat),
        "peak_rss_mb": peak_rss_mb,
    }


def scaled_end_to_end(plan, result, setup_s: float) -> tuple:
    """End-to-end metrics with op times at the reference host speed, the same
    as measured, and the run's slowdown against the reference speed.  Each op
    is scaled by the calibration samples taken during it (calibrate.scaled)."""
    import calibrate

    samples = result["samples"]
    scaled = [calibrate.scaled(t0, t1, samples) for t0, t1 in result["bounds"]]
    raw = [op[1] for op in result["ops"]]
    rss = result["peak_rss_mb"]
    return (end_to_end(plan, scaled, setup_s, rss), end_to_end(plan, raw, setup_s, rss),
            calibrate.speed(samples))


def per_layer(result: dict, attempted: int, failed: int) -> dict:
    import spans

    traced = [op[1] for op in result["ops"] if op[0] % 2 == 0]
    untraced = [op[1] for op in result["ops"] if op[0] % 2 == 1]
    out_bytes = statistics.median(result["out_bytes"])
    metrics = spans.layer_metrics(result["spans"], result["counts"], result["gauges"],
                                  len(traced), out_bytes)
    metrics["trace.op_s"] = statistics.fmean(traced)
    metrics["trace.overhead_share"] = statistics.fmean(traced) / statistics.fmean(untraced) - 1.0
    metrics["error_rate"] = failed / attempted
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
        keep: Path | None = None) -> dict:
    """Run one workload and return its result record.  With `keep`, the
    inputs and outputs stay in that directory."""
    import numpy as np

    import checks
    import workloads

    deadline = time.monotonic() + DEADLINE_S
    work = keep or WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        plan = workloads.build(workload, seed, work, tiny=tiny)
        context = {**machine_context(), "workload": workload, "seed": seed,
                   "seconds": seconds, "input": plan.size}
        if workload.startswith("sweep"):
            context.update(sweep_context(context["llc_mb"]))
        setup = [] if trace else setup_probes(SETUP_PROBES // 2, deadline, warm=True)
        result, out_dir = run_pass(plan, work, seconds, trace, deadline)
        if not trace:
            setup += setup_probes(SETUP_PROBES - len(setup), deadline)
        setup_s = statistics.median(setup) if setup else None
        verdict = checks.check_pass(plan, result, out_dir, np.random.default_rng([seed, 1]))
        unscaled = None
        if trace:
            metrics = per_layer(result, verdict.attempted, verdict.failed)
        else:
            metrics, unscaled, context["host_slowdown"] = scaled_end_to_end(plan, result, setup_s)
        return {"context": context, "unscaled": unscaled, "attempted": verdict.attempted,
                "failed": verdict.failed, "problems": verdict.problems, "digests": verdict.digests, "metrics": metrics,
                "missing_spans": result.get("missing", []), "plan": plan, "result": result}
    finally:
        if keep is None:
            shutil.rmtree(work, ignore_errors=True)


def prepare() -> dict | None:
    """Check that the program's sources are here, pin threads and put the
    sources on the path; return BENCHMARK.json, or None after an error."""
    if not (SRC / "gaussqt" / "cli.py").is_file():
        print(f"error: no gaussqt sources under {SRC}", file=sys.stderr)
        return None
    for var in THREAD_PINS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    declared = prepare()
    if declared is None:
        return 2
    names = [w["name"] for w in declared["workloads"]]
    if args.workload not in names:
        print(f"error: workload must be one of {names}", file=sys.stderr)
        return 2

    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print("context " + json.dumps(record["context"]))
    digests = [d for _, d in sorted(record["digests"].items())]
    if len(digests) == 1:
        print(f"output sha256 {digests[0]}")
    else:
        joined = hashlib.sha256("".join(digests).encode()).hexdigest()
        print(f"outputs of {len(digests)} distinct ops, sha256 of their sha256s {joined}")
    for problem in record["problems"][:20]:
        print(f"problem {problem}")
    if record["missing_spans"]:
        print("untraced (entry point not found): " + " ".join(record["missing_spans"]))
    if args.trace:
        op_s = record["metrics"]["trace.op_s"]
        shares = {m["name"]: record["metrics"][m["name"]] / op_s for m in declared["per_layer"]
                  if m["unit"] == "s/op" and m["name"] != "trace.op_s"
                  and record["metrics"][m["name"]]}
        print("share of trace.op_s " + json.dumps(shares))
    print(f"error_rate {record['failed'] / record['attempted']!r} "
          f"({record['failed']} failed / {record['attempted']} attempted)")
    if record["unscaled"]:
        print("as measured, not scaled to the reference speed "
              + json.dumps(record["unscaled"]))
    declared_metrics = declared["per_layer" if args.trace else "end_to_end"]
    out = {}
    for m in declared_metrics:
        value = float(record["metrics"][m["name"]])
        out[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"metric {m['name']} {value!r} {m['unit']}")
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
