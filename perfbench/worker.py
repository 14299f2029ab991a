"""One workload pass in a fresh process: a closed loop with one client.

Usage: python3 worker.py SPEC.json

The spec names the gaussqt source directory, the argv list, the run length
and whether to trace.  The worker runs one untimed warm-up op, then calls
`gaussqt.cli.main` op after op until starting another would overrun the run
length, and writes per-op latencies, exit codes, output sizes, its peak RSS
and (when tracing) its spans to the result file named in the spec.

When tracing, ops alternate between recorded (even) and not recorded (odd),
so drift in the host's speed cancels out of the tracing overhead; such a run
holds at least two ops.  When not tracing, a timer signal times the
calibration kernels of calibrate.py every SAMPLE_PERIOD_S, also inside long
ops, so that run.py can scale each op to the reference host speed.
"""

from __future__ import annotations

import json
import resource
import signal
import sys
import time
import traceback
from pathlib import Path


# untimed calibration runs before sampling starts, and samples taken just
# before the first op and after the last one
CALIBRATION_WARMUP = 20
CALIBRATION_EDGE = 8


def _argv(template, out):
    return [out if a == "{out}" else a for a in template]


def _size(path: Path) -> int:
    return path.stat().st_size if path.exists() else -1


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    import gaussqt
    from gaussqt import cli

    if not Path(gaussqt.__file__).resolve().is_relative_to(src):
        print(f"gaussqt imported from {gaussqt.__file__}, not {src}", file=sys.stderr)
        return 1

    out_dir = Path(spec["out_dir"])
    suffix = spec["out_suffix"]
    cli.main(_argv(spec["warmup"], str(out_dir / f"warmup{suffix}")))

    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer(time.perf_counter)
        spans.install(tracer)

    import calibrate

    samples = []
    if tracer is None:
        def _sample(_signum, _frame):
            samples.append(calibrate.sample())

        for _ in range(CALIBRATION_WARMUP):
            calibrate.sample()
        signal.signal(signal.SIGALRM, _sample)
        period = calibrate.SAMPLE_PERIOD_S
        signal.setitimer(signal.ITIMER_REAL, period, period)
        for _ in range(CALIBRATION_EDGE):
            samples.append(calibrate.sample())

    ops = spec["ops"]
    seconds = spec["seconds"]
    records = []
    bounds = []
    clock = time.perf_counter
    start = clock()
    i = 0
    while True:
        out = str(out_dir / f"op-{i:06d}{suffix}")
        argv = _argv(ops[i % len(ops)], out)
        if tracer is not None:
            tracer.op = i
            tracer.on = i % 2 == 0
            tracer.begin("op")
        t0 = clock()
        try:
            code = cli.main(argv)
        except Exception:
            # a crash is one failed op, which the checker counts
            traceback.print_exc()
            code = -1
        t1 = clock()
        if tracer is not None:
            tracer.end()
        records.append([i, t1 - t0, code])
        bounds.append([t0, t1])
        i += 1
        elapsed = t1 - start
        if elapsed + elapsed / i > seconds and (tracer is None or i >= 2):
            break

    if tracer is None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        for _ in range(CALIBRATION_EDGE):
            samples.append(calibrate.sample())

    result = {
        "ops": records,
        "bounds": bounds,
        "samples": samples,
        "out_bytes": [_size(out_dir / f"op-{j:06d}{suffix}") for j in range(i)],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result.update(spans=tracer.spans, counts=tracer.counts,
                      gauges=tracer.gauges, missing=tracer.missing)
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
