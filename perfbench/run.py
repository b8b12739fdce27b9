"""Benchmark of qfourier: three workloads, checked outputs, optional tracing.

    python3 perfbench/run.py --workload check-suite --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from its
``src`` directory.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Each
run also writes its result (and, traced, its spans) under perfbench/results.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: every workload is one caller.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

# Set-ups per run; setup_s is their median.
SETUP_REPS = 3


def import_program():
    """Import qfourier from this checkout's src directory, or raise ImportError."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import qfourier

    if Path(qfourier.__file__).resolve().parent.parent != src:
        raise ImportError(f"qfourier imported from {qfourier.__file__}, not {src}")
    return qfourier


def _same(a, b) -> bool:
    import numpy as np

    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def measure(wl, seconds: float, setup_reps: int, smoke: bool, tracer=None) -> dict:
    """Set up ``setup_reps`` times, then run whole passes for ``seconds``.

    Untraced, every interval is scaled to the nominal machine speed by a
    speed probe (speed.py); traced, intervals are plain wall time.  Every
    later pass must reproduce the first pass's outputs exactly; the first
    pass's outputs are checked after the timed passes, once peak RSS has been
    read, so that reference work shows in neither time nor memory.
    """
    from reference import Checks
    from speed import SpeedProbe

    def phase(name):
        if tracer is not None:
            tracer.phase(name)

    checks = Checks()
    probe = None if tracer is not None else SpeedProbe()
    setup_spans: list[tuple[float, float]] = []
    op_spans: list[tuple[int, float, float]] = []
    attempted = failed = passes = 0
    if probe is not None:
        probe.start()
    try:
        for _ in range(setup_reps):
            wl.release()
            phase("setup")
            t0 = time.perf_counter()
            wl.setup()
            setup_spans.append((t0, time.perf_counter()))
            phase(None)
        ops = wl.ops()
        outputs: list = [None] * len(ops)
        firsts: list = [None] * len(ops)
        if hasattr(wl, "begin"):
            wl.begin()
        start = last_end = time.perf_counter()
        # Whole passes, as long as one more, as long as the last, ends within
        # ``seconds``: a run never measures past its length, bar one pass.
        while passes == 0 or (not smoke
                              and 2 * last_end - last_start - start <= seconds):
            last_start = last_end
            for i, op in enumerate(ops):
                attempted += 1
                phase("pass")
                t0 = time.perf_counter()
                try:
                    out = wl.run(op)
                except Exception:  # a failing op is counted, and the run goes on
                    phase(None)
                    failed += 1
                    if failed == 1:
                        traceback.print_exc(file=sys.stderr)
                    continue
                op_spans.append((i, t0, time.perf_counter()))
                phase(None)
                if firsts[i] is None:
                    outputs[i], firsts[i] = out, wl.fingerprint(out)
                else:
                    checks.require(f"op {i} repeats its first output",
                                   _same(firsts[i], wl.fingerprint(out)))
            passes += 1
            last_end = time.perf_counter()
    finally:
        if probe is not None:
            probe.stop()
        if hasattr(wl, "end"):
            wl.end()
    # Read before the references are computed, so their memory is not counted.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    wl.prepare(checks)
    for i, op in enumerate(ops):
        if outputs[i] is not None:
            wl.check(checks, i, op, outputs[i])
    if not math.isfinite(checks.min_headroom):
        checks.require("headroom", False, "no check measured a non-zero error")

    def summarize(seconds) -> dict:
        per_op: list[list[float]] = [[] for _ in ops]
        for i, t0, t1 in op_spans:
            per_op[i].append(seconds(t0, t1))
        # Each op's median over the passes; a pass is their sum, and the
        # median op is the median of them.  Ops of a pass differ in cost, so
        # a median over all samples would sit between two ops' clusters.
        medians = [statistics.median(s) for s in per_op if s]
        return {
            "setup_s": statistics.median(seconds(*s) for s in setup_spans),
            "pass_s": sum(medians) if medians else math.nan,
            "op_p50_ms": statistics.median(medians) * 1e3 if medians else math.nan,
            "op_medians_s": medians,
        }

    wall = summarize(lambda t0, t1: t1 - t0)
    return {
        "checks": checks,
        "attempted": attempted,
        "failed": failed,
        "passes": passes,
        "setup_reps": setup_reps,
        "peak_rss_mb": peak_rss_mb,
        "wall": wall,
        **(summarize(probe.scaled) if probe is not None else wall),
        "probe": None if probe is None else probe.summary(),
    }


def end_to_end(m: dict) -> dict:
    checks = m["checks"]
    return {
        "setup_s": {"value": m["setup_s"], "unit": "s"},
        "pass_s": {"value": m["pass_s"], "unit": "s"},
        "op_p50_ms": {"value": m["op_p50_ms"], "unit": "ms"},
        "peak_rss_mb": {"value": m["peak_rss_mb"], "unit": "MB"},
        "min_headroom_dec": {"value": checks.min_headroom
                             if math.isfinite(checks.min_headroom) else 0.0,
                             "unit": "decades"},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["check-suite", "positivity-scan", "markov-apply"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one set-up and one pass over a shortened op list")
    args = parser.parse_args(argv)

    try:
        import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import qfourier from this checkout: {exc}",
              file=sys.stderr)
        return 2

    from spans import Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, args.smoke)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    try:
        m = measure(wl, args.seconds, 1 if args.smoke else SETUP_REPS, args.smoke, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()

    checks = m["checks"]
    for failure in checks.failures[:20]:
        print(f"CHECK FAILED {failure}", file=sys.stderr)
    metrics = (tracer.metrics(m["setup_reps"], m["passes"]) if tracer is not None
               else end_to_end(m))
    summary = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "passes": m["passes"],
        "checks": checks.count, "check_failures": checks.failures,
        "lowest_headrooms": sorted(checks.headrooms)[:12],
        "pass_s": m["pass_s"], "op_p50_ms": m["op_p50_ms"], "setup_s": m["setup_s"],
        "op_medians_s": m["op_medians_s"],
        "wall": m["wall"], "probe": m["probe"], "peak_rss_mb": m["peak_rss_mb"],
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}{'-trace' if args.trace else ''}"
    if tracer is not None:
        tracer.dump(RESULTS / f"{stem}-spans.json", summary)
    result = {"correct": checks.correct, "attempted": m["attempted"],
              "failed": m["failed"], "metrics": metrics}
    (RESULTS / f"{stem}.json").write_text(json.dumps({"summary": summary,
                                                      "result": result}, indent=1))
    print(f"{args.workload}: {m['passes']} passes, {m['attempted']} ops, "
          f"{m['failed']} failed, {checks.count} checks"
          + ("" if checks.correct else f", {len(checks.failures)} FAILED")
          + f"; pass_s {m['pass_s']:.4f} s{' (traced)' if tracer else ''}, "
          f"worst headroom in '{checks.worst}'")
    if tracer is None:
        for name, metric in metrics.items():
            print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
