"""One measured pass of one workload, in a fresh process.

Usage: python3 child.py WORKLOAD SEED TRACE SPAWN_TIME

SPAWN_TIME is the parent's ``time.monotonic()`` just before it started this
process (the clock is system-wide on Linux), so set-up time covers
interpreter start, ``import hsw`` and input generation.  The pass prints one
JSON line on stdout.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time

CALIBRATION_LOOPS = 1_000_000


def calibrate() -> float:
    """A fixed pure-Python loop; its time tracks how fast this process runs."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        acc += i * i % 7
    if acc != 1_999_998:
        raise RuntimeError("calibration loop miscounted")
    return time.perf_counter() - t0


def digest(outputs: dict) -> str:
    blob = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def main(argv) -> dict:
    name, seed, trace, spawned = argv[0], int(argv[1]), argv[2] == "1", float(argv[3])
    calib_s = calibrate()
    import hsw  # noqa: F401  (set-up time includes the import)
    from workloads import WORKLOADS

    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    work = WORKLOADS[name](seed)

    outputs, failures = {}, []
    first = time.monotonic()
    t0, c0 = time.perf_counter(), time.process_time()
    for i, op in enumerate(work.ops):
        if tracer:
            tracer.op = i
        try:
            ok, out = op.run()
        except Exception as exc:  # a raising operation is a failed operation
            ok, out = False, f"{type(exc).__name__}: {exc}"
        if not ok:
            failures.append(op.key)
        outputs[op.key] = out
    wall_s = time.perf_counter() - t0
    cpu_s = time.process_time() - c0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {
        "ops": len(work.ops),
        "failures": failures[:20],
        "failed": len(failures),
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "setup_s": first - spawned - calib_s,
        "peak_rss_mb": peak_rss_mb,
        "calib_s": calib_s,
    }
    if tracer:
        result["layers"] = tracer.metrics()
        out_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write_spans(os.path.join(out_dir, f"spans-{name}-{seed}.jsonl"))
    result["check_failures"] = work.check()
    result["digest"] = digest(outputs)
    return result


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
