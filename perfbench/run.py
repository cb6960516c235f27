"""hsw benchmark: time to a verified verdict, per workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload verify-presets --seed 7 --seconds 55 --trace 0

The load is a closed loop with one client: each pass of the workload runs in
a fresh child process (``child.py``), one operation after the other, and the
next pass starts when the last one has ended, until ``--seconds`` have
passed.  Timings are medians over the passes.  With ``--trace 1`` the run
alternates an untraced and a traced pass and reports the per-layer metrics
of the traced ones instead.  See README.md in this directory.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 150
RUN_LIMIT_S = 150          # a run ends well inside three minutes
DEFAULT_SEED = 7



def load_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def run_child(workload: str, seed: int, trace: bool, hash_seed: int) -> dict:
    """One pass in a fresh interpreter; a crash or timeout is a failed pass."""
    env = {k: v for k, v in os.environ.items() if k != "HSW_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = str(hash_seed)
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed),
           "1" if trace else "0", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"pass timed out after {CHILD_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"pass exited with {proc.returncode}: {tail[0]}"}
    return json.loads(lines[-1])


def judge(workload: str, passes: list) -> tuple[int, int, list]:
    """Count attempted and failed operations over all passes.

    A pass that crashed counts as one failed operation; so does a pass whose
    output digest differs from the golden digest, or from the other passes
    (which ran under other hash seeds).
    """
    expected = load_json(HERE / "golden.json")[workload]
    attempted = failed = 0
    problems = []
    digests = set()
    for i, r in enumerate(passes):
        if "error" in r:
            attempted += 1
            failed += 1
            problems.append(f"pass {i}: {r['error']}")
            continue
        attempted += r["ops"]
        failed += r["failed"] + len(r["check_failures"])
        problems += [f"pass {i}: failed {k}" for k in r["failures"]]
        problems += [f"pass {i}: {c}" for c in r["check_failures"][:20]]
        digests.add(r["digest"])
        if r["digest"] != expected:
            failed += 1
            problems.append(f"pass {i}: digest {r['digest']} != golden {expected}")
    if len(digests) > 1:
        failed += 1
        problems.append(f"digests differ between passes: {sorted(digests)}")
    return attempted, failed, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hsw" / "__init__.py").is_file():
        print(f"error: no hsw package under {SRC}", file=sys.stderr)
        return 2
    spec = load_json(ROOT / "BENCHMARK.json")
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2

    # Pass k runs under PYTHONHASHSEED=k: the same hash seeds on every run,
    # and the digest must agree across them.  A pass starts only if one more
    # pass of average length still ends within the run's seconds.
    passes, traced = [], []
    start = time.perf_counter()
    while True:
        k = len(passes)
        passes.append(run_child(args.workload, args.seed, False, k))
        if args.trace:
            traced.append(run_child(args.workload, args.seed, True, k))
        elapsed = time.perf_counter() - start
        if elapsed * (k + 2) / (k + 1) > min(args.seconds, RUN_LIMIT_S):
            break

    attempted, failed, problems = judge(args.workload, passes + traced)
    correct = failed == 0
    ok = [r for r in passes if "error" not in r]
    for line in problems[:40]:
        print(f"FAIL {line}")
    print(f"{args.workload} seed={args.seed}: {len(passes)} untraced passes"
          + (f", {len(traced)} traced" if args.trace else ""))
    metrics = {}
    if not ok:
        correct = False
    elif args.trace:
        good = [r for r in traced if "error" not in r]
        if good:
            for r in good:
                r["layers"]["trace.overhead_s"] = r["wall_s"] - statistics.median(
                    p["wall_s"] for p in ok)
                r["layers"]["machine.calib_s"] = r["calib_s"]
            metrics = {m["name"]: {"value": statistics.median(r["layers"][m["name"]]
                                                              for r in good),
                                   "unit": m["unit"]} for m in spec["per_layer"]}
        else:
            correct = False
    else:
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in ok),
            "setup_s": statistics.median(r["setup_s"] for r in ok),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok),
            "pass_share": 1 - failed / attempted,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    for kind, runs in (("untraced", passes), ("traced", traced)):
        for k, r in enumerate(runs):
            if "error" not in r:
                print(f"  pass {k} {kind}: wall {r['wall_s']:.3f} s, cpu {r['cpu_s']:.3f} s,"
                      f" setup {r['setup_s']:.3f} s, calib {r['calib_s']:.4f} s")
    if ok:
        print(f"  fail_share = {failed / attempted:.6f} ({failed}/{attempted})")
        print(f"  machine.calib_s = {statistics.median(r['calib_s'] for r in ok):.4f} s"
              f" (median over {len(ok)})")
        print(f"  digest = {ok[0]['digest']}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
