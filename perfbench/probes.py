"""Stress probes: the slow or failing rows of the ROADMAP baseline, run once.

Usage (from the repository root):  python3 perfbench/probes.py

Each probe runs in its own child process with a time cap of ``CAP_S``
seconds and reports its status (``ok``, ``fail``, ``timeout`` or the name of
the exception it raised) and the seconds it took.  The probes are not part
of the gated workloads: they show known defects as they are, at the sizes
the ROADMAP names.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
CAP_S = 60


def _bernstein_g2_box2():
    from hsw import datum_preset, verify
    return verify.check_bernstein(datum_preset("G2"), box=2)["pass"]


def _oracle_a1_word3():
    from hsw import datum_preset, verify
    return verify.check_oracle(datum_preset("A1"), max_word=3)["pass"]


def _canonical_a1_200():
    from hsw import canonical_basis, datum_preset
    return canonical_basis(datum_preset("A1"), (200,)).coeff((200,)).at_one() == 1


def _freudenthal_a1_3000():
    from hsw import datum_preset, freudenthal_mult
    return freudenthal_mult(datum_preset("A1"), (3000,), (0,)) == 1


PROBES = {
    "check_bernstein(G2, box=2)": _bernstein_g2_box2,
    "check_oracle(A1, max_word=3)": _oracle_a1_word3,
    "canonical_basis(A1, (200,))": _canonical_a1_200,
    "freudenthal_mult(A1, (3000,), (0,))": _freudenthal_a1_3000,
}


def run_one(name: str) -> dict:
    t0 = time.perf_counter()
    try:
        status = "ok" if PROBES[name]() else "fail"
    except Exception as exc:  # the exception type is the probe's result
        status = type(exc).__name__
    return {"status": status, "seconds": time.perf_counter() - t0}


def main() -> int:
    if not (SRC / "hsw" / "__init__.py").is_file():
        print(f"error: no hsw package under {SRC}", file=sys.stderr)
        return 2
    env = {k: v for k, v in os.environ.items() if k != "HSW_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    results = {}
    for name in PROBES:
        t0 = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, __file__, name], env=env,
                                  capture_output=True, text=True, timeout=CAP_S)
            lines = proc.stdout.strip().splitlines()
            row = (json.loads(lines[-1]) if proc.returncode == 0 and lines else
                   {"status": f"exit {proc.returncode}",
                    "seconds": time.perf_counter() - t0})
        except subprocess.TimeoutExpired:
            row = {"status": "timeout", "seconds": time.perf_counter() - t0}
        results[name] = row
        print(f"{name:<40} {row['status']:<15} {row['seconds']:8.2f} s", flush=True)
    print(json.dumps({"cap_s": CAP_S, "probes": results}))
    return 0


if __name__ == "__main__":
    if len(sys.argv) == 2:
        print(json.dumps(run_one(sys.argv[1])))
    else:
        sys.exit(main())
