"""The benchmark's own test.  Usage (from the repository root):

    python3 perfbench/selfcheck.py

It checks, and exits with 1 if any of these fails:

1. the tracer is alias-complete: after it is installed no hsw module, no hsw
   class and no entry of ``verify.CHECKS`` still binds a function it wraps;
2. a traced pass reports every per-layer metric named in BENCHMARK.json;
3. each listed ``.calls`` counter is nonzero on its home workload (``HOME``),
   so that a counter cannot stay at zero unnoticed;
4. counts and ``.entries`` repeat exactly between two traced passes at the
   same seed;
5. the output digest equals the golden digest under PYTHONHASHSEED 0 and 1.
"""

from __future__ import annotations

import sys

import run

HOME = {
    "laurent.mul.calls": "verify-presets",
    "laurent.add.calls": "verify-presets",
    "mpoly.mul.calls": "oracle-grid",
    "rootdata.weyl_mul.calls": "verify-presets",
    "affine.mul_simple.calls": "canonical-sweep",
    "affine.min_rep.calls": "canonical-sweep",
    "hecke.hecke_mul.calls": "verify-presets",
    "hecke.hecke_theta.calls": "verify-presets",
    "spherical.canonical_basis.calls": "canonical-sweep",
    "spherical.sph_act.calls": "verify-presets",
    "spherical.hom_rank.calls": "oracle-grid",
    "qanalogue.lusztig_q.calls": "canonical-sweep",
    "qanalogue.kostant_q.calls": "canonical-sweep",
    "soergel.bs_module.calls": "oracle-grid",
    "soergel.tensor.calls": "oracle-grid",
    "soergel.hom_graded_rank.calls": "oracle-grid",
}
ADDED_BY_RUN = ("trace.overhead_s", "machine.calib_s")


def alias_leaks() -> list[str]:
    sys.path.insert(0, str(run.SRC))
    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
    from hsw import verify
    originals = {id(fn) for fn in tracer.originals}
    leaks = [f"verify.CHECKS[{k!r}]" for k, v in verify.CHECKS.items() if id(v) in originals]
    for name, mod in list(sys.modules.items()):
        if name != "hsw" and not name.startswith("hsw."):
            continue
        for attr, value in vars(mod).items():
            if id(value) in originals:
                leaks.append(f"{name}.{attr}")
            elif isinstance(value, type) and value.__module__ == name:
                leaks += [f"{name}.{attr}.{k}" for k, v in vars(value).items()
                          if id(v) in originals]
    return leaks


def main() -> int:
    spec = run.load_json(run.ROOT / "BENCHMARK.json")
    sys.path.insert(0, str(run.HERE))
    from workloads import WORKLOADS
    golden = run.load_json(run.HERE / "golden.json")
    problems = [f"tracer misses alias {leak}" for leak in alias_leaks()]
    listed = [m["name"] for m in spec["per_layer"] if m["name"] not in ADDED_BY_RUN]
    problems += [f"{name} has no home workload" for name in listed
                 if name.endswith(".calls") and name not in HOME]

    for workload in WORKLOADS:
        first = run.run_child(workload, run.DEFAULT_SEED, True, 0)
        second = run.run_child(workload, run.DEFAULT_SEED, True, 0)
        other_hash = run.run_child(workload, run.DEFAULT_SEED, False, 1)
        broken = [r["error"] for r in (first, second, other_hash) if "error" in r]
        if broken:
            problems += [f"{workload}: {e}" for e in broken]
            continue
        layers = first["layers"]
        problems += [f"{workload}: {name} not reported" for name in listed
                     if name not in layers]
        problems += [f"{workload}: {name} is 0 on its home workload"
                     for name, home in HOME.items()
                     if home == workload and not layers.get(name)]
        exact = [k for k in layers if k.endswith((".calls", ".entries", ".cutoff_errors"))]
        problems += [f"{workload}: {k} differs between traced passes "
                     f"({layers[k]} vs {second['layers'][k]})"
                     for k in exact if layers[k] != second["layers"][k]]
        for r, hash_seed in ((first, 0), (other_hash, 1)):
            if r["digest"] != golden[workload]:
                problems.append(f"{workload}: digest {r['digest']} under PYTHONHASHSEED="
                                f"{hash_seed}, golden {golden[workload]}")
            if r["failed"] or r["check_failures"]:
                problems.append(f"{workload}: failures {r['failures'] + r['check_failures']}")
        print(f"{workload}: {len(exact)} exact counters, digest {first['digest']}",
              flush=True)

    for line in problems:
        print(f"FAIL {line}")
    print("selfcheck " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
