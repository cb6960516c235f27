"""Acceptance gate: end-to-end exact identities with time budgets.

Every check is an exact integer Laurent identity (tolerance zero) and each
test prints a single ACCEPTANCE line with its verdict and timing.
"""

import time

from hsw.affine import affine_identity, omega_elements, simple_reflections
from hsw.hecke import verify_bernstein, verify_quadratic_affine
from hsw.laurent import ONE, LaurentPoly, v_power
from hsw.qanalogue import kato_grid
from hsw.rootdata import datum_preset
from hsw.soergel import CutoffError, oracle_vs_hecke
from hsw.spherical import (SphElt, bs_char, canonical_basis, decompose_bs,
                           hom_rank)
from hsw.verify import (check_canonical, check_length_bfs, check_multiplicity,
                        check_projection, check_pushforward)


def _verdict(n: int, label: str, failures: list, elapsed: float, budget: float) -> None:
    ok = not failures and elapsed < budget
    print(f"ACCEPTANCE {n} {label}: {'PASS' if ok else 'FAIL'} "
          f"({elapsed:.2f}s of {budget:.0f}s budget)")
    assert not failures, failures[:5]
    assert elapsed < budget, f"budget exceeded: {elapsed:.2f}s >= {budget}s"


def test_acceptance_1_bernstein_relations():
    started = time.perf_counter()
    failures = []
    for name, box in (("A1", 2), ("A2", 2), ("B2", 1)):
        for row in verify_bernstein(datum_preset(name), box):
            if not row["pass"]:
                failures.append(f"{name}: {row['relation']} at {row['case']}")
    _verdict(1, "bernstein relations", failures, time.perf_counter() - started, 30.0)


def test_acceptance_2_quadratic_affine():
    started = time.perf_counter()
    failures = []
    for name in ("A1", "A2", "B2"):
        for row in verify_quadratic_affine(datum_preset(name)):
            if not row["pass"]:
                failures.append(f"{name}: generator {row['generator']}")
    _verdict(2, "quadratic relation", failures, time.perf_counter() - started, 5.0)


def test_acceptance_3_length_vs_bfs():
    started = time.perf_counter()
    failures = []
    for name, bound in (("A1", 6), ("A2", 5)):
        r = check_length_bfs(datum_preset(name), max_len=bound)
        if not r["pass"]:
            failures.extend(f"{name}: {f}" for f in r["failures"])
        if r["checked"] == 0:
            failures.append(f"{name}: empty length enumeration")
    _verdict(3, "length formula vs BFS", failures, time.perf_counter() - started, 60.0)


def test_acceptance_4_rank_one_goldens():
    started = time.perf_counter()
    failures = []
    a1 = datum_preset("A1")
    e = affine_identity(a1)
    s, s0 = simple_reflections(a1)
    cases = [
        ("one-step chain", bs_char(a1, e, (s0,)),
         SphElt(a1, {(-2,): ONE, (0,): v_power(-1)})),
        ("two-step chain", bs_char(a1, e, (s0, s)),
         SphElt(a1, {(2,): ONE, (-2,): v_power(-1),
                     (0,): LaurentPoly({-2: 1, 0: 1})})),
        ("canonical at the root", canonical_basis(a1, (2,)),
         SphElt(a1, {(2,): ONE, (-2,): v_power(-1), (0,): v_power(-2)})),
        ("self pairing, finite step", hom_rank(a1, (e, (s,)), (e, (s,))),
         LaurentPoly({-2: 1, 0: 2, 2: 1})),
        ("self pairing, affine step", hom_rank(a1, (e, (s0,)), (e, (s0,))),
         LaurentPoly({0: 1, 2: 1})),
    ]
    for label, got, want in cases:
        if got != want:
            failures.append(f"{label}: {got!r} != {want!r}")
    dec = decompose_bs(a1, e, (s0, s))
    if dec != {(2,): ONE, (0,): ONE}:
        failures.append(f"decomposition: {dec!r}")
    _verdict(4, "rank-one goldens", failures, time.perf_counter() - started, 30.0)


def test_acceptance_5_canonical_suite():
    started = time.perf_counter()
    failures = []
    for name, bound, expect in (("A1", 6, 14), ("A2", 5, 36)):
        r = check_canonical(datum_preset(name), max_len=bound)
        if not r["pass"]:
            failures.extend(f"{name}: {f}" for f in r["failures"])
        if r["checked"] != expect:
            failures.append(f"{name}: {r['checked']} weights, expected {expect}")
    _verdict(5, "canonical basis suite", failures, time.perf_counter() - started, 120.0)


def test_acceptance_6_kato_grid():
    started = time.perf_counter()
    failures = []
    for name, bound, expect in (("A1", 6, 64), ("A2", 4, 100)):
        rows = kato_grid(datum_preset(name), bound)
        if len(rows) != expect:
            failures.append(f"{name}: {len(rows)} pairs, expected {expect}")
        failures.extend(f"{name}: lambda={r['lambda']} mu={r['mu']}"
                        for r in rows if not r["pass"])
    _verdict(6, "graded multiplicity identity", failures, time.perf_counter() - started, 300.0)


def test_acceptance_7_q_one_specialization():
    started = time.perf_counter()
    failures = []
    for name, box in (("A1", 2), ("A2", 2), ("B2", 1)):
        r = check_multiplicity(datum_preset(name), box=box)
        if not r["pass"]:
            failures.extend(f"{name}: {f}" for f in r["failures"])
        if r["checked"] == 0:
            failures.append(f"{name}: empty multiplicity sweep")
    _verdict(7, "q=1 multiplicity oracle", failures, time.perf_counter() - started, 60.0)


def test_acceptance_8_module_oracle_grid():
    started = time.perf_counter()
    failures = []
    a1 = datum_preset("A1")
    e = affine_identity(a1)
    s, s0 = simple_reflections(a1)
    twist = [om for om in omega_elements(a1) if om.lam != (0,) * a1.rank][0]
    chains = [(e, ()), (twist, ()), (e, (s,)), (e, (s0,)),
              (e, (s, s0)), (e, (s0, s))]
    pairs = 0
    for left in chains:
        for right in chains:
            pairs += 1
            try:
                row = oracle_vs_hecke(a1, left, right, cutoff=16)
            except CutoffError as err:
                failures.append(f"residue at {left} vs {right}: {err}")
                continue
            if not row["pass"]:
                failures.append(f"{row['left']} vs {row['right']}: "
                                f"{row['oracle']} != {row['predicted']}")
    if pairs != 36:
        failures.append(f"{pairs} pairs, expected 36")
    _verdict(8, "graded module oracle", failures, time.perf_counter() - started, 120.0)


def test_acceptance_9_projection_and_pushforward():
    started = time.perf_counter()
    failures = []
    for name in ("A1", "A2"):
        datum = datum_preset(name)
        r = check_projection(datum, n_random=100, max_len=4, seed=11)
        if not r["pass"]:
            failures.extend(f"{name} projection: {f}" for f in r["failures"])
        if r["checked"] != 100:
            failures.append(f"{name}: {r['checked']} random pairs, expected 100")
        p = check_pushforward(datum, max_word=3)
        if not p["pass"]:
            failures.extend(f"{name} pushforward: {f}" for f in p["failures"])
    _verdict(9, "projection and pushforward", failures, time.perf_counter() - started, 30.0)
