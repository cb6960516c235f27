"""Cross-checks wiring the independent computation paths against each other.

Each check is registered in ``CHECKS`` under its name by ``_check(name)``, and
returns a report: a verdict, the number of cases inspected, a short list of
failing cases and its seconds.  ``run_suite`` collects the reports.
The command line ``verify`` verb prints these reports and the test suite
asserts on them.
"""

from __future__ import annotations

import itertools
import os
import random
import time
from functools import wraps

from .affine import (affine_identity, length_box, min_rep, omega_elements,
                     reduced_word, simple_reflections, translation)
from .hecke import hecke_mul, hecke_T, verify_bernstein, verify_quadratic_all
from .laurent import ONE, v_power
from .qanalogue import freudenthal_mult, kato_grid, lusztig_q, weights_of_irrep
from .rootdata import RootDatum
from .soergel import (atom_alphabet, atom_E, atom_for, bs_module, modules_equal,
                      oracle_vs_hecke, tensor)
from .spherical import (bs_char, canonical_basis, decompose_bs, fl_bs_char, sph_act,
                        sph_bar, sph_project)


def _twists(datum: RootDatum):
    """Length-zero elements to seed walks from; just the identity when the
    fundamental group is infinite."""
    if datum.fundamental_group_order() is None:
        return (affine_identity(datum),)
    return omega_elements(datum)


CHECKS: dict = {}  # name -> check, in the order registered
_MODULES_TRIALS = 6  # random cases of each law in check_modules


def _check(name: str):
    """Register a check under name.  The body returns (checked, failures,
    detail); the function registered and bound in its place returns the report."""
    def register(body):
        @wraps(body)
        def check(*args, **kwargs) -> dict:
            started = time.perf_counter()
            checked, failures, detail = body(*args, **kwargs)
            return {"name": name, "pass": not failures, "checked": checked,
                    "failures": [str(f) for f in failures[:8]],
                    "seconds": round(time.perf_counter() - started, 3), "detail": detail}
        CHECKS[name] = check
        return check
    return register


@_check("quadratic")
def check_quadratic(datum: RootDatum):
    """Every generator satisfies the quadratic relation."""
    rows = verify_quadratic_all(datum)
    bad = [r["generator"] for r in rows if not r["pass"]]
    return len(rows), bad, "finite and affine generators"


@_check("bernstein")
def check_bernstein(datum: RootDatum, box: int = 1):
    """The defining relations of the commutative family on a coordinate box."""
    rows = verify_bernstein(datum, box)
    bad = [f"{r['relation']}:{r['case']}" for r in rows if not r["pass"]]
    return len(rows), bad, f"box={box}"


@_check("length")
def check_length_bfs(datum: RootDatum, max_len: int = 3):
    """The closed length formula equals word distance from the length-zero set.

    Breadth-first search over right multiplication by the generators grows
    the group layer by layer; the layer index must match the formula on
    every element reached.
    """
    simples = simple_reflections(datum)
    frontier = list(_twists(datum))
    seen = {x: 0 for x in frontier}
    bad = [f"omega {x!r} has length {x.length}" for x in frontier if x.length != 0]
    dist = 0
    while frontier and dist < max_len:
        dist += 1
        nxt = []
        for x in frontier:
            for s in simples:
                y = x * s.elt
                if y not in seen:
                    seen[y] = dist
                    nxt.append(y)
        frontier = nxt
    for x, k in seen.items():
        if x.length != k:
            bad.append(f"{x!r}: formula {x.length}, word distance {k}")
    return len(seen), bad, f"max_len={max_len}, elements={len(seen)}"


def weights_by_length(datum: RootDatum, max_len: int) -> list:
    """All weights whose coset representative has length at most max_len,
    in lexicographic order."""
    return [lam for lam in length_box(datum, max_len)
            if min_rep(datum, lam).length <= max_len]


@_check("canonical")
def check_canonical(datum: RootDatum, max_len: int = 3):
    """The canonical basis on all weights up to a length bound, against the
    properties that determine it.

    For each weight: bar-invariance, the leading coefficient 1, and lower
    terms at strictly shorter weights with coefficients in v^-1 Z[v^-1].
    These determine the element: as the bar of m_mu is m_mu plus shorter
    terms, the difference of two such elements has a bar-invariant
    coefficient in v^-1 Z[v^-1] at a longest weight, which is 0.  The bar
    comes from the T-basis (``sph_bar``), not from the C_s action.  A weight
    that fails either of the first two is not tested further.  On top:
    nonnegative coefficients and chain multiplicities.
    """
    bad = []
    weights = weights_by_length(datum, max_len)
    for lam in weights:
        b = canonical_basis(datum, lam)
        if sph_bar(b) != b:
            bad.append(f"{lam}: not bar invariant")
            continue
        top_len = min_rep(datum, lam).length
        if b.coeff(lam) != ONE:
            bad.append(f"{lam}: leading coefficient {b.coeff(lam)}")
            continue
        for mu in b.support():
            if mu == lam:
                continue
            c = b.coeff(mu)
            if min_rep(datum, mu).length >= top_len:
                bad.append(f"{lam}: term at {mu} is not strictly lower")
            if not c.in_v_inverse():
                bad.append(f"{lam}: coefficient at {mu} is {c}")
            if not c.is_nonnegative():
                bad.append(f"{lam}: negative coefficient at {mu}")
        omega, word = reduced_word(min_rep(datum, lam))
        mults = decompose_bs(datum, omega, word)
        for mu, c in mults.items():
            if not c.is_nonnegative():
                bad.append(f"{lam}: chain multiplicity at {mu} is {c}")
        if mults.get(lam) != ONE:
            bad.append(f"{lam}: chain does not contain its own weight once")
    return len(weights), bad, f"max_len={max_len}, weights={len(weights)}"


@_check("kato")
def check_kato(datum: RootDatum, max_len: int = 3):
    """Canonical-basis coefficients against graded weight multiplicities."""
    rows = kato_grid(datum, max_len)
    bad = [f"{r['lambda']},{r['mu']}: {r['lhs']} vs {r['rhs']}"
           for r in rows if not r["pass"]]
    return len(rows), bad, f"max_len={max_len}"


@_check("multiplicity")
def check_multiplicity(datum: RootDatum, box: int = 1):
    """Graded multiplicities at q = 1 against the Freudenthal recursion."""
    checked = 0
    bad = []
    for eta in itertools.product(range(box + 1), repeat=datum.rank):
        if not datum.is_dominant(eta):
            continue
        for chi in weights_of_irrep(datum, eta):
            graded = lusztig_q(datum, chi, eta)
            if graded.at_one() != freudenthal_mult(datum, eta, chi):
                bad.append(f"eta={eta}, chi={chi}")
            checked += 1
    return checked, bad, f"box={box}"


@_check("projection")
def check_projection(datum: RootDatum, n_random: int = 50, max_len: int = 3, seed: int = 7):
    """Projection intertwines the products: act(project(a), b) = project(a*b)."""
    rng = random.Random(seed)
    simples = simple_reflections(datum)
    omegas = _twists(datum)

    def random_elt():
        x = rng.choice(omegas)
        for _ in range(rng.randrange(max_len + 1)):
            x = x * rng.choice(simples).elt
        return x

    bad = []
    for _ in range(n_random):
        x, y = random_elt(), random_elt()
        a, b = hecke_T(x), hecke_T(y)
        if sph_act(sph_project(a), b) != sph_project(hecke_mul(a, b)):
            bad.append(f"x={x!r}, y={y!r}")
    return n_random, bad, f"max_len={max_len}, seed={seed}"


@_check("pushforward")
def check_pushforward(datum: RootDatum, max_word: int = 3):
    """Chains built in the algebra project onto chains built in the module.

    The algebra chain of a twist omega and a word is T_omega times the
    product of the C_s = T_s + v^-1 of the word (``fl_bs_char``); each is
    built from the chain of the word without its last letter.
    """
    simples = simple_reflections(datum)
    c_s = {s: fl_bs_char(datum, (s,)) for s in simples}
    checked = 0
    bad = []
    for omega in _twists(datum):
        algebra = {(): hecke_T(omega)}
        for n in range(max_word + 1):
            for word in itertools.product(simples, repeat=n):
                if word:
                    algebra[word] = hecke_mul(algebra[word[:-1]], c_s[word[-1]])
                lhs = sph_project(algebra[word])
                if lhs != bs_char(datum, omega, word):
                    bad.append(f"omega={omega!r}, word={[s.label for s in word]}")
                checked += 1
    return checked, bad, f"max_word={max_word}"


@_check("oracle")
def check_oracle(datum: RootDatum, max_word: int | None = None, cutoff: int = 16):
    """Graded Hom ranks of chain modules against the pairing prediction.

    In rank one the whole alphabet is available; otherwise only the finite
    wall atoms exist and affine letters are skipped.
    """
    if max_word is None:
        max_word = 2 if datum.rank == 1 else 1
    alphabet = atom_alphabet(datum)
    e = affine_identity(datum)
    chains = [(om, ()) for om in _twists(datum)]
    for n in range(1, max_word + 1):
        for word in itertools.product(alphabet, repeat=n):
            chains.append((e, word))
    bad = []
    for left in chains:
        for right in chains:
            row = oracle_vs_hecke(datum, left, right, cutoff=cutoff)
            if not row["pass"]:
                bad.append(f"{row['left']} vs {row['right']}: "
                           f"{row['oracle']} != {row['predicted']}")
    return len(chains) ** 2, bad, f"max_word={max_word}, cutoff={cutoff}, chains={len(chains)}"


@_check("modules")
def check_modules(datum: RootDatum, seed: int = 7):
    """Structural laws of the module category on random small chains.

    Construction itself validates commutation and homogeneity; on top of
    that the tensor product must be associative, unital, and multiplicative
    on graded ranks, and rank-one twists must compose.
    """
    rng = random.Random(seed)
    alphabet = atom_alphabet(datum)
    e = affine_identity(datum)
    unit = atom_E(datum, e)
    bad = []
    checked = 0
    for _ in range(_MODULES_TRIALS):
        word = tuple(rng.choice(alphabet) for _ in range(rng.randrange(1, 4)))
        m = bs_module(datum, e, word)
        if m.grk() != (v_power(-1) + v_power(1)) ** len(word):
            bad.append(f"grk of {[s.label for s in word]}")
        if not modules_equal(tensor(unit, m), m):
            bad.append(f"left unit on {[s.label for s in word]}")
        if not modules_equal(tensor(m, unit), m):
            bad.append(f"right unit on {[s.label for s in word]}")
        checked += 3
    for _ in range(_MODULES_TRIALS):
        atoms = [atom_for(datum, rng.choice(alphabet)) for _ in range(3)]
        lhs = tensor(tensor(atoms[0], atoms[1]), atoms[2])
        rhs = tensor(atoms[0], tensor(atoms[1], atoms[2]))
        if not modules_equal(lhs, rhs):
            bad.append("associativity on random atoms")
        checked += 1
    box = list(itertools.product(range(-1, 2), repeat=datum.rank))
    for _ in range(_MODULES_TRIALS):
        x = rng.choice(_twists(datum)) * translation(datum, rng.choice(box))
        y = rng.choice(_twists(datum)) * translation(datum, rng.choice(box))
        if not modules_equal(tensor(atom_E(datum, x), atom_E(datum, y)), atom_E(datum, x * y)):
            bad.append(f"twist composition at {x!r}, {y!r}")
        checked += 1
    return checked, bad, f"seed={seed}"


# the graded-module side; the other checks are the T-basis side
MODULE_CHECKS = frozenset({"canonical", "kato", "multiplicity", "oracle", "modules"})


def _cpu_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_jobs(datum: RootDatum, jobs, knobs):
    """Yield (position, report) per (position, name) job, in order, and
    (position, exception) for the first job that raises; then stop."""
    for pos, name in jobs:
        try:
            yield pos, CHECKS[name](datum, **knobs.get(name, {}))
        except Exception as exc:
            yield pos, exc
            return


def _run_forked(datum: RootDatum, here, there, knobs) -> dict:
    """Run the jobs ``there`` in a forked worker while this process runs the
    jobs ``here``; return position -> report or exception for both sides.

    The worker pickles one pair per job through a pipe and leaves through
    ``os._exit``; a job whose pair does not arrive has no result.  The
    worker is reaped before this returns, or killed and reaped when this
    process raises first.
    """
    import pickle
    import signal
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(rfd)
            with os.fdopen(wfd, "wb") as pipe:
                for pair in _run_jobs(datum, there, knobs):
                    pipe.write(pickle.dumps(pair))
                    pipe.flush()
        finally:
            os._exit(0)
    os.close(wfd)
    done = False
    try:
        with os.fdopen(rfd, "rb") as pipe:
            results = dict(_run_jobs(datum, here, knobs))
            while True:
                try:
                    pos, value = pickle.load(pipe)
                except (EOFError, pickle.UnpicklingError):  # end, or a cut pair
                    break
                results[pos] = value
        done = True
    finally:
        if not done:
            os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    return results


def run_suite(datum: RootDatum, names=None, **knobs) -> list[dict]:
    """Run the named checks with per-check keyword knobs.

    With no names, every check that applies to the datum runs: all of them,
    except ``canonical`` and ``kato`` when the datum has central directions,
    since their grid of weights is then infinite.  knobs maps a check name
    to a dict of keyword arguments for it, for example
    run_suite(d, bernstein={"box": 2}); knobs of checks not run are unused.
    With two CPUs and ``os.fork``, one forked worker runs the
    ``MODULE_CHECKS`` while this process runs the rest; reports keep the
    requested order either way.  The first check in that order that raised
    raises here.
    """
    if names is None:
        names = [n for n in CHECKS if n not in ("canonical", "kato")
                 or datum.fundamental_group_order() is not None]
    for name in names:
        if name not in CHECKS:
            raise ValueError(f"unknown check {name!r}; known: {', '.join(CHECKS)}")
    jobs = list(enumerate(names))
    there = [job for job in jobs if job[1] in MODULE_CHECKS]
    here = [job for job in jobs if job[1] not in MODULE_CHECKS]
    if here and there and hasattr(os, "fork") and _cpu_count() > 1:
        results = _run_forked(datum, here, there, knobs)
    else:
        results = dict(_run_jobs(datum, jobs, knobs))
    reports = []
    for pos, name in jobs:
        if pos not in results:
            raise RuntimeError(f"the verify worker ended without a result for {name!r}")
        if isinstance(results[pos], Exception):
            raise results[pos]
        reports.append(results[pos])
    return reports
