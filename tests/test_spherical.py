import itertools
import random
import sys
from functools import partial

import pytest

from hsw.affine import (affine_identity, length_box, min_rep, mul_simple,
                        omega_elements, reduced_word, simple_reflections,
                        translation)
from hsw.hecke import HeckeElt, hecke_T, hecke_mul
from hsw.laurent import ONE, V_INV, ZERO, LaurentPoly, v_power
from hsw.rootdata import datum_preset
from hsw.spherical import (SphElt, _act_terms, _prefix_steps, _strip, bs_char,
                           canonical_basis, decompose_bs, fl_bs_char, hom_rank,
                           m_zero, sph_act, sph_bar, sph_pairing, sph_project)
from hsw.verify import weights_by_length
from hsw.worklist import fill


def test_bs_char_goldens(a1):
    e = affine_identity(a1)
    s, s0 = simple_reflections(a1)
    one_step = bs_char(a1, e, (s0,))
    assert one_step == SphElt(a1, {(-2,): ONE, (0,): v_power(-1)})
    two_step = bs_char(a1, e, (s0, s))
    assert two_step == SphElt(a1, {(2,): ONE,
                                   (-2,): v_power(-1),
                                   (0,): LaurentPoly({-2: 1, 0: 1})})


def test_bs_char_rejects_nonidentity_twist(a1):
    s, _ = simple_reflections(a1)
    with pytest.raises(ValueError):
        bs_char(a1, s.elt, ())


def test_bs_char_nontrivial_twist(a1):
    om = [o for o in omega_elements(a1) if o.lam != (0,)][0]
    assert bs_char(a1, om, ()) == SphElt.basis(a1, om.lam)


def test_canonical_goldens_a1(a1):
    assert canonical_basis(a1, (0,)) == m_zero(a1)
    assert canonical_basis(a1, (-1,)) == SphElt.basis(a1, (-1,))
    assert canonical_basis(a1, (1,)) == SphElt(a1, {(1,): ONE, (-1,): v_power(-1)})
    assert canonical_basis(a1, (-2,)) == SphElt(a1, {(-2,): ONE, (0,): v_power(-1)})
    assert canonical_basis(a1, (2,)) == SphElt(a1, {(2,): ONE,
                                                    (-2,): v_power(-1),
                                                    (0,): v_power(-2)})


def test_canonical_golden_a2(a2):
    b = canonical_basis(a2, (1, 1))
    want = {(1, 1): ONE,
            (2, -1): v_power(-1), (-1, 2): v_power(-1),
            (1, -2): v_power(-2), (-2, 1): v_power(-2),
            (-1, -1): v_power(-3),
            (0, 0): LaurentPoly({-4: 1, -2: 1})}
    assert b == SphElt(a2, want)


def test_canonical_bar_invariant_and_triangular(a1, a2):
    cases = [(a1, (k,)) for k in range(-3, 4)]
    cases += [(a2, lam) for lam in [(1, 0), (0, 2), (1, 1), (-1, 1), (2, 0)]]
    for datum, lam in cases:
        b = canonical_basis(datum, lam)
        assert b.coeff(lam) == ONE
        assert sph_bar(b) == b
        for mu, c in b.items():
            if mu != lam:
                assert c.in_v_inverse()


def canonical_basis_reference(datum, weights):
    """The canonical elements at the given weights by the full-chain algorithm.

    Each start is the chain character of a whole reduced word of w_lam, and
    the strip is its own (``_strip_reference``), which subtracts whole
    elements and rescans after each subtraction.  The memo lives for this call
    only: it never reads or fills the datum's table, so the result is an
    oracle for canonical_basis.
    """
    memo = {}
    steps = partial(_chain_steps, datum)
    return {lam: fill(memo, lam, steps)
            for lam in (tuple(int(x) for x in weight) for weight in weights)}


def _chain_steps(datum, lam):
    """Frame of canonical_basis_reference at lam (see hsw.worklist)."""
    om, word = reduced_word(min_rep(datum, lam))
    return (yield from _strip_reference(datum, lam, bs_char(datum, om, word)))


def _strip_reference(datum, lam, cur):
    """The strip of canonical_basis_reference: the same subtractions as
    ``_strip``, made on whole elements with a rescan after each one."""
    top_len = min_rep(datum, lam).length
    while True:
        bad = [(min_rep(datum, mu).length, mu, f)
               for mu, f in cur._m.items()
               if mu != lam and not f.in_v_inverse()]
        if not bad:
            break
        blen, mu, f = max(bad, key=lambda t: (t[0], t[1]))
        if blen >= top_len:
            raise RuntimeError(
                f"triangularity failed at {mu} (length {blen} >= {top_len})")
        cur = cur - (yield mu).scale(f.sym_complete())
    if cur.coeff(lam) != ONE:
        raise RuntimeError(f"leading coefficient at {lam} is {cur.coeff(lam)}, not 1")
    return cur


def test_fast_path_matches_full_chain_reference():
    grids = [("A1", [(k,) for k in range(-40, 41)])]
    grids += [(name, weights_by_length(datum_preset(name), k))
              for name, k in (("A2", 5), ("B2", 4), ("G2", 4), ("A1xA1", 3))]
    grids.append(("GL3", list(itertools.product(range(-1, 2), repeat=3))))
    for name, weights in grids:
        datum = datum_preset(name)      # cold tables for the fast path
        want = canonical_basis_reference(datum, weights)
        assert list(want) == weights
        for lam in weights:
            assert canonical_basis(datum, lam) == want[lam], (name, lam)


def test_reference_keeps_its_own_memo():
    a1 = datum_preset("A1")
    canonical_basis_reference(a1, [(5,), (-5,)])
    assert a1._sph_state.canonical == {}


def _a1_closed_form(a1, n):
    """In type A1 every coefficient is a monomial: C(lam) is the sum of
    v^(l(w_mu) - l(w_lam)) m_mu over mu = lam mod 2 with |mu| <= |lam|,
    taking mu != -lam when lam < 0."""
    top = min_rep(a1, (n,)).length
    terms = {}
    for mu in range(-abs(n), abs(n) + 1, 2):
        if n < 0 and mu == -n:
            continue
        terms[(mu,)] = v_power(min_rep(a1, (mu,)).length - top)
    return SphElt(a1, terms)


def test_a1_closed_form(a1):
    for n in range(-12, 13):
        assert canonical_basis(a1, (n,)) == _a1_closed_form(a1, n)


def test_a1_closed_form_far_out():
    a1 = datum_preset("A1")
    for n in (200, -200):
        assert canonical_basis(a1, (n,)) == _a1_closed_form(a1, n)


def _box_weights(datum):
    """length_box(datum, 3), or the cube -2..2 where the grid is infinite."""
    if datum.fundamental_group_order() is None:
        return list(itertools.product(range(-2, 3), repeat=datum.rank))
    return length_box(datum, 3)


def _act_cs(m, s):
    """m * C_s from the cached action on exponent maps."""
    terms = _act_terms(m.datum, ((lam, c._c) for lam, c in m._m.items()), s)
    return SphElt(m.datum, {lam: LaurentPoly(f) for lam, f in terms.items()})


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2", "A1xA1", "GL3"])
def test_act_cs_matches_the_algebra_action(name):
    """The cached C_s action on a basis symbol against m_lam * (T_s + v^-1)
    through the T-basis, for every generator, affine ones included."""
    datum = datum_preset(name)
    one = HeckeElt.one(datum)
    for s in simple_reflections(datum):
        cs = hecke_T(s.elt) + one.scale(V_INV)
        for lam in _box_weights(datum):
            m = SphElt.basis(datum, lam)
            assert _act_cs(m, s) == sph_act(m, cs), (name, lam, s.label)
        m = SphElt(datum, {lam: LaurentPoly({k % 3 - 1: k + 1})
                           for k, lam in enumerate(_box_weights(datum)[:7])})
        assert _act_cs(m, s) == sph_act(m, cs), (name, s.label)


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2", "A1xA1", "GL3"])
def test_prefix_letter_is_the_last_letter_of_the_reduced_word(name):
    """The frame at lam first asks for the weight of w_lam s, where s is the
    last letter of reduced_word(w_lam): the weight of the reduced word
    without its last letter."""
    datum = datum_preset(name)
    weights = set(_box_weights(datum))
    if datum.fundamental_group_order() is not None:
        weights.update(weights_by_length(datum, 4))
    for lam in sorted(weights):
        w = min_rep(datum, lam)
        omega, word = reduced_word(w)
        frame = _prefix_steps(datum, lam)
        if not word:
            with pytest.raises(StopIteration):
                next(frame)
            continue
        prefix = omega
        for s in word[:-1]:
            prefix = mul_simple(prefix, s)
        assert prefix == mul_simple(w, word[-1]), (name, lam)
        assert next(frame) == prefix.lam, (name, lam)


def _drive(datum, frame):
    """Run a strip frame to its end, answering each weight it asks for."""
    try:
        need = next(frame)
        while True:
            need = frame.send(canonical_basis(datum, need))
    except StopIteration as done:
        return done.value


def test_strip_queues_the_weights_a_subtraction_makes_bad(a1):
    # clearing v at (1,) subtracts (v + v^-1) * C(1), which puts -1 at (-1,)
    start = {(3,): {0: 1}, (1,): {1: 1}}
    got = _drive(a1, _strip(a1, (3,), start))
    assert got == SphElt(a1, {(3,): ONE, (1,): LaurentPoly({-1: -1}),
                              (-1,): LaurentPoly({-2: -1})})


def test_strip_matches_the_rescan_strip(a1, a2):
    """Both strips on starts that are not bar invariant, so that a
    subtraction can make a lower weight bad."""
    rng = random.Random(5)
    for datum, lam in ((a1, (6,)), (a1, (-5,)), (a2, (2, 1)), (a2, (-1, 3))):
        top = min_rep(datum, lam).length
        lower = [mu for mu in length_box(datum, top) if min_rep(datum, mu).length < top]
        for _ in range(20):
            start = {lam: {0: 1}}
            for mu in rng.sample(lower, 4):
                start[mu] = {e: rng.choice((-2, -1, 1, 2)) for e in rng.sample(range(-2, 3), 2)}
            want = _drive(datum, _strip_reference(datum, lam, SphElt(
                datum, {mu: LaurentPoly(f) for mu, f in start.items()})))
            assert _drive(datum, _strip(datum, lam, start)) == want


def test_deep_canonical_needs_no_recursion():
    a1 = datum_preset("A1")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        b = canonical_basis(a1, (300,))
    finally:
        sys.setrecursionlimit(limit)
    assert b == _a1_closed_form(a1, 300)


def test_decompose_golden_and_reassembly(a1, a2):
    e = affine_identity(a1)
    s, s0 = simple_reflections(a1)
    dec = decompose_bs(a1, e, (s0, s))
    assert dec == {(2,): ONE, (0,): ONE}
    # any chain must reassemble on the nose from its decomposition
    rng = random.Random(7)
    for datum in (a1, a2):
        gens = simple_reflections(datum)
        for om in omega_elements(datum):
            for _ in range(6):
                word = tuple(rng.choice(gens) for _ in range(rng.randrange(4)))
                dec = decompose_bs(datum, om, word)
                acc = SphElt.zero(datum)
                for mu, c in dec.items():
                    assert c.is_nonnegative()
                    acc = acc + canonical_basis(datum, mu).scale(c)
                assert acc == bs_char(datum, om, word)


def _decompose_by_rescan(datum, omega, word):
    """The subtract-and-rescan loop that decompose_bs replaced: clear the
    highest (length, weight) left after each subtraction."""
    rest = bs_char(datum, omega, word)
    out = {}
    while rest:
        _, mu = max((min_rep(datum, mu).length, mu) for mu in rest._m)
        f = rest.coeff(mu)
        out[mu] = f
        rest = rest - canonical_basis(datum, mu).scale(f)
        assert mu not in rest._m
    return out


def test_decompose_matches_the_rescan_loop():
    for name, k in (("A2", 5), ("B2", 4), ("G2", 4)):
        datum = datum_preset(name)
        for lam in weights_by_length(datum, k):
            chain = reduced_word(min_rep(datum, lam))
            want = _decompose_by_rescan(datum, *chain)
            assert list(decompose_bs(datum, *chain).items()) == list(want.items()), (name, lam)
    a2 = datum_preset("A2")
    gens = simple_reflections(a2)
    for word in itertools.product(gens, repeat=3):
        for om in omega_elements(a2):
            want = _decompose_by_rescan(a2, om, word)
            assert list(decompose_bs(a2, om, word).items()) == list(want.items())


def test_pairing_is_the_sum_of_barred_products():
    """sph_pairing against its definition, term by term, on every pair of
    chains (omega, word) with words of length <= 2."""
    for name in ("A1", "A2"):
        datum = datum_preset(name)
        gens = simple_reflections(datum)
        words = [()] + [(x,) for x in gens] + [(x, y) for x in gens for y in gens]
        chars = [bs_char(datum, om, word) for om in omega_elements(datum) for word in words]
        for a, b in itertools.product(chars, repeat=2):
            want = ZERO
            for lam, c in a.items():
                want = want + c.bar() * b.coeff(lam).bar()
            assert sph_pairing(a, b) == want


def test_hom_rank_goldens(a1):
    e = affine_identity(a1)
    s, s0 = simple_reflections(a1)
    assert hom_rank(a1, (e, (s,)), (e, (s,))) == LaurentPoly({-2: 1, 0: 2, 2: 1})
    assert hom_rank(a1, (e, (s0,)), (e, (s0,))) == LaurentPoly({0: 1, 2: 1})


def test_pairing_symmetry_and_unit(a2):
    e = affine_identity(a2)
    gens = simple_reflections(a2)
    a = bs_char(a2, e, (gens[0], gens[2], gens[1]))
    b = bs_char(a2, e, (gens[1],))
    assert sph_pairing(a, b) == sph_pairing(b, a)
    assert sph_pairing(m_zero(a2), m_zero(a2)) == ONE
    assert sph_pairing(m_zero(a2), SphElt.basis(a2, (1, 0))) == ZERO


def test_projection_goldens(a1):
    # the minimal coset representative carries no v-shift, others do
    assert sph_project(hecke_T(translation(a1, (2,)))) == SphElt.basis(a1, (2,))
    assert sph_project(hecke_T(translation(a1, (-2,)))) == \
        SphElt.basis(a1, (-2,)).scale(v_power(1))


def test_action_goldens(a1):
    s, s0 = simple_reflections(a1)
    assert sph_act(SphElt.basis(a1, (-2,)), hecke_T(s.elt)) == SphElt.basis(a1, (2,))
    assert sph_act(m_zero(a1), hecke_T(s.elt)) == m_zero(a1).scale(v_power(1))


def test_projection_intertwines_action(a1, a2):
    rng = random.Random(13)
    for datum in (a1, a2):
        gens = simple_reflections(datum)
        box = 2 if datum.rank == 1 else 1
        for _ in range(25):
            lam = tuple(rng.randrange(-box, box + 1) for _ in range(datum.rank))
            word = tuple(rng.choice(gens) for _ in range(rng.randrange(4)))
            h = hecke_T(translation(datum, lam))
            g = hecke_T(affine_identity(datum))
            for sg in word:
                g = hecke_mul(g, hecke_T(sg.elt))
            assert sph_project(hecke_mul(h, g)) == sph_act(sph_project(h), g)


def test_flat_chain_pushforward(a1, a2):
    for datum in (a1, a2):
        gens = simple_reflections(datum)
        words = [()] + [(x,) for x in gens] + [(x, y) for x in gens for y in gens]
        for om in omega_elements(datum):
            for word in words:
                lhs = sph_project(hecke_mul(hecke_T(om), fl_bs_char(datum, word)))
                assert lhs == bs_char(datum, om, word)


def test_elt_laws(a1):
    x = SphElt.basis(a1, (2,))
    y = SphElt.basis(a1, (0,))
    assert x + y - x == y
    assert (x - x).is_zero()
    assert not SphElt.zero(a1)
    assert x.scale(0) == SphElt.zero(a1)
    assert 3 * x == x.scale(3)
    assert (x + y).support() == [(2,), (0,)]
    with pytest.raises(TypeError):
        hash(x)


def test_bar_of_sum_is_sum_of_term_bars(a1, a2):
    for datum, lam in ((a1, (4,)), (a2, (1, -2))):
        m = bs_char(datum, *reduced_word(min_rep(datum, lam))).scale(LaurentPoly({1: 2}))
        assert len(m.support()) > 2
        want = SphElt.zero(datum)
        for mu, c in m.items():
            want = want + sph_bar(SphElt.basis(datum, mu)).scale(c.bar())
        assert sph_bar(m) == want
        assert sph_bar(sph_bar(m)) == m


def test_repr_and_json(a1):
    b = canonical_basis(a1, (1,))
    assert repr(b) == "SphElt(m[1] + (v^-1)*m[-1])"
    assert repr(SphElt.zero(a1)) == "SphElt(0)"
    assert b.to_json() == [{"weight": [1], "coeff": {"0": 1}},
                           {"weight": [-1], "coeff": {"-1": 1}}]


def test_items_leading_first(a1):
    b = canonical_basis(a1, (2,))
    assert [lam for lam, _ in b.items()] == [(2,), (-2,), (0,)]


def test_chain_over_reduced_word_has_leading_mult_one(a1, a2):
    for datum, lams in ((a1, [(2,), (-3,), (1,)]),
                        (a2, [(1, 0), (1, 1), (-1, 2)])):
        for lam in lams:
            om, word = reduced_word(min_rep(datum, lam))
            dec = decompose_bs(datum, om, word)
            assert dec[lam] == ONE
