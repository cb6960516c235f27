import itertools
import random

import pytest

from hsw.affine import (affine_elt, affine_identity, coset_decompose, first_descent,
                        min_rep, mul_simple, omega_elements, parse_weight, parse_word,
                        reduced_word, simple_reflections, translation, word_elt)
from hsw.cli import main
from hsw.hecke import verify_bernstein
from hsw.rootdata import RootDatum, datum_preset

PRESETS = ["A1", "A2", "B2", "G2", "A1xA1", "GL3"]


def _root_by_root_length(datum, w, lam):
    """l(w t_lam), moving each positive root by w on its own."""
    neg = {tuple(-x for x in r.vec) for r in datum.positive_roots()}
    total = 0
    for r in datum.positive_roots():
        p = sum(a * b for a, b in zip(lam, r.cov))
        total += abs(p + 1) if w.act(r.vec) in neg else abs(p)
    return total


def test_translation_lengths(a1, a2):
    # l(t_lam) = sum over positive coroots of |<lam, a-check>|
    assert translation(a1, (1,)).length == 1
    assert translation(a1, (-1,)).length == 1
    assert translation(a1, (2,)).length == 2
    assert translation(a2, (1, 0)).length == 2
    assert translation(a2, (1, 1)).length == 4
    assert translation(a2, (-1, 2)).length == 4


def test_omega_elements(a1, a2, b2, g2):
    for datum, n in ((a1, 2), (a2, 3), (b2, 2), (g2, 1)):
        oms = omega_elements(datum)
        assert len(oms) == n
        assert all(x.length == 0 for x in oms)
        # closed under the group operations
        for x in oms:
            assert x.inverse() in oms
            for y in oms:
                assert (x * y).length == 0


def test_group_laws_random(a2):
    rng = random.Random(5150)
    simples = simple_reflections(a2)
    e = affine_identity(a2)

    def rand_elt():
        x = rng.choice(omega_elements(a2))
        for _ in range(rng.randrange(5)):
            x = x * rng.choice(simples).elt
        return x

    for _ in range(150):
        x, y, z = rand_elt(), rand_elt(), rand_elt()
        assert (x * y) * z == x * (y * z)
        assert x * x.inverse() == e
        assert x.inverse().length == x.length
        assert (x * y).length <= x.length + y.length


def test_simple_reflections_shape(a2, b2):
    for datum in (a2, b2):
        simples = simple_reflections(datum)
        finite = [s for s in simples if s.kind == "finite"]
        affine = [s for s in simples if s.kind == "affine"]
        assert [s.label for s in finite] == ["s1", "s2"]
        assert [s.label for s in affine] == ["s0"]
        assert all(s.elt.length == 1 for s in simples)
        for s in simples:
            assert (s.elt * s.elt).is_identity()


def test_multi_component_affine_labels():
    from hsw import datum_preset
    d = datum_preset("A1xA1")
    labels = [s.label for s in simple_reflections(d)]
    assert labels == ["s1", "s2", "s0:1", "s0:2"]


@pytest.mark.parametrize("name", PRESETS)
def test_first_descent_is_the_last_letter_of_the_reduced_word(name):
    """On the ball of length <= 4 (times each length-zero element where they
    are finitely many): the letter is the last of reduced_word(x), no
    generator before it in label order shortens x, and x s is one shorter."""
    datum = datum_preset(name)
    simples = simple_reflections(datum)
    ball = frontier = {affine_identity(datum)}
    for _ in range(4):
        frontier = {mul_simple(x, s) for x in frontier for s in simples} - ball
        ball = ball | frontier
    if datum.fundamental_group_order() is not None:
        ball = {omega * x for omega in omega_elements(datum) for x in ball}
    for x in ball:
        if not x.length:
            with pytest.raises(RuntimeError, match="no descent found"):
                first_descent(x)
            continue
        s, p = first_descent(x)
        assert s == reduced_word(x)[1][-1], (name, x)
        assert p is mul_simple(x, s) and p.length == x.length - 1, (name, x)
        for t in simples[:simples.index(s)]:
            assert mul_simple(x, t).length > x.length, (name, x, t.label)


def test_reduced_word_reassembles(a2):
    rng = random.Random(99)
    simples = simple_reflections(a2)
    for _ in range(80):
        x = rng.choice(omega_elements(a2))
        for _ in range(rng.randrange(6)):
            x = x * rng.choice(simples).elt
        omega, word = reduced_word(x)
        assert omega.length == 0
        assert len(word) == x.length
        acc = omega
        for s in word:
            acc = acc * s.elt
        assert acc == x


def test_min_rep_is_minimum():
    """min_rep against the brute-force minimum over all |W| elements u t_lam,
    which is unique"""
    for name in PRESETS:
        datum = datum_preset(name)
        r = 3 if name == "GL3" else 5
        for lam in itertools.product(range(-r, r + 1), repeat=datum.rank):
            lengths = sorted((_root_by_root_length(datum, u, lam), u.matrix)
                             for u in datum.weyl_elements())
            assert lengths[0][0] < lengths[1][0], (name, lam)
            m = min_rep(datum, lam)
            assert (m.length, m.w.matrix, m.lam) == (*lengths[0], lam), (name, lam)
            assert m.w.act(lam) == datum.chamber_walk(lam)[0]


def test_min_rep_inputs_share_one_element():
    """A list, a tuple and a tuple of other integer types reach the same
    interned element, whether the table held the weight before or not."""
    for name in PRESETS:
        datum = datum_preset(name)
        for lam in itertools.product(range(-2, 3), repeat=datum.rank):
            first = min_rep(datum, list(lam))
            assert first.lam == lam and type(first.lam[0]) is int
            assert min_rep(datum, lam) is first
            assert min_rep(datum, tuple(bool(x) if x in (0, 1) else x for x in lam)) is first
            assert min_rep(datum, list(lam)) is first
        fresh = datum_preset(name)
        lam = (3,) * fresh.rank
        by_floats = min_rep(fresh, tuple(float(x) for x in lam))
        assert by_floats.lam == lam and type(by_floats.lam[0]) is int
        assert min_rep(fresh, lam) is by_floats


@pytest.mark.parametrize("name", PRESETS)
def test_length_matches_root_by_root_formula(name):
    datum = datum_preset(name)
    rng = random.Random(8128)
    simples = simple_reflections(datum)
    ws = datum.weyl_elements()
    for _ in range(150):
        lam = tuple(rng.randint(-6, 6) for _ in range(datum.rank))
        x = affine_elt(datum, rng.choice(ws), lam)
        for _ in range(rng.randrange(4)):
            x = x * rng.choice(simples).elt
        assert x.length == _root_by_root_length(datum, x.w, x.lam), x


def test_interned_elements_have_distinct_hashes():
    datum = datum_preset("G2")
    verify_bernstein(datum, 1)
    elts = list(datum._affine_state.elts.values())
    assert len(elts) > 900
    assert len({hash(x) for x in elts}) == len(elts)
    ws = datum.weyl_elements()
    assert len({hash(w) for w in ws}) == len(ws)


def test_coset_representative_with_a_left_descent_exits_3(monkeypatch, capsys):
    walk = RootDatum.chamber_walk

    def reversed_walk(self, lam):
        dom, word = walk(self, lam)
        return dom, word[::-1]   # min_rep then builds u t_lam, not u^-1 t_lam

    monkeypatch.setattr(RootDatum, "chamber_walk", reversed_walk)
    assert main(["canonical-basis", "--datum", "G2", "--lambda=-1,2"]) == 3
    assert "left descent" in capsys.readouterr().err


def test_coset_decompose(a2):
    rng = random.Random(3)
    simples = simple_reflections(a2)
    for _ in range(40):
        x = rng.choice(omega_elements(a2))
        for _ in range(rng.randrange(5)):
            x = x * rng.choice(simples).elt
        u, lam = coset_decompose(x)
        m = min_rep(a2, lam)
        assert u.length + m.length == x.length
        assert lam == x.lam


def test_parse_weight():
    assert parse_weight("1,-2", 2) == (1, -2)
    assert parse_weight(" 3 ", 1) == (3,)
    with pytest.raises(ValueError):
        parse_weight("1,2", 1)
    with pytest.raises(ValueError):
        parse_weight("x", 1)


def test_parse_word(a1, a2):
    word = parse_word(a1, "s,s0")
    assert [s.label for s in word] == ["s1", "s0"]
    word = parse_word(a2, "s1,s2,s0")
    assert [s.label for s in word] == ["s1", "s2", "s0"]
    with pytest.raises(ValueError):
        parse_word(a2, "s")  # ambiguous outside rank one
    with pytest.raises(ValueError):
        parse_word(a2, "s9")


def test_word_elt_lengths(a1):
    simples = {s.label: s for s in simple_reflections(a1)}
    x = word_elt(a1, (simples["s0"], simples["s1"]))
    assert x.length == 2
    assert x.lam != (0,) * a1.rank  # s0 moves the translation part
