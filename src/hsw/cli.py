"""Command line surface: exact computations and batch verification.

Weights are comma-separated integers in the coordinate basis of the chosen
datum (use the ``--lambda=-1,2`` form when the first coordinate is
negative).  Words are comma-separated generator labels like ``s1,s2,s0``;
``s`` is accepted for the unique finite generator in rank one and ``s0:k``
addresses the affine generator of the k-th component.  Elements combine
both as ``word@weight``, meaning the word times the translation.

Exit status: 0 on success, 1 when a verification-style command finds a
failing case, 2 on argument or input errors, 3 when an internal invariant
check fails (a bug, reported as one ``internal error:`` line).

With two CPUs, ``verify`` runs its checks in two processes: a forked worker
runs the module-side checks while this process runs the ``T``-basis checks.
``time=`` is each check's wall time in its own process; reports keep the
requested order and the exit statuses are unchanged.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial

from .affine import (AffineElt, affine_identity, min_rep, parse_weight,
                     parse_word, reduced_word, translation, word_elt)
from .hecke import HeckeElt, hecke_mul, hecke_T, hecke_theta
from .laurent import LaurentPoly
from .qanalogue import kato_check, kato_grid, lusztig_q
from .rootdata import RootDatum, load_datum
from .soergel import oracle_vs_hecke
from .spherical import basis_order, bs_char, canonical_basis, decompose_bs, hom_rank
from .verify import CHECKS, check_oracle, run_suite


# -- parsing helpers -------------------------------------------------------------------


def _word(datum: RootDatum, text: str | None):
    if text is None or not text.strip():
        return ()
    return parse_word(datum, text)


def _weight(datum: RootDatum, text: str | None):
    if text is None or not text.strip():
        return (0,) * datum.rank
    return parse_weight(text, datum.rank)


def _word_at(datum: RootDatum, word: str | None, weight: str | None) -> AffineElt:
    return word_elt(datum, _word(datum, word)) * translation(datum, _weight(datum, weight))


def _element(datum: RootDatum, text: str | None) -> AffineElt:
    """Parse ``word@weight``, a bare word, a bare weight, or ``e``."""
    if text is None:
        return affine_identity(datum)
    text = text.strip()
    if not text or text == "e":
        return affine_identity(datum)
    if "@" in text:
        wpart, _, lpart = text.partition("@")
        return _word_at(datum, wpart, lpart)
    if text[0] in "-0123456789":
        return translation(datum, parse_weight(text, datum.rank))
    return word_elt(datum, parse_word(datum, text))


def _omega_of(datum: RootDatum, text: str | None) -> AffineElt:
    """The length-zero element over a given translation weight."""
    lam = _weight(datum, text)
    om = min_rep(datum, lam)
    if om.length != 0 or om.lam != lam:
        raise ValueError(f"no length-zero element has translation part {lam}")
    return om


def _count(text: str) -> int:
    """A nonnegative integer option: a bound, a box half-width or a trial count."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {n}")
    return n


def _elt_text(x: AffineElt) -> str:
    data = x.to_json()
    word = ",".join(f"s{i}" for i in data["w_word"]) or "e"
    if any(data["translation"]):
        return f"{word}@{listed(data['translation'])}"
    return word


def listed(xs) -> str:
    return ",".join(str(x) for x in xs)


def _hecke_text(h: HeckeElt) -> str:
    if h.is_zero():
        return "0"
    return " + ".join(f"({c})*T[{_elt_text(x)}]" for x, c in h.items())


def _emit(ns, payload: dict, text_lines: list[str]) -> None:
    if ns.output == "json":
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


# -- verb handlers ---------------------------------------------------------------------


def _cmd_length(ns, datum: RootDatum) -> int:
    x = _word_at(datum, ns.w, ns.lam)
    _emit(ns, {"element": x.to_json(), "length": x.length}, [str(x.length)])
    return 0


def _cmd_reduced_word(ns, datum: RootDatum) -> int:
    x = _word_at(datum, ns.w, ns.lam)
    omega, word = reduced_word(x)
    payload = {
        "length": x.length,
        "omega": omega.to_json(),
        "word": [s.label for s in word],
    }
    _emit(ns, payload, [
        f"length: {x.length}",
        f"omega: {_elt_text(omega)}",
        f"word: {listed(payload['word']) or '(empty)'}",
    ])
    return 0


def _cmd_hecke_mul(ns, datum: RootDatum) -> int:
    a = hecke_T(_element(datum, ns.left))
    b = hecke_T(_element(datum, ns.right))
    prod = hecke_mul(a, b)
    _emit(ns, {"terms": prod.to_json()}, [_hecke_text(prod)])
    return 0


def _cmd_theta(ns, datum: RootDatum) -> int:
    th = hecke_theta(datum, _weight(datum, ns.lam))
    _emit(ns, {"terms": th.to_json()}, [_hecke_text(th)])
    return 0


def _chain(ns, datum: RootDatum, prefix: str = ""):
    """(omega, word) from ``--omega`` and ``--word``, or with prefix ``left_``
    from ``--left-omega`` and ``--left-word``."""
    omega = _omega_of(datum, getattr(ns, prefix + "omega"))
    return omega, _word(datum, getattr(ns, prefix + "word"))


def _cmd_bs_char(ns, datum: RootDatum) -> int:
    m = bs_char(datum, *_chain(ns, datum))
    _emit(ns, {"terms": m.to_json()}, [m.terms_text()])
    return 0


def _cmd_hom_rank(key: str, ns, datum: RootDatum) -> int:
    """``hsw pairing`` (key ``pairing``) and ``hsw hom-rank`` (key
    ``hom_rank``): the graded pairing of two chain characters."""
    left, right = _chain(ns, datum, "left_"), _chain(ns, datum, "right_")
    value = hom_rank(datum, left, right)
    _emit(ns, {key: value.to_json()}, [str(value)])
    return 0


def _cmd_canonical(ns, datum: RootDatum) -> int:
    b = canonical_basis(datum, _weight(datum, ns.lam))
    _emit(ns, {"terms": b.to_json()}, [b.terms_text()])
    return 0


def _cmd_decompose(ns, datum: RootDatum) -> int:
    mults = decompose_bs(datum, *_chain(ns, datum))
    order = sorted(mults, key=partial(basis_order, datum))
    payload = {"terms": [{"weight": list(lam), "mult": mults[lam].to_json()} for lam in order]}
    lines = [f"b[{listed(lam)}]: {mults[lam]}" for lam in order] or ["0"]
    _emit(ns, payload, lines)
    return 0


def _cmd_q_analogue(ns, datum: RootDatum) -> int:
    value = lusztig_q(datum, _weight(datum, ns.chi), _weight(datum, ns.eta))
    _emit(ns, {"variable": "q", "poly": value.to_json()}, [value.fmt("q")])
    return 0


def _cmd_kato_check(ns, datum: RootDatum) -> int:
    if ns.lam is not None or ns.mu is not None:
        if ns.lam is None or ns.mu is None:
            raise ValueError("kato-check needs both --lambda and --mu, or --max-length")
        rows = [kato_check(datum, _weight(datum, ns.lam), _weight(datum, ns.mu))]
    else:
        rows = kato_grid(datum, ns.max_length)
    bad = [r for r in rows if not r["pass"]]
    lines = [f"{'PASS' if r['pass'] else 'FAIL'} lambda={listed(r['lambda'])} "
             f"mu={listed(r['mu'])} lhs={r['lhs']} rhs={r['rhs']}" for r in rows]
    lines.append(f"{len(rows) - len(bad)}/{len(rows)} pass")
    _emit(ns, {"rows": rows, "pass": not bad}, lines)
    return 1 if bad else 0


def _cmd_oracle_check(ns, datum: RootDatum) -> int:
    single = any(getattr(ns, k) is not None
                 for k in ("left_omega", "left_word", "right_omega", "right_word"))
    if single:
        left, right = _chain(ns, datum, "left_"), _chain(ns, datum, "right_")
        row = oracle_vs_hecke(datum, left, right, cutoff=ns.cutoff)
        ok = row["pass"]
        _emit(ns, row, [
            f"oracle:    {LaurentPoly({int(k): c for k, c in row['oracle'].items()})}",
            f"predicted: {LaurentPoly({int(k): c for k, c in row['predicted'].items()})}",
            "PASS" if ok else "FAIL",
        ])
        return 0 if ok else 1
    report = check_oracle(datum, max_word=ns.max_word, cutoff=ns.cutoff)
    lines = [f"{'PASS' if report['pass'] else 'FAIL'} {report['checked']} pairs "
             f"({report['detail']})"]
    lines.extend(f"  ! {f}" for f in report["failures"])
    _emit(ns, report, lines)
    return 0 if report["pass"] else 1


def _cmd_verify(ns, datum: RootDatum) -> int:
    names = None
    if ns.checks is not None:
        names = [c.strip() for c in ns.checks.split(",") if c.strip()]
        if not names:
            raise ValueError(f"--checks {ns.checks!r} names no check; "
                             f"known: {', '.join(CHECKS)}")
    knobs = {name: {k: v for k, v in kw.items() if v is not None} for name, kw in {
        "bernstein": {"box": ns.box},
        "length": {"max_len": ns.max_length},
        "canonical": {"max_len": ns.max_length},
        "kato": {"max_len": ns.max_length},
        "multiplicity": {"box": ns.box},
        "projection": {"n_random": ns.trials, "seed": ns.seed},
        "pushforward": {"max_word": ns.max_word},
        "oracle": {"max_word": ns.max_word, "cutoff": ns.cutoff},
        "modules": {"seed": ns.seed},
    }.items()}
    reports = run_suite(datum, names, **knobs)
    lines = []
    for r in reports:
        lines.append(f"{'PASS' if r['pass'] else 'FAIL'} {r['name']:<13} "
                     f"checked={r['checked']} time={r['seconds']}s {r['detail']}")
        lines.extend(f"  ! {f}" for f in r["failures"])
    ok = all(r["pass"] for r in reports)
    lines.append(f"{sum(r['pass'] for r in reports)}/{len(reports)} checks pass")
    _emit(ns, {"reports": reports, "pass": ok}, lines)
    return 0 if ok else 1


# -- parser ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hsw",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--datum", default="A1",
                        help="preset (A1, A2, B2, G2, GL<n>, products like A1xA1) "
                             "or a JSON file path")
    common.add_argument("--output", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("length", parents=[common],
                       help="length of w * t_lambda")
    p.add_argument("--w", default="", help="finite/affine word, e.g. s1,s0")
    p.add_argument("--lambda", dest="lam", default=None, help="translation weight")
    p.set_defaults(fn=_cmd_length)

    p = sub.add_parser("reduced-word", parents=[common],
                       help="length-zero part and reduced word of w * t_lambda")
    p.add_argument("--w", default="")
    p.add_argument("--lambda", dest="lam", default=None)
    p.set_defaults(fn=_cmd_reduced_word)

    p = sub.add_parser("hecke-mul", parents=[common],
                       help="product T_x * T_y in the standard basis")
    p.add_argument("--left", required=True, help="element, e.g. s1,s0@1,-1 or e")
    p.add_argument("--right", required=True)
    p.set_defaults(fn=_cmd_hecke_mul)

    p = sub.add_parser("theta", parents=[common],
                       help="commuting translation element of a weight")
    p.add_argument("--lambda", dest="lam", required=True)
    p.set_defaults(fn=_cmd_theta)

    p = sub.add_parser("bs-char", parents=[common],
                       help="chain character m(omega, word) in the weight basis")
    p.add_argument("--omega", default=None,
                   help="translation weight of a length-zero element")
    p.add_argument("--word", default="")
    p.set_defaults(fn=_cmd_bs_char)

    for verb, key in (("pairing", "pairing"), ("hom-rank", "hom_rank")):
        p = sub.add_parser(verb, parents=[common],
                           help="graded pairing of two chain characters")
        p.add_argument("--left-omega", default=None)
        p.add_argument("--left-word", default="")
        p.add_argument("--right-omega", default=None)
        p.add_argument("--right-word", default="")
        p.set_defaults(fn=partial(_cmd_hom_rank, key))

    p = sub.add_parser("canonical-basis", parents=[common],
                       help="bar-invariant basis element at a weight")
    p.add_argument("--lambda", dest="lam", required=True)
    p.set_defaults(fn=_cmd_canonical)

    p = sub.add_parser("decompose", parents=[common],
                       help="expand a chain character over the canonical basis")
    p.add_argument("--omega", default=None)
    p.add_argument("--word", default="")
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("q-analogue", parents=[common],
                       help="graded weight multiplicity polynomial in q")
    p.add_argument("--chi", required=True, help="weight whose multiplicity is graded")
    p.add_argument("--eta", required=True, help="dominant highest weight")
    p.set_defaults(fn=_cmd_q_analogue)

    p = sub.add_parser("kato-check", parents=[common],
                       help="canonical-basis coefficient vs graded multiplicity")
    p.add_argument("--lambda", dest="lam", default=None)
    p.add_argument("--mu", default=None)
    p.add_argument("--max-length", type=_count, default=2,
                   help="grid bound when no single pair is given")
    p.set_defaults(fn=_cmd_kato_check)

    p = sub.add_parser("oracle-check", parents=[common],
                       help="graded module Hom rank vs pairing prediction")
    p.add_argument("--left-omega", default=None)
    p.add_argument("--left-word", default=None)
    p.add_argument("--right-omega", default=None)
    p.add_argument("--right-word", default=None)
    p.add_argument("--max-word", type=_count, default=None,
                   help="grid word bound when no single pair is given")
    p.add_argument("--cutoff", type=int, default=16, help="even degree window bound")
    p.set_defaults(fn=_cmd_oracle_check)

    p = sub.add_parser("verify", parents=[common],
                       help="run the cross-check property suite")
    p.add_argument("--checks", default=None,
                   help=f"comma list from: {', '.join(CHECKS)}")
    p.add_argument("--box", type=_count)
    p.add_argument("--max-length", type=_count)
    p.add_argument("--max-word", type=_count)
    p.add_argument("--trials", type=_count)
    p.add_argument("--seed", type=int)
    p.add_argument("--cutoff", type=int)
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    try:
        datum = load_datum(ns.datum)
        return ns.fn(ns, datum)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:  # RecursionError included
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
