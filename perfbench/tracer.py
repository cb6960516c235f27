"""Outside-in tracer for the hsw package.

The tracer replaces selected hsw functions and operators with timing
wrappers, in every namespace that binds them (home module, importing
modules, the package namespace, the ``verify.CHECKS`` table and class
aliases such as ``__radd__ = __add__``).  It never edits the package source.

Per wrapped function it keeps calls, self time (duration minus the time of
wrapped callees) and inclusive time, computed online with a stack, so the
totals are exact without storing every call.  Calls that take at least
``SPAN_MIN_S`` are also kept as spans (id, parent id, operation index, name,
start, end) in memory and written out once, when the run ends.

Cache metrics are read, read-only, from the per-datum memo tables of every
datum built by ``datum_preset``.  Each table gains exactly one entry per
miss, and the tracer is installed before any datum exists, so
``hit_ratio = 1 - table size / calls``.  A later change is expected to move
these counts into one cache registry inside the package; until then the
table attribute names below are the contract.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

SPAN_MIN_S = 1e-3

# (layer module, owner class or None, attribute, metric name)
TARGETS = [
    ("laurent", "LaurentPoly", "__mul__", "mul"),
    ("laurent", "LaurentPoly", "__add__", "add"),
    ("laurent", "LaurentPoly", "__sub__", "sub"),
    ("laurent", "LaurentPoly", "__neg__", "neg"),
    ("laurent", "LaurentPoly", "__pow__", "pow"),
    ("laurent", "LaurentPoly", "bar", "bar"),
    ("laurent", "LaurentPoly", "sym_complete", "sym_complete"),
    ("mpoly", "MPoly", "__mul__", "mul"),
    ("mpoly", "MPoly", "__add__", "add"),
    ("mpoly", "MPoly", "__sub__", "sub"),
    ("mpoly", "MPoly", "__neg__", "neg"),
    ("mpoly", "MPoly", "__pow__", "pow"),
    ("mpoly", "MPoly", "substitute_linear", "substitute_linear"),
    ("mpoly", "MPoly", "deriv", "deriv"),
    ("rootdata", None, "datum_preset", "datum_preset"),
    ("rootdata", None, "product_datum", "product_datum"),
    ("rootdata", "WeylElt", "__mul__", "weyl_mul"),
    ("rootdata", "WeylElt", "inverse", "weyl_inverse"),
    ("affine", None, "mul_simple", "mul_simple"),
    ("affine", None, "min_rep", "min_rep"),
    ("affine", None, "reduced_word", "reduced_word"),
    ("affine", None, "omega_elements", "omega_elements"),
    ("affine", None, "coset_decompose", "coset_decompose"),
    ("affine", None, "word_elt", "word_elt"),
    ("affine", "AffineElt", "__mul__", "elt_mul"),
    ("affine", "AffineElt", "inverse", "elt_inverse"),
    ("hecke", None, "hecke_mul", "hecke_mul"),
    ("hecke", None, "hecke_theta", "hecke_theta"),
    ("hecke", None, "hecke_inv_T", "hecke_inv_T"),
    ("hecke", None, "hecke_bar_T", "hecke_bar_T"),
    ("hecke", None, "hecke_bar", "hecke_bar"),
    ("hecke", None, "verify_bernstein", "verify_bernstein"),
    ("hecke", None, "verify_quadratic_all", "verify_quadratic_all"),
    ("hecke", None, "verify_quadratic_affine", "verify_quadratic_affine"),
    ("spherical", None, "canonical_basis", "canonical_basis"),
    ("spherical", None, "decompose_bs", "decompose_bs"),
    ("spherical", None, "sph_act", "sph_act"),
    ("spherical", None, "hom_rank", "hom_rank"),
    ("spherical", None, "bs_char", "bs_char"),
    ("spherical", None, "fl_bs_char", "fl_bs_char"),
    ("spherical", None, "sph_bar", "sph_bar"),
    ("spherical", None, "sph_project", "sph_project"),
    ("spherical", None, "sph_pairing", "sph_pairing"),
    ("qanalogue", None, "lusztig_q", "lusztig_q"),
    ("qanalogue", None, "kostant_q", "kostant_q"),
    ("qanalogue", None, "freudenthal_mult", "freudenthal_mult"),
    ("qanalogue", None, "weights_of_irrep", "weights_of_irrep"),
    ("qanalogue", None, "kato_grid", "kato_grid"),
    ("qanalogue", None, "kato_check", "kato_check"),
    ("soergel", None, "bs_module", "bs_module"),
    ("soergel", None, "tensor", "tensor"),
    ("soergel", None, "hom_graded_rank", "hom_graded_rank"),
    ("soergel", None, "oracle_vs_hecke", "oracle_vs_hecke"),
    ("soergel", None, "modules_equal", "modules_equal"),
    ("soergel", None, "atom_E", "atom_E"),
    ("soergel", None, "atom_for", "atom_for"),
    ("soergel", None, "fundamental_invariants", "fundamental_invariants"),
    ("verify", None, "run_suite", "run_suite"),
    ("verify", None, "weights_by_length", "weights_by_length"),
    ("cli", None, "main", "main"),
]
# every check of the verify suite is wrapped too, as verify.<check>

LAYERS = ("laurent", "mpoly", "rootdata", "affine", "hecke", "spherical",
          "qanalogue", "soergel", "verify", "cli")

# (memoised function, state attribute on RootDatum, its memo table)
MEMO_TABLES = [
    ("affine.mul_simple", "_affine_state", "mul_simple"),
    ("affine.min_rep", "_affine_state", "min_reps"),
    ("affine.reduced_word", "_affine_state", "reduced"),
    ("hecke.hecke_theta", "_hecke_state", "theta"),
    ("spherical.canonical_basis", "_sph_state", "canonical"),
    ("qanalogue.kostant_q", "_q_state", "kostant"),
]
# tables reported by their size at the end of the run
SIZE_TABLES = [
    ("affine.elts", "_affine_state", "elts"),
    ("spherical.canonical", "_sph_state", "canonical"),
]


class Tracer:
    """Wraps hsw in place; one instance per process, installed once."""

    def __init__(self):
        self.stats: dict[str, list] = {}   # name -> [calls, self_s, incl_s, layer]
        self.errors: dict[tuple[str, str], int] = {}
        self.spans: list[tuple] = []
        self.data: list = []               # every datum built by datum_preset
        self.op = -1                       # index of the running operation
        self._stack = [[0.0, 0]]           # [child time, span id] per open call
        self._next_id = 1
        self._checks: list[str] = []
        self.originals: list = []          # the functions replaced by wrappers

    # -- installation ------------------------------------------------------------------

    def install(self) -> None:
        for layer in LAYERS:
            importlib.import_module("hsw." + layer)
        from hsw import verify
        modules = [m for n, m in sys.modules.items()
                   if n == "hsw" or n.startswith("hsw.")]
        for layer, cls, attr, metric in TARGETS:
            owner = sys.modules["hsw." + layer]
            orig = vars(getattr(owner, cls))[attr] if cls else getattr(owner, attr)
            fn = self._registering(orig) if metric == "datum_preset" else orig
            self._replace(modules, orig, self._wrap(fn, f"{layer}.{metric}", layer))
            self.originals.append(orig)
        for check, fn in list(verify.CHECKS.items()):
            wrapped = self._wrap(fn, f"verify.{check}", "verify")
            self._replace(modules, fn, wrapped)
            verify.CHECKS[check] = wrapped
            self._checks.append(f"verify.{check}")
            self.originals.append(fn)

    def _registering(self, fn):
        def preset(*args, **kwargs):
            datum = fn(*args, **kwargs)
            self.data.append(datum)
            return datum
        return preset

    @staticmethod
    def _replace(modules, orig, wrapped) -> None:
        """Rebind every name that refers to ``orig``: module globals and
        class attributes (aliases like ``__rmul__ = __mul__`` included)."""
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, name, wrapped)
                elif isinstance(value, type) and value.__module__ == mod.__name__:
                    for cname, cvalue in list(vars(value).items()):
                        if cvalue is orig:
                            setattr(value, cname, wrapped)

    def _wrap(self, fn, name: str, layer: str):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, layer])
        stack, spans, errors = self._stack, self.spans, self.errors
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id = sid + 1
            frame = [0.0, sid]
            parent = stack[-1]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                key = (name, type(exc).__name__)
                errors[key] = errors.get(key, 0) + 1
                raise
            finally:
                t1 = clock()
                dur = t1 - t0
                stack.pop()
                parent[0] += dur
                stat[0] += 1
                stat[1] += dur - frame[0]
                stat[2] += dur
                if dur >= SPAN_MIN_S:
                    spans.append((sid, parent[1], tracer.op, name, t0, t1))

        return traced

    # -- results ---------------------------------------------------------------------

    def _table_sizes(self) -> dict[str, int]:
        sizes: dict[str, int] = {}
        for prefix, state, table in MEMO_TABLES + SIZE_TABLES:
            total = 0
            for datum in self.data:
                st = getattr(datum, state, None)
                if st is not None:
                    total += len(getattr(st, table))
            sizes[prefix] = total
        return sizes

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics since ``install``."""
        out: dict[str, float] = {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for name, (calls, self_s, incl_s, layer) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
            layer_self[layer] += self_s
            if name in self._checks:
                out[f"{name}.s"] = incl_s
        for layer, total in layer_self.items():
            out[f"{layer}.self_s"] = total
        sizes = self._table_sizes()
        for prefix, _, _ in MEMO_TABLES:
            calls = self.stats[prefix][0]
            out[f"{prefix}.hit_ratio"] = 1.0 - sizes[prefix] / calls if calls else 0.0
        for prefix, _, _ in SIZE_TABLES:
            out[f"{prefix}.entries"] = sizes[prefix]
        out["soergel.cutoff_errors"] = self.errors.get(
            ("soergel.hom_graded_rank", "CutoffError"), 0)
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, parent, op, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op,
                                     "name": name, "start": t0, "end": t1}) + "\n")

