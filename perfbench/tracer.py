"""Span and count tracing of nahm_forge, installed from outside the package.

`Tracer.install()` replaces each traced public function with a wrapper in
every nahm_forge module namespace that binds it (for example both
`nahm.nahm_sum` and `registry.nahm_sum`), and the traced methods on their
classes; `uninstall()` puts every original back.  Nothing under src/ is
edited.

Each wrapper records a span [name, start, end, parent, hidden] in memory.
`hidden` is time the tracer's own count hooks spent inside that span, so it
is left out of the span's self time.  Self time is the span's duration minus
its direct children's durations and its hidden time.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
from collections import Counter, defaultdict
from fractions import Fraction
from time import perf_counter

MARK = "__perfbench_traced__"


def unit(metric: str) -> str:
    if metric.endswith(".s"):
        return "s"
    if metric.endswith(("radius_use", "hit_ratio")):
        return "ratio"
    if metric == "series.coeff_bits_max":
        return "bits"
    if metric == "modular.tail_bound_max":
        return "abs"
    return "count"


def _coeff_bits(s) -> int:
    return max((abs(c.numerator).bit_length() for c in s.coeffs.values()),
               default=0)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.maxima: dict = defaultdict(float)
        self._stack: list = []
        self._patches: list = []

    def reset(self):
        self.spans.clear()
        self.counts.clear()
        self.maxima.clear()

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        i = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1, 0.0])
        self._stack.append(i)
        self.spans[i][1] = perf_counter()
        return i

    def _close(self, i: int):
        self.spans[i][2] = perf_counter()
        self._stack.pop()

    def _hook(self, hook, *args):
        """Run a count hook and charge its time to the enclosing span."""
        t0 = perf_counter()
        hook(*args)
        if self._stack:
            self.spans[self._stack[-1]][4] += perf_counter() - t0

    def wrap(self, name: str, fn, hook=None):
        """A wrapper recording one span per call; hook(args, result) counts."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(i)
            if hook is not None:
                self._hook(hook, args, out)
            return out
        setattr(traced, MARK, True)
        return traced

    def _wrap_enumerate(self, fn, box_radius):
        """enumerate_lattice is a generator: the span runs from the first
        point to exhaustion (its callers drain it with list())."""
        @functools.wraps(fn)
        def traced(quad, order, *args, **kwargs):
            i = self._open("nahm.enumerate")
            points = top = 0
            try:
                for item in fn(quad, order, *args, **kwargs):
                    points += 1
                    top = max(top, *item[0])
                    yield item
            finally:
                self._close(i)
            self._hook(self._count_enumerate, quad, order, points, top, box_radius)
        setattr(traced, MARK, True)
        return traced

    def _wrap_get(self, fn):
        """registry.get hands verify a copy of the record whose two sides are
        traced; the memoised records themselves are left alone."""
        @functools.wraps(fn)
        def traced(rid):
            rec = fn(rid)
            return dataclasses.replace(rec, lhs=self.wrap("registry.lhs", rec.lhs),
                                       rhs=self.wrap("registry.rhs", rec.rhs))
        setattr(traced, MARK, True)
        return traced

    # -- count hooks ---------------------------------------------------------

    def _count_enumerate(self, quad, order, points, top, box_radius):
        self.counts["nahm.enumerate.points"] += points
        self.counts["nahm.enumerate.top"] += top
        self.counts["nahm.enumerate.radius"] += box_radius(quad, Fraction(order) - quad.c)

    def _count_product(self, args, out):
        self.counts["products.product.factors"] += len(args[0])

    def _count_mul(self, args, out):
        a, b = args
        self.counts["series.mul.term_pairs"] += len(a.coeffs) * len(b.coeffs)
        self.maxima["series.coeff_bits_max"] = max(
            self.maxima["series.coeff_bits_max"], _coeff_bits(out))

    def _count_profile(self, args, out):
        self.counts["recognizer.profile.exponents"] += len(out.a)
        self.counts["recognizer.profile.nonintegral"] += not out.is_integral()

    def _count_hunt(self, args, out):
        self.counts["recognizer.grid_points"] += len(args[2])
        self.counts["recognizer.hits"] += len(out)

    def _count_series_eval(self, args, out):
        self.counts["modular.series_route.terms"] += len(args[0].coeffs)

    def _count_check(self, args, out):
        self.maxima["modular.tail_bound_max"] = max(
            self.maxima["modular.tail_bound_max"], out.tail_bound)

    # -- install / uninstall -------------------------------------------------

    def _replacements(self) -> list:
        """(owner, attribute, wrapper); owner is a class for methods and
        None for module functions, which are patched wherever bound."""
        from nahm_forge import (modular, nahm, products, recognizer, registry,
                                series, zlaurent)
        w = self.wrap
        return [
            (None, nahm.enumerate_lattice,
             self._wrap_enumerate(nahm.enumerate_lattice, nahm.box_radius)),
            (None, nahm.nahm_sum, w("nahm.sum", nahm.nahm_sum)),
            (None, nahm.nahm_sum_param, w("nahm.sum_param", nahm.nahm_sum_param)),
            (None, products.product,
             w("products.product", products.product, self._count_product)),
            (None, products.poch_param, w("products.poch_param", products.poch_param)),
            (None, products.jacobi_triple,
             w("products.jacobi_triple", products.jacobi_triple)),
            (None, registry.verify, w("registry.verify", registry.verify)),
            (None, registry.get, self._wrap_get(registry.get)),
            (None, registry.single_sum, w("registry.single_sum", registry.single_sum)),
            (series.QSeries, "__mul__",
             w("series.mul", series.QSeries.__mul__, self._count_mul)),
            (series.QSeries, "invert", w("series.invert", series.QSeries.invert)),
            (series.ParamSeries, "__mul__",
             w("series.param_mul", series.ParamSeries.__mul__)),
            (None, series.eq_to_order, w("series.compare", series.eq_to_order)),
            (None, series.eq_to_order_param,
             w("series.compare", series.eq_to_order_param)),
            (None, recognizer.hunt, w("recognizer.hunt", recognizer.hunt, self._count_hunt)),
            (None, recognizer.extract_profile,
             w("recognizer.profile", recognizer.extract_profile, self._count_profile)),
            (None, recognizer.with_period, w("recognizer.period", recognizer.with_period)),
            (None, modular.check_transformation,
             w("modular.check", modular.check_transformation, self._count_check)),
            (None, modular.eval_series_at,
             w("modular.series_eval", modular.eval_series_at, self._count_series_eval)),
            (None, modular.component_series_u,
             w("modular.component", modular.component_series_u)),
            (None, modular.component_series_v,
             w("modular.component", modular.component_series_v)),
            (None, zlaurent.double_sum_ct, w("zlaurent.ct", zlaurent.double_sum_ct)),
        ]

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sys.modules.items()
                   if name == "nahm_forge" or name.startswith("nahm_forge.")]
        for owner, target, wrapper in self._replacements():
            if owner is not None:
                self._patches.append((owner, target, owner.__dict__[target]))
                setattr(owner, target, wrapper)
                continue
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is target:
                        self._patches.append((mod, attr, val))
                        setattr(mod, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- metrics -------------------------------------------------------------

    def totals(self) -> tuple[dict, dict, Counter]:
        """Per span name: inclusive time (outermost spans of that name only,
        so recursion is not counted twice), self time, and calls."""
        spans = self.spans
        dur = [s[2] - s[1] for s in spans]
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[3] >= 0:
                child[s[3]] += dur[i]
        calls: Counter = Counter()
        incl: dict = defaultdict(float)
        self_s: dict = defaultdict(float)
        for i, s in enumerate(spans):
            name = s[0]
            calls[name] += 1
            self_s[name] += dur[i] - child[i] - s[4]
            p = s[3]
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                incl[name] += dur[i]
        return incl, self_s, calls

    def layer_metrics(self) -> dict:
        """Per-layer metrics of the spans and counts recorded since reset().

        `<name>.s` is the inclusive time of that span name; nahm.sum.s and
        modular.product_route.s are self times.
        """
        incl, self_s, calls = self.totals()
        c = self.counts
        radius = c["nahm.enumerate.radius"]
        grid = c["recognizer.grid_points"]
        return {
            "nahm.enumerate.s": incl["nahm.enumerate"],
            "nahm.enumerate.calls": calls["nahm.enumerate"],
            "nahm.enumerate.points": c["nahm.enumerate.points"],
            "nahm.enumerate.radius_use": c["nahm.enumerate.top"] / radius if radius else 0.0,
            "nahm.sum.s": self_s["nahm.sum"],
            "nahm.sum.calls": calls["nahm.sum"],
            "nahm.sum_param.s": incl["nahm.sum_param"],
            "products.product.s": incl["products.product"],
            "products.product.calls": calls["products.product"],
            "products.product.factors": c["products.product.factors"],
            "products.poch_param.s": incl["products.poch_param"],
            "products.jacobi_triple.s": incl["products.jacobi_triple"],
            "registry.lhs.s": incl["registry.lhs"],
            "registry.rhs.s": incl["registry.rhs"],
            "registry.single_sum.s": incl["registry.single_sum"],
            "series.mul.s": incl["series.mul"],
            "series.mul.calls": calls["series.mul"],
            "series.mul.term_pairs": c["series.mul.term_pairs"],
            "series.invert.s": incl["series.invert"],
            "series.param_mul.s": incl["series.param_mul"],
            "series.param_mul.calls": calls["series.param_mul"],
            "series.compare.s": incl["series.compare"],
            "series.coeff_bits_max": self.maxima["series.coeff_bits_max"],
            "recognizer.profile.s": incl["recognizer.profile"],
            "recognizer.profile.calls": calls["recognizer.profile"],
            "recognizer.profile.exponents": c["recognizer.profile.exponents"],
            "recognizer.profile.nonintegral": c["recognizer.profile.nonintegral"],
            "recognizer.period.s": incl["recognizer.period"],
            "recognizer.hit_ratio": c["recognizer.hits"] / grid if grid else 0.0,
            "modular.check.s": incl["modular.check"],
            "modular.check.calls": calls["modular.check"],
            "modular.series_route.s": incl["modular.series_eval"] + incl["modular.component"],
            "modular.series_route.terms": c["modular.series_route.terms"],
            "modular.product_route.s": self_s["modular.check"],
            "modular.tail_bound_max": self.maxima["modular.tail_bound_max"],
            "zlaurent.ct.s": incl["zlaurent.ct"],
            "zlaurent.ct.calls": calls["zlaurent.ct"],
        }


def leftover_wrappers() -> list:
    """Names in nahm_forge still bound to a tracing wrapper (empty after
    uninstall)."""
    from nahm_forge import series
    owners = [m for name, m in sys.modules.items()
              if name == "nahm_forge" or name.startswith("nahm_forge.")]
    owners += [series.QSeries, series.ParamSeries]
    return [f"{getattr(o, '__name__', o)}.{attr}" for o in owners
            for attr, val in list(vars(o).items()) if getattr(val, MARK, False)]
