"""Spans and counters around combstat's public functions, from outside.

Nothing under ``src/`` changes: ``Tracer.install`` replaces every public
function of the seven layer modules with a wrapper, wherever a combstat
module bound it (``gfcat.ps_mul`` as well as ``series.ps_mul``) and in
module-level registries such as ``maps.BIJECTIONS``.  ``uninstall`` puts
the originals back, so the benchmark's own output checks run untraced.

A span is ``[name, parent, op, start, end]``, kept in memory and written
out at the end; a layer's self time is the time its spans cover minus
what their child spans cover.  Functions called once per object or per
y-polynomial are counted, not spanned (``COUNT_ONLY``): a span costs
about a microsecond, and at T(14) the nine systems make ~295k
``yp_mul`` calls.  Two recursions over tree nodes are left bare
(``BARE``); their time is their caller's self time.
"""

from __future__ import annotations

import inspect
import time
from collections import Counter, defaultdict
from fractions import Fraction

LAYERS = ("exact", "series", "gfcat", "closed", "objects", "maps", "cli")

# called per y-polynomial or per object; their time is their caller's
# self time
COUNT_ONLY = {
    "exact.yp_trim", "exact.yp_add", "exact.yp_neg", "exact.yp_sub",
    "exact.yp_scale", "exact.yp_mul", "exact.yp_inv", "exact.yp_shift_down",
    "exact.yp_eval1", "exact.yp_deriv1", "exact.yp_is_zero",
    "objects.statistic_vector", "objects.plane_leaf_count",
}

# called per tree node (perm_to_increasing makes ~1.5M calls in one
# columns pass); even counting them put a quarter on the traced columns
# pass, and no metric needs their count
BARE = {"objects.perm_to_increasing", "objects.increasing_to_perm"}

# registries that hold functions by value; the statistic walkers in
# objects._STATISTICS run once per object and position, so they stay bare
# and are counted through statistic_vector instead
SKIP_REGISTRIES = {("objects", "_STATISTICS")}


def public_functions(module):
    return {
        attr: fn for attr, fn in vars(module).items()
        if not attr.startswith("_") and inspect.isfunction(fn)
        and fn.__module__ == module.__name__
    }


class Tracer:
    def __init__(self, modules):
        """``modules`` maps each layer name to its imported module."""
        self.spans = []
        self.stack = []
        self.op = -1
        self.calls = Counter()       # counted (not spanned) functions
        self.active = Counter()      # spanned functions on the stack, by name
        self.mul_pairs = 0           # ps_mul: cell pairs tried
        self.mul_kept = 0            # ps_mul: output cells
        self.coefficients = 0        # in Series returned by gf_closed / gf_solve
        self.fractions = 0           # ... of which are Fractions
        self.top_builds = 0          # gf_closed not inside another gf_closed
        self.top_columns = 0         # distribution_via_gf not inside another
        self.swept = {}              # (family, n) -> objects enumerated
        self._sites = []             # (namespace, key, original, wrapper)
        self._wrap_all(modules)

    # ---------------------------------------------------------- wrapping

    def _wrap_all(self, modules):
        # keyed by id: module namespaces also hold unhashable values; the
        # originals stay alive as module attributes, so ids are not reused
        wrappers = {}
        for layer in LAYERS:
            for attr, fn in public_functions(modules[layer]).items():
                name = "%s.%s" % (layer, attr)
                if name not in BARE:
                    wrappers[id(fn)] = self._wrap(name, fn)
        for layer, mod in modules.items():
            ns = vars(mod)
            for key, value in list(ns.items()):
                if id(value) in wrappers:
                    self._sites.append((ns, key, value, wrappers[id(value)]))
                elif isinstance(value, dict) and not key.startswith("__") \
                        and (layer, key) not in SKIP_REGISTRIES:
                    self._wrap_registry(value, wrappers)

    def _wrap_registry(self, registry, wrappers):
        for key, value in list(registry.items()):
            items = value if isinstance(value, tuple) else (value,)
            swapped = tuple(wrappers.get(id(v), v) for v in items)
            if any(a is not b for a, b in zip(swapped, items)):
                new = swapped if isinstance(value, tuple) else swapped[0]
                self._sites.append((registry, key, value, new))

    def _wrap(self, name, fn):
        if name in COUNT_ONLY:
            return self._counter(name, fn)
        if name == "objects.enumerate_family":
            fn = self._sweep_counter(fn)
        after = {
            "series.ps_mul": self._after_mul,
            "gfcat.gf_closed": self._after_build,
            "gfcat.gf_solve": self._after_solve,
            "gfcat.distribution_via_gf": self._after_column,
        }.get(name)
        return self._span(name, fn, after)

    def _span(self, name, fn, after):
        spans, stack, active = self.spans, self.stack, self.active
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, tracer.op, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            active[name] += 1
            rec[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                active[name] -= 1
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _sweep_counter(self, fn):
        swept = self.swept

        def enumerate_family(family, n, *args, **kwargs):
            it = fn(family, n, *args, **kwargs)

            def counted():
                count = 0
                for obj in it:
                    count += 1
                    yield obj
                if count > swept.get((family, n), 0):
                    swept[(family, n)] = count

            return counted()

        return enumerate_family

    # ratio counters, from call arguments and return values

    def _after_mul(self, args, result):
        self.mul_pairs += len(args[0].cells) * len(args[1].cells)
        self.mul_kept += len(result.cells)

    def _after_build(self, args, result):
        self._after_solve(args, result)
        if self.active["gfcat.gf_closed"] == 0:
            self.top_builds += 1

    def _after_solve(self, args, result):
        for p in result.cells.values():
            self.coefficients += len(p)
            self.fractions += sum(1 for c in p if isinstance(c, Fraction))

    def _after_column(self, args, result):
        if self.active["gfcat.distribution_via_gf"] == 0:
            self.top_columns += 1

    # ---------------------------------------------------- install / undo

    def install(self):
        for ns, key, _, wrapper in self._sites:
            ns[key] = wrapper

    def uninstall(self):
        for ns, key, original, _ in self._sites:
            ns[key] = original

    # ----------------------------------------------------------- results

    def self_times(self):
        """Self seconds and call count per spanned function name."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _, parent, _, t0, t1 in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_s = defaultdict(float)
        calls = Counter()
        for i, (name, _, _, t0, t1) in enumerate(spans):
            self_s[name] += (t1 - t0) - child[i]
            calls[name] += 1
        return self_s, calls

    def layer_metrics(self):
        """Every per-layer metric, plus the bases of the ratios."""
        self_s, span_calls = self.self_times()
        calls = Counter(span_calls)
        calls.update(self.calls)
        m = {}
        for layer in LAYERS:
            m[layer + ".self_s"] = sum(v for k, v in self_s.items()
                                       if k.startswith(layer + "."))
            m[layer + ".spans"] = sum(v for k, v in span_calls.items()
                                      if k.startswith(layer + "."))
        for name in ("exact.yp_mul", "exact.yp_add", "series.ps_mul", "series.ps_inv",
                     "series.solve_fixed_point", "gfcat.gf_closed",
                     "closed.exact_average", "objects.statistic_vector"):
            m[name + ".calls"] = calls[name]
        for name in ("series.ps_mul", "series.ps_linear_solve", "series.ps_sqrt",
                     "series.ps_exp", "series.solve_fixed_point", "gfcat.gf_solve",
                     "gfcat.gf_residual", "gfcat.distribution_via_gf",
                     "closed.exact_average", "closed.limit_distribution",
                     "closed.limit_mean_series", "objects.distribution"):
            m[name + ".self_s"] = self_s.get(name, 0.0)
        m["maps.calls"] = m["maps.spans"]

        objects_swept = sum(self.swept.values())
        bases = {
            "exact.fraction_share": (self.fractions, self.coefficients),
            "series.ps_mul.kept_ratio": (self.mul_kept, self.mul_pairs),
            "gfcat.builds_per_column": (self.top_builds, self.top_columns),
            "objects.walks_per_object": (calls["objects.statistic_vector"], objects_swept),
        }
        for name, (num, den) in bases.items():
            m[name] = num / den if den else 0.0
        return m, bases

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("id\tparent\top\tname\tstart_s\tend_s\n")
            for i, (name, parent, op, t0, t1) in enumerate(self.spans):
                fh.write("%d\t%d\t%d\t%s\t%.9f\t%.9f\n" % (i, parent, op, name, t0, t1))
