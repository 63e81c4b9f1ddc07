"""Per-layer spans for the traced benchmark run.

:class:`Tracer` wraps public functions of the chloc modules from outside the
library.  A function imported by name into another module (for example
``compute_at_precision`` into ``charclasses`` and ``localize``) or aliased
inside a class (``__radd__ = __add__``) is patched at every binding, so
every call is seen.  Each wrapped call is a span; a span's self time is its
duration minus the time covered by its child spans.  Spans are aggregated
in memory per (parent, name) edge and written out by :meth:`Tracer.dump`.
"""

from __future__ import annotations

import sys
from time import perf_counter

# metric prefix -> (module, attribute path)
TARGETS = {
    "rings.mul": ("chloc.rings", "ChowElement.__mul__"),
    "rings.add": ("chloc.rings", "ChowElement.__add__"),
    "rings.exp": ("chloc.rings", "ChowElement.exp"),
    "series.mul": ("chloc.series", "QSeries.__mul__"),
    "series.exp": ("chloc.series", "QSeries.exp"),
    "series.invert": ("chloc.series", "QSeries.invert"),
    "series.precision": ("chloc.series", "compute_at_precision"),
    "charclasses.todd": ("chloc.charclasses", "todd"),
    "charclasses.hirzebruch_class": ("chloc.charclasses", "hirzebruch_class"),
    "charclasses.equivariant_euler": ("chloc.charclasses", "equivariant_euler"),
    "charclasses.todd_twist_ratio": ("chloc.charclasses", "todd_twist_ratio"),
    "charclasses.euler_identity_check": ("chloc.charclasses", "euler_identity_check"),
    "localize.localization_product": ("chloc.localize", "localization_product"),
    "localize.hodge_product": ("chloc.localize", "hodge_product"),
    "localize.crosscheck_factors": ("chloc.localize", "crosscheck_factors"),
    "ratfunc.new": ("chloc.ratfunc", "RatFunc.__init__"),
    "ratfunc.mul": ("chloc.ratfunc", "RatFunc.__mul__"),
    "ratfunc.poly_mul": ("chloc.ratfunc", "BivarPoly.__mul__"),
    "ifunction.i_coefficient": ("chloc.ifunction", "i_coefficient"),
    "ifunction.picard_fuchs_check": ("chloc.ifunction", "picard_fuchs_check"),
    "chains.chain_solve": ("chloc.chains", "chain_solve"),
    "chains.symmetry_group": ("chloc.chains", "symmetry_group"),
    "classexpr.parse_class_expr": ("chloc.classexpr", "parse_class_expr"),
}

# workload -> layer prefixes whose functions it must never call
UNUSED = {
    "identity": ("series.invert.",),
    "pf": ("rings.", "series."),
}


def unused_layer_problems(workload: str, metrics: dict[str, tuple[float, str]]) -> list[str]:
    """One message per wrapped function the workload called but must not."""
    prefixes = UNUSED.get(workload, ())
    return [
        f"{workload}: {name} is {value}, expected 0"
        for name, (value, _) in metrics.items()
        if name.endswith(".calls") and name.startswith(prefixes) and value
    ]


def _resolve(module_name: str, path: str):
    obj = sys.modules[module_name]
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def _bindings(func):
    """Every (namespace owner, attribute) in the chloc modules bound to func."""
    out = []
    for name, module in list(sys.modules.items()):
        if name != "chloc" and not name.startswith("chloc."):
            continue
        for attr, value in vars(module).items():
            if value is func:
                out.append((module, attr))
            elif isinstance(value, type) and value.__module__ == name:
                out += [(value, a) for a, v in vars(value).items() if v is func]
    return out


class Tracer:
    """Installs span wrappers, accumulates per-round counts and self times."""

    def __init__(self):
        self._originals = {name: _resolve(*where) for name, where in TARGETS.items()}
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[list] = []  # [name, time covered by child spans]
        self.edges: dict[tuple[str, str], list] = {}  # (parent, name) -> [calls, total_s, self_s]
        self.reset()

    def reset(self):
        """Start a new round of counts."""
        self.calls = dict.fromkeys(TARGETS, 0)
        self.self_s = dict.fromkeys(TARGETS, 0.0)
        self.term_pairs = self.kept_pairs = 0
        self.retries = self.work_order = self.target_order = 0

    # -- installation ---------------------------------------------------------------

    def install(self):
        for name, func in self._originals.items():
            wrapper = self._wrap(name, func)
            for owner, attr in _bindings(func):
                self._patches.append((owner, attr, func))
                setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, func in reversed(self._patches):
            setattr(owner, attr, func)
        self._patches.clear()

    def _wrap(self, name, func):
        stack, edges = self._stack, self.edges
        count_pairs = name == "rings.mul"
        count_orders = name == "series.precision"

        def wrapper(*args, **kwargs):
            if count_pairs:
                h0 = perf_counter()
                self._count_pairs(*args)
                if stack:  # keep the counting out of the enclosing span's self time
                    stack[-1][1] += perf_counter() - h0
            elif count_orders:
                args = self._count_orders(*args)
            self.calls[name] += 1
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                own = dt - frame[1]
                self.self_s[name] += own
                edge = edges.setdefault((stack[-1][0] if stack else "", name), [0, 0.0, 0.0])
                edge[0] += 1
                edge[1] += dt
                edge[2] += own
                if stack:
                    stack[-1][1] += dt

        wrapper.__wrapped__ = func
        wrapper.__name__ = getattr(func, "__name__", name)
        return wrapper

    # -- counters ---------------------------------------------------------------------

    def _count_pairs(self, lhs, rhs=None, *_):
        """Operand term pairs of a Chow product and those within the truncation."""
        if not hasattr(rhs, "items") or not hasattr(rhs, "ring"):
            return
        ring = lhs.ring
        hist: dict[int, int] = {}
        for m, _c in rhs.items():
            d = ring.monomial_degree(m)
            hist[d] = hist.get(d, 0) + 1
        n_rhs = sum(hist.values())
        for m, _c in lhs.items():
            d = ring.monomial_degree(m)
            self.term_pairs += n_rhs
            self.kept_pairs += sum(n for e, n in hist.items() if d + e <= ring.truncation)

    def _count_orders(self, fn, target, margin):
        """Wrap fn so the working orders compute_at_precision asks for are seen."""
        orders = []
        self.target_order += target

        def counted(order):
            if orders:
                self.retries += 1
                self.work_order -= orders[-1]
            orders.append(order)
            self.work_order += order
            return fn(order)

        return counted, target, margin

    def round_metrics(self) -> dict[str, tuple[float, str]]:
        """This round's metrics: name -> (value, unit)."""
        out: dict[str, tuple[float, str]] = {}
        for name in TARGETS:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
        out["rings.mul.term_pairs"] = (self.term_pairs, "count")
        out["rings.mul.kept_ratio"] = (
            self.kept_pairs / self.term_pairs if self.term_pairs else 0.0, "ratio")
        out["series.precision.retries"] = (self.retries, "count")
        out["series.precision.pad_ratio"] = (
            self.work_order / self.target_order if self.target_order else 0.0, "ratio")
        return out

    def dump(self) -> list[dict]:
        """The aggregated span edges, heaviest total time first."""
        rows = [
            {"parent": p, "name": n, "calls": c, "total_s": t, "self_s": s}
            for (p, n), (c, t, s) in self.edges.items()
        ]
        return sorted(rows, key=lambda r: -r["total_s"])
