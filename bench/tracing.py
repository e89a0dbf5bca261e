"""Span tracing of polycrt's public entry points, from outside the library.

:func:`install` wraps the entry points below and returns a :class:`Tracer`
that keeps every span in memory; :func:`uninstall` puts the originals back.
Module-level functions are replaced under every name a ``polycrt`` module
binds them to (``levels`` calls ``gcd``/``xgcd``/``lcm`` through its own
imports, ``simulation`` calls ``encode`` and ``reconstruct`` through its
own), and methods are replaced on their class.

A span is ``(name, start_ns, end_ns, parent, op)``: ``parent`` indexes the
enclosing span (or is None) and ``op`` is the id of the benchmark operation
that was running.  Only spans inside an operation feed the per-layer
metrics; the benchmark's own input building runs with ``op`` None.
Self time is a span's duration minus the durations of its direct children,
so it includes the wrapper cost of those children.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

Span = Tuple[str, int, int, Optional[int], Optional[int]]

# (module, qualified attribute, span name)
ENTRY_POINTS = (
    ("polycrt.poly", "Polynomial.__init__", "Polynomial.__init__"),
    ("polycrt.poly", "Polynomial.__add__", "Polynomial.__add__"),
    ("polycrt.poly", "Polynomial.__sub__", "Polynomial.__sub__"),
    ("polycrt.poly", "Polynomial.__mul__", "Polynomial.__mul__"),
    ("polycrt.poly", "Polynomial.__divmod__", "Polynomial.__divmod__"),
    ("polycrt.poly", "gcd", "gcd"),
    ("polycrt.poly", "xgcd", "xgcd"),
    ("polycrt.poly", "lcm", "lcm"),
    ("polycrt.poly", "parse_polynomial", "parse_polynomial"),
    ("polycrt.field", "PrimeField.inv", "PrimeField.inv"),
    ("polycrt.levels", "analyze_pair", "analyze_pair"),
    ("polycrt.crt", "encode", "encode"),
    ("polycrt.decoder", "ErroneousResiduePair.__init__", "ErroneousResiduePair.__init__"),
    ("polycrt.decoder", "reconstruct", "reconstruct"),
    ("polycrt.simulation", "run_campaign", "run_campaign"),
    ("polycrt.simulation", "sample_polynomial", "sample_polynomial"),
    ("polycrt.simulation", "sample_error", "sample_error"),
    ("polycrt.simulation", "sample_monic", "sample_monic"),
    ("polycrt.cli", "main", "cli.main"),
)

# Per-layer self-time metrics: metric name -> span names it sums.
SELF_MS = {
    "poly.init.self_ms": ("Polynomial.__init__",),
    "poly.addsub.self_ms": ("Polynomial.__add__", "Polynomial.__sub__"),
    "poly.mul.self_ms": ("Polynomial.__mul__",),
    "poly.divmod.self_ms": ("Polynomial.__divmod__",),
    "poly.euclid.self_ms": ("gcd", "xgcd", "lcm"),
    "poly.parse.self_ms": ("parse_polynomial",),
    "levels.analyze_pair.self_ms": ("analyze_pair",),
    "crt.encode.self_ms": ("encode",),
    "decoder.reconstruct.self_ms": ("reconstruct",),
    "decoder.pair_check.self_ms": ("ErroneousResiduePair.__init__",),
    "simulation.sample.self_ms": ("sample_polynomial", "sample_error", "sample_monic"),
    "simulation.run_campaign.self_ms": ("run_campaign",),
    "cli.main.self_ms": ("cli.main",),
}

# Per-layer call counts: metric name -> span name.
CALLS = {
    "poly.init.calls": "Polynomial.__init__",
    "poly.mul.calls": "Polynomial.__mul__",
    "poly.divmod.calls": "Polynomial.__divmod__",
    "poly.gcd.calls": "gcd",
    "poly.xgcd.calls": "xgcd",
    "field.inv.calls": "PrimeField.inv",
}

# Counts computed from arguments and results, independent of timing.
COMPUTED = (
    "poly.mul.coeff_ops",
    "poly.divmod.coeff_ops",
    "levels.cascade_moduli.coeffs",
    "decoder.cascade_steps",
    "decoder.branch.folded_difference",
    "decoder.branch.large_residue",
    "decoder.branch.equal_residues",
    "simulation.outcomes_retained",
)


def _length(poly) -> int:
    """Dense coefficient count of a polynomial, from its public degree."""
    deg = poly.degree
    return int(deg) + 1 if deg >= 0 else 0


def _mul_ops(args, kwargs, result) -> Dict[str, int]:
    return {"poly.mul.coeff_ops": _length(args[0]) * _length(args[1])}


def _divmod_ops(args, kwargs, result) -> Dict[str, int]:
    na, nb = _length(args[0]), _length(args[1])
    return {"poly.divmod.coeff_ops": (na - nb + 1) * nb if na >= nb else 0}


def _analysis_coeffs(args, kwargs, result) -> Dict[str, int]:
    moduli = getattr(result, "cascade_moduli", ())
    return {"levels.cascade_moduli.coeffs": sum(_length(m) for m in moduli)}


def _decode_counts(args, kwargs, result) -> Dict[str, int]:
    level = kwargs["level"] if "level" in kwargs else args[1]
    branch = getattr(getattr(result, "branch", None), "value", "unknown")
    return {
        f"decoder.branch.{branch}": 1,
        "decoder.cascade_steps": 0 if branch == "equal_residues" else level,
    }


def _outcomes(args, kwargs, result) -> Dict[str, int]:
    return {"simulation.outcomes_retained": len(getattr(result, "outcomes", ()))}


COUNTERS: Dict[str, Callable] = {
    "Polynomial.__mul__": _mul_ops,
    "Polynomial.__divmod__": _divmod_ops,
    "analyze_pair": _analysis_coeffs,
    "reconstruct": _decode_counts,
    "run_campaign": _outcomes,
}


def unit(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_frac"):
        return "frac"
    return "count"


class Tracer:
    """Collects spans and computed counts; one instance per traced pass."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self.stack: List[int] = []
        self.op: Optional[int] = None
        self.counts: Counter = Counter()
        self._patches: List[Tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            op = self.op
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, op)
            if counter is not None and op is not None:
                self.counts.update(counter(args, kwargs, result))
            return result

        return traced

    def layer_metrics(self) -> Dict[str, float]:
        """Per-layer metrics over the spans recorded inside operations."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        self_ns: Counter = Counter()
        calls: Counter = Counter()
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            if op is None:
                continue
            self_ns[name] += end - start - child_ns[i]
            calls[name] += 1
        out: Dict[str, float] = {}
        for metric, names in SELF_MS.items():
            out[metric] = sum(self_ns[n] for n in names) / 1e6
        for metric, name in CALLS.items():
            out[metric] = calls[name]
        for metric in COMPUTED:
            out[metric] = self.counts[metric]
        return out

    def exact_counts(self) -> Dict[str, int]:
        """The counts that must repeat exactly for the same inputs."""
        m = self.layer_metrics()
        return {k: int(m[k]) for k in (*CALLS, *COMPUTED)}


def _resolve(module: str, qualname: str):
    owner = sys.modules.get(module)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    if owner is None:
        return None, attr, None
    return owner, attr, vars(owner).get(attr)


def install(tracer: Tracer) -> Tracer:
    """Wrap every entry point that exists; returns the tracer."""
    functions = {}
    for module, qualname, name in ENTRY_POINTS:
        owner, attr, original = _resolve(module, qualname)
        if original is None:
            continue
        wrapped = tracer.wrap(name, original)
        if isinstance(owner, type):
            tracer._patches.append((owner, attr, original))
            setattr(owner, attr, wrapped)
        else:
            functions[id(original)] = (original, wrapped)
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "polycrt" or modname.startswith("polycrt.")):
            continue
        for attr, value in list(vars(mod).items()):
            hit = functions.get(id(value))
            if hit is not None and hit[0] is value:
                tracer._patches.append((mod, attr, value))
                setattr(mod, attr, hit[1])
    return tracer


def uninstall(tracer: Tracer) -> None:
    """Restore every wrapped entry point."""
    while tracer._patches:
        owner, attr, original = tracer._patches.pop()
        setattr(owner, attr, original)
