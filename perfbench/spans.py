"""Span tracing of quatroots from outside the package.

Tracer.install() replaces each traced function, wherever a quatroots module
holds a reference to it, with a wrapper that records a span (name, start,
end, parent span, problem id) and bumps the layer's counters.  uninstall()
puts the originals back.  Spans stay in memory until dump().

Self time is a span's duration minus the part of it covered by its child
spans; the self times of one problem's spans add up to its root span.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    problem: int


ROOT = "problem"


def _degree(args, kwargs, result, exc):
    return {"degree_sum": args[0].degree}


def _points(args, kwargs, result, exc):
    return {"points": len(args[1])}


def _multiples(args, kwargs, result, exc):
    return {"multiple_entries": sum(1 for _, m in args[1].roots if m >= 2)}


def _audit(args, kwargs, result, exc):
    if result is None:
        return {}
    return {"entries": len(result.entries), "failed": int(not result.passed)}


def _nonempty(args, kwargs, result, exc):
    return {"nonempty": int(bool(result))} if exc is None else {}


def _build(args, kwargs, result, exc):
    # args[0] is the class: build(cls, reals, isolated, classes, ...)
    counts = {"items_in": sum(len(a) for a in args[1:4])}
    if result is not None:
        counts["items_kept"] = result.class_count()
    return counts


# (module, attribute, span name, extra counters).  Every span name also gets
# "calls" and "errors" (calls that raised).
TARGETS = (
    ("cli", "main", "cli.main", None),
    ("cli", "parse_problem", "cli.parse_problem", None),
    ("solver", "solve_discriminant", "solver.solve_discriminant", None),
    ("solver", "solve_factored", "solver.solve_factored", None),
    ("solver", "solve_complex_coeffs", "solver.solve_complex_coeffs", None),
    ("solver", "normalize", "solver.normalize", None),
    ("solver", "derived", "solver.derived", None),
    ("solver", "discriminant", "solver.discriminant", None),
    ("solver", "factor_g", "solver.factor_g", None),
    ("solver", "is_spherical_root", "solver.is_spherical_root", None),
    ("solver", "isolated_zero", "solver.isolated_zero", None),
    ("solver", "ZeroSet.build", "solver.ZeroSet.build", _build),
    ("cpoly", "gcd", "cpoly.gcd", None),
    ("roots", "all_roots", "roots.all_roots", _degree),
    ("roots", "_eval_state", "roots.eval_state", _points),
    ("roots", "polish_multiples", "roots.polish_multiples", _multiples),
    ("roots", "classify_real", "roots.classify_real", None),
    ("companion", "solve_companion", "companion.solve_companion", None),
    ("companion", "companion", "companion.companion", None),
    ("companion", "ab", "companion.ab", None),
    ("verify", "audit", "verify.audit", _audit),
    ("verify", "compare", "verify.compare", _nonempty),
)

# Too frequent for a span each: counted only.
COUNTED = (("quaternion", "Quaternion.__mul__", "quaternion.mul"),)

MODULES = ("cli", "companion", "cpoly", "quaternion", "roots", "solver", "verify")


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for idx, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for start, end in sorted(children.get(idx, ())):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out.append((s.end - s.start) - covered)
    return out


class Tracer:
    """Records spans and counters of the quatroots layers named in TARGETS."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.problem = -1
        self._stack: list[int] = []
        mods = [importlib.import_module("quatroots")]
        mods += [importlib.import_module(f"quatroots.{m}") for m in MODULES]
        self._patches = []  # (owner, key, original, wrapper); owner is an object or dict
        for mod, attr, name, extra in TARGETS:
            self._plan(mods, mod, attr, self._span_wrapper(name, extra))
        for mod, attr, name in COUNTED:
            self._plan(mods, mod, attr, self._count_wrapper(name))

    def _plan(self, mods, mod: str, attr: str, make_wrapper) -> None:
        home = importlib.import_module(f"quatroots.{mod}")
        if "." in attr:
            # a method: patch the class attribute, keeping classmethod-ness
            cls_name, meth = attr.split(".")
            owner = getattr(home, cls_name)
            raw = owner.__dict__[meth]
            if isinstance(raw, classmethod):
                wrapped = classmethod(make_wrapper(raw.__func__))
            else:
                wrapped = make_wrapper(raw)
            self._patches.append((owner, meth, raw, wrapped))
            return
        original = getattr(home, attr)
        wrapped = make_wrapper(original)
        # every module-level reference, including dispatch tables
        for m in mods:
            for key, value in vars(m).items():
                if value is original:
                    self._patches.append((m, key, original, wrapped))
                elif isinstance(value, dict):
                    for k, v in value.items():
                        if v is original:
                            self._patches.append((value, k, original, wrapped))

    def _span_wrapper(self, name: str, extra):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                sid = len(self.spans)
                parent = self._stack[-1] if self._stack else -1
                self.spans.append(None)
                self._stack.append(sid)
                result = exc = None
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                    return result
                except BaseException as e:
                    exc = e
                    raise
                finally:
                    end = perf_counter()
                    self._stack.pop()
                    self.spans[sid] = Span(name, start, end, parent, self.problem)
                    self.counts[f"{name}.calls"] += 1
                    self.counts[f"{name}.errors"] += exc is not None
                    if extra is not None:
                        for key, n in extra(args, kwargs, result, exc).items():
                            self.counts[f"{name}.{key}"] += n
            return wrapper
        return make

    def _count_wrapper(self, name: str):
        key = f"{name}.calls"

        def make(fn):
            counts = self.counts

            @functools.wraps(fn)
            def wrapper(*args):
                counts[key] += 1
                return fn(*args)
            return wrapper
        return make

    @staticmethod
    def _set(owner, key, value) -> None:
        if isinstance(owner, dict):
            owner[key] = value
        else:
            setattr(owner, key, value)

    def install(self) -> None:
        for owner, key, _, wrapped in self._patches:
            self._set(owner, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original, _ in reversed(self._patches):
            self._set(owner, key, original)

    @contextmanager
    def problem_span(self, pid: int):
        """Trace one problem under a root span; yields the root span's index."""
        self.problem = pid
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        self.install()
        start = perf_counter()
        try:
            yield sid
        finally:
            end = perf_counter()
            self.uninstall()
            self._stack.pop()
            self.spans[sid] = Span(ROOT, start, end, -1, pid)

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """Inclusive and self seconds summed per span name."""
        incl: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for s, t in zip(self.spans, self_times(self.spans)):
            incl[s.name] += s.end - s.start
            own[s.name] += t
        return incl, own

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
