"""One measured process of the quatroots benchmark.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

run.py starts this script in a fresh process with BLAS/OpenMP threads pinned
to 1.  Sequence: import quatroots from the checkout's src/ and build the
inputs (setup, timed on its own), one untimed warm-up problem, then a closed
loop for S seconds: one client, one thread, each problem started when the
previous one returns.  The loop runs the whole input pool at least once, so
every input is attempted in every run.  Every distinct result is checked
after the loop, so checking never counts as problem time.  With --trace 1 every problem runs
twice, untraced then traced, and the traced copy records spans.  The last
line of stdout is a JSON summary for run.py.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import multiprocessing
import os
import re
import resource
import shutil
import statistics
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
WORK = REPO / ".perfbench"

# relative distance within which an injected zero counts as found
INJECTED_TOL = 1e-6
CHECK_PROCESSES = 2


def import_quatroots():
    """Import quatroots from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import quatroots
    if Path(quatroots.__file__).resolve().parent != (SRC / "quatroots").resolve():
        raise ImportError(f"quatroots imported from {quatroots.__file__}, not {SRC}")
    return {m: importlib.import_module(f"quatroots.{m}")
            for m in ("cli", "solver", "verify")}


@dataclass(frozen=True)
class Raised:
    """A solve that raised instead of returning a zero set."""

    kind: str
    message: str


@dataclass
class Verdict:
    reasons: list[str] = field(default_factory=list)  # empty: the problem passed
    backward: list[float] = field(default_factory=list)  # per audited entry
    wrong: bool = False  # the CLI claimed success, yet our check disagrees


def _close(x: float, y: float, scale: float) -> bool:
    return abs(x - y) <= INJECTED_TOL * max(1.0, abs(scale))


def missing_injected(problem, zero_sets) -> bool:
    """Whether some zero set lacks the sphere or double real zero put into the input."""
    for zs in zero_sets:
        if problem.sphere is not None:
            re_, mod = problem.sphere
            if not any(_close(c.re, re_, mod) and _close(c.modulus, mod, mod)
                       for c in zs.spherical):
                return True
        if problem.double_root is not None:
            r = problem.double_root
            if not any(_close(x, r, r) for x in zs.real_zeros):
                return True
    return False


class Checker:
    """audit with the library's defaults; backward error = residual / bound * accept."""

    def __init__(self, lib):
        self.verify = lib["verify"]
        self.accept = lib["solver"].DEFAULT_TOLS.accept

    def audit(self, poly, zs, verdict: Verdict) -> None:
        try:
            report = self.verify.audit(poly, zs)
        except Exception as exc:  # a raising audit is a failed problem, not a skipped one
            verdict.reasons.append(f"audit-raised:{type(exc).__name__}")
            return
        verdict.backward.extend(r / bound * self.accept for _, r, bound in report.entries
                                if 0.0 < bound < math.inf and not math.isnan(r))
        if not report.passed:
            verdict.reasons.append("audit-failed")


class ShortcutWorkload:
    """Each problem is one solve_complex_coeffs call on one SimplePolynomial."""

    def __init__(self, lib):
        self.lib = lib
        self.checker = Checker(lib)

    def prepare(self, problem, workdir):
        return self.lib["solver"].SimplePolynomial.from_rows(problem.rows)

    def execute(self, poly):
        try:
            return self.lib["solver"].solve_complex_coeffs(poly)
        except Exception as exc:
            return Raised(type(exc).__name__, str(exc))

    def check(self, problem, out) -> Verdict:
        v = Verdict()
        if isinstance(out, Raised):
            v.reasons.append(f"raised:{out.kind}")
        else:
            poly = self.lib["solver"].SimplePolynomial.from_rows(problem.rows)
            self.checker.audit(poly, out, v)
        return v


class CliWorkload:
    """Each problem is one in-process `quatroots FILE --format json` (compare mode)."""

    def __init__(self, lib):
        self.lib = lib
        self.checker = Checker(lib)

    def prepare(self, problem, workdir):
        path = workdir / f"{problem.family}-{problem.pid}.json"
        path.write_text(json.dumps({"name": f"{problem.family}-{problem.pid}",
                                    "coefficients": problem.rows.tolist()}))
        return str(path)

    def execute(self, path):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.lib["cli"].main([path, "--format", "json"])
        return rc, out.getvalue(), err.getvalue()

    def check(self, problem, out) -> Verdict:
        cli = self.lib["cli"]
        rc, stdout, stderr = out
        v = Verdict()
        if rc != cli.EXIT_OK and not stdout:
            m = re.search(r"\((\w+)\)", stderr)
            v.reasons.append(f"exit{rc}:{m.group(1) if m else 'error'}")
            return v
        try:
            doc = json.loads(stdout)
        except ValueError:
            v.reasons.append("bad-json")
            v.wrong = rc == cli.EXIT_OK
            return v
        algs = doc["algorithms"].values()
        if rc != cli.EXIT_OK:
            v.reasons.append(f"exit{rc}")
        if not all(a["verification"]["passed"] for a in algs):
            v.reasons.append("cli-audit-failed")
        if not all(d["empty"] for d in doc["agreement"].values()):
            v.reasons.append("compare-differs")
        claimed_ok = rc == cli.EXIT_OK and doc["ok"]
        poly = self.lib["solver"].SimplePolynomial.from_rows(problem.rows)
        sets = [cli.zero_set_from_json(a["zeros"]) for a in algs]
        own = Verdict()
        for zs in sets:
            self.checker.audit(poly, zs, own)
        v.backward = own.backward
        v.reasons.extend(own.reasons)
        missing = missing_injected(problem, sets)
        if missing:
            v.reasons.append("injected-missing")
        # the CLI reported success: our audit and the injected zeros must agree
        v.wrong = claimed_ok and (bool(own.reasons) or missing)
        return v


def make_workload(name: str, lib):
    if name == "cli-compare":
        return CliWorkload(lib)
    if name == "complex-shortcut":
        return ShortcutWorkload(lib)
    raise ValueError(f"unknown workload {name!r}")


def setup(workload: str, seed: int, workdir: Path):
    """Import the library and build the inputs; returns (seconds, wl, pool, items)."""
    start = perf_counter()
    lib = import_quatroots()
    from problems import build_pool
    wl = make_workload(workload, lib)
    pool = build_pool(workload, seed)
    items = [wl.prepare(p, workdir) for p in pool]
    return perf_counter() - start, wl, pool, items


def closed_loop(wl, items, seconds: float, tracer):
    """Run problems back to back for `seconds`, and at least one pass over
    `items`; returns records and loop time.

    A record is (pool index, seconds, output, traced).
    """
    records = []
    i = 0
    start = perf_counter()
    deadline = start + seconds
    while i < len(items) or perf_counter() < deadline:
        k = i % len(items)
        t0 = perf_counter()
        out = wl.execute(items[k])
        records.append((k, perf_counter() - t0, out, False))
        if tracer is not None:
            with tracer.problem_span(i) as root:
                out = wl.execute(items[k])
            span = tracer.spans[root]
            records.append((k, span.end - span.start, out, True))
        i += 1
    return records, perf_counter() - start


_checking = None  # the workload whose outputs a checker process checks


def _start_checker(workload: str) -> None:
    global _checking
    _checking = make_workload(workload, import_quatroots())


def _check(problem, out) -> Verdict:
    return _checking.check(problem, out)


def check_records(workload: str, pool, records):
    """Check each distinct output once, in CHECK_PROCESSES processes.

    Repeats of an output share its verdict.  Runs after the timed loop, so
    the second core it uses is idle while problems are timed.
    """
    keys = [(k, repr(out)) for k, _, out, _ in records]
    tasks = {}
    for key, (k, _, out, _) in zip(keys, records):
        tasks.setdefault(key, (pool[k], out))
    # largest inputs first, so the two processes finish together
    order = sorted(tasks, key=lambda key: -tasks[key][0].degree)
    ctx = multiprocessing.get_context("spawn")
    checkers = ctx.Pool(CHECK_PROCESSES, initializer=_start_checker, initargs=(workload,))
    try:
        verdicts = dict(zip(order, checkers.starmap(_check, [tasks[key] for key in order],
                                                    chunksize=1)))
        checkers.close()
    finally:
        checkers.terminate()
        checkers.join()
    return [verdicts[key] for key in keys], list(verdicts.values())


def layer_values(tracer, n_problems: int) -> dict[str, float]:
    """Per traced problem: inclusive and self seconds per span name, and counters."""
    incl, own = tracer.totals()
    out = {}
    for name in incl:
        out[f"{name}.s"] = incl[name] / n_problems
        out[f"{name}.self_s"] = own[name] / n_problems
    for key, n in tracer.counts.items():
        out[key] = n / n_problems
    return out


def measure(args) -> dict:
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        setup_s, wl, pool, items = setup(args.workload, args.seed, workdir)
        if args.setup_only:
            return {"setup_s": setup_s}
        tracer = None
        if args.trace:
            from spans import Tracer
            tracer = Tracer()
        # warm-up, untimed and uncounted: the largest input grows the heap
        # to its working size before timing starts
        wl.execute(items[max(range(len(pool)), key=lambda k: pool[k].degree)])
        records, loop_s = closed_loop(wl, items, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        verdicts, distinct = check_records(args.workload, pool, records)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # attempted and failed count inputs, not timed calls: how often the loop
    # repeats an input depends on the machine's speed, the verdict does not
    reasons: dict[int, set[str]] = defaultdict(set)
    for (k, _, _, _), v in zip(records, verdicts):
        reasons[k].update(v.reasons)
    families: dict[str, dict] = defaultdict(lambda: {"attempted": 0, "failed": 0,
                                                     "reasons": Counter()})
    for k, why in reasons.items():
        fam = families[pool[k].family]
        fam["attempted"] += 1
        fam["failed"] += bool(why)
        fam["reasons"].update(why)
    untraced = [d for _, d, _, traced in records if not traced]
    backward = [b for v in distinct for b in v.backward]
    summary = {
        "setup_s": setup_s,
        "attempted": len(reasons),
        "failed": sum(bool(why) for why in reasons.values()),
        "timed_calls": len(records),
        "wrong": sum(v.wrong for v in distinct),
        "distinct_outputs": len(distinct),
        "families": families,
        "untraced": untraced,
        "loop_s": loop_s,
        "peak_rss_mb": peak_rss_mb,
        "backward_p50": statistics.median(backward) if backward else float("nan"),
        "backward_max": max(backward) if backward else float("nan"),
        "backward_n": len(backward),
    }
    if tracer is not None:
        traced = [d for _, d, _, t in records if t]
        summary["traced"] = traced
        summary["layers"] = layer_values(tracer, len(traced))
        spans_file = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(spans_file)
        summary["spans_file"] = str(spans_file.relative_to(REPO))
    return summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    print(json.dumps(measure(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
