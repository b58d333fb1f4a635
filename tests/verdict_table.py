"""Per-input verdicts of the general routes as JSON, and where two such tables differ.

    PYTHONPATH=src python tests/verdict_table.py OUT.json [--seeds 1 2 ...]
    python tests/verdict_table.py --diff A.json B.json

A table holds one entry per (family, input, route): the route's audit verdict ("pass",
"fail", or the name of the exception the solve raised), its class count, and, where the
family puts a known zero into the input, whether the route reports it exactly once.  The
families are conftest's: double, triple and sphere2 (200 each, default_rng(12345)), graded
(400), shifted at degrees 24, 32 and 44 (20 each), isolated and near(delta) for delta = 1e-3,
1e-5 and 1e-8 (50 each, default_rng(99)).  It also holds one entry per cli-compare problem
of each seed: the exit code and the reasons of perfbench's CliWorkload.check, so that a
change to the library can be held against its parent input by input.  pytest does not
collect this file.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO / "src"), str(REPO / "perfbench")]

import numpy as np  # noqa: E402

import quatroots  # noqa: E402
import worker  # noqa: E402
from conftest import (MULTIPLE_ZERO_FAMILIES, graded_inputs, isolated_zero_inputs,  # noqa: E402
                      multiple_zero_inputs, reports_injected_once, reports_isolated_once,
                      shifted_inputs)
from problems import build_pool  # noqa: E402

ROUTES = ("discriminant", "factored", "companion")
NEAR = {"isolated": None, "near(1e-3)": 1e-3, "near(1e-5)": 1e-5, "near(1e-8)": 1e-8}


def family_inputs():
    """{family: [(SimplePolynomial, once), ...]}, once(zs) the known-zero check or None."""
    out = {}
    for family in MULTIPLE_ZERO_FAMILIES:
        out[family] = [(p, lambda zs, z=z: reports_injected_once(zs, z)) for p, z in
                       multiple_zero_inputs(family, 200, np.random.default_rng(12345))]
    out["graded"] = [(p, None) for p in graded_inputs(400)]
    for n in (24, 32, 44):
        out[f"shifted{n}"] = [(p, None) for p in shifted_inputs(n, 20)]
    for family, delta in NEAR.items():
        out[family] = [(p, lambda zs, b=b: reports_isolated_once(zs, b)) for p, b in
                       isolated_zero_inputs(delta, 50, np.random.default_rng(99))]
    return out


def route_verdict(route: str, p, once) -> dict:
    try:
        zs = getattr(quatroots, f"solve_{route}")(p)
    except Exception as exc:
        return {"verdict": type(exc).__name__, "classes": None, "once": None}
    return {"verdict": "pass" if quatroots.audit(p, zs).passed else "fail",
            "classes": zs.class_count(), "once": None if once is None else once(zs)}


def cli_compare_verdicts(seed: int) -> dict:
    """{pid: {"rc", "reasons"}} of CliWorkload.check on each cli-compare problem of seed."""
    wl = worker.CliWorkload(worker.import_quatroots())
    out = {}
    with tempfile.TemporaryDirectory() as workdir:
        for problem in build_pool("cli-compare", seed):
            run = wl.execute(wl.prepare(problem, Path(workdir)))
            out[problem.pid] = {"rc": run[0], "reasons": wl.check(problem, run).reasons}
    return out


def table(seeds) -> dict:
    entries = {}
    for family, inputs in family_inputs().items():
        for index, (p, once) in enumerate(inputs):
            for route in ROUTES:
                entries[f"{family}:{index}:{route}"] = route_verdict(route, p, once)
    for seed in seeds:
        for pid, verdict in cli_compare_verdicts(seed).items():
            entries[f"cli-compare:{seed}:{pid}"] = verdict
    return entries


def diff(a: dict, b: dict) -> list[str]:
    """One line per key whose entry differs or is in one table only."""
    return [f"{key}: {a.get(key)} -> {b.get(key)}"
            for key in sorted(a.keys() | b.keys()) if a.get(key) != b.get(key)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", nargs="?", help="JSON file to write the table to")
    ap.add_argument("--seeds", type=int, nargs="*", default=list(range(1, 11)),
                    help="cli-compare seeds (default 1 to 10)")
    ap.add_argument("--diff", nargs=2, metavar=("A", "B"), help="print where two tables differ")
    args = ap.parse_args(argv)
    if args.diff:
        a, b = (json.loads(Path(f).read_text()) for f in args.diff)
        lines = diff(a, b)
        print("\n".join(lines + [f"{len(lines)} of {len(a.keys() | b.keys())} entries differ"]))
        return 0
    if not args.out:
        ap.error("give OUT.json, or --diff A.json B.json")
    Path(args.out).write_text(json.dumps(table(args.seeds), indent=0, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
