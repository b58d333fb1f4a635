"""The library surfaces the benchmark reads, exercised through the benchmark's own code.

perfbench/ reads names, signatures and fields of the library (DEFAULT_TOLS.accept,
ZeroSet.build's positional arguments, RootList.roots, VerificationReport.entries as
triples, cli.zero_set_from_json, the functions spans.Tracer wraps).  A library change
that would break a benchmark run fails here instead.
"""

import importlib
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def bench():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        mods = {m: importlib.import_module(m) for m in ("problems", "spans", "worker")}
        yield SimpleNamespace(lib=mods["worker"].import_quatroots(), **mods)


def _checked(verdict):
    assert not verdict.wrong
    assert not any(r == "bad-json" or r.startswith(("audit-raised", "raised"))
                   for r in verdict.reasons), verdict.reasons
    assert verdict.backward


def test_cli_workload_on_one_input_per_family(bench, tmp_path):
    wl = bench.worker.CliWorkload(bench.lib)
    pool = bench.problems.build_pool("cli-compare", 1)
    for family in ("general", "sphere", "double", "complex"):
        problem = next(p for p in pool if p.family == family)
        _checked(wl.check(problem, wl.execute(wl.prepare(problem, tmp_path))))


def test_shortcut_workload_on_one_input(bench, tmp_path):
    wl = bench.worker.ShortcutWorkload(bench.lib)
    problem = bench.problems.build_pool("complex-shortcut", 1)[0]
    _checked(wl.check(problem, wl.execute(wl.prepare(problem, tmp_path))))


def test_a_traced_cli_problem_counts_every_layer(bench, tmp_path):
    wl = bench.worker.CliWorkload(bench.lib)
    problem = next(p for p in bench.problems.build_pool("cli-compare", 1) if p.family == "double")
    item = wl.prepare(problem, tmp_path)
    tracer = bench.spans.Tracer()
    with tracer.problem_span(0):
        out = wl.execute(item)
    _checked(wl.check(problem, out))
    for key in ("verify.audit.entries", "solver.ZeroSet.build.items_in",
                "solver.ZeroSet.build.items_kept",
                "roots.polish_multiples.calls", "roots.eval_state.points",
                "solver.is_spherical_root.calls", "solver.isolated_zero.calls"):
        assert tracer.counts[key] > 0, key
    assert tracer.counts["roots.polish_multiples.multiple_entries"] > 0


def test_a_traced_sphere_problem_counts_every_audited_member(bench, tmp_path):
    # audit evaluates SAMPLES_PER_CLASS members per sphere, assembled as one array, and
    # perfbench counts its entries with len()
    wl = bench.worker.CliWorkload(bench.lib)
    problem = next(p for p in bench.problems.build_pool("cli-compare", 1) if p.family == "sphere")
    item = wl.prepare(problem, tmp_path)
    tracer = bench.spans.Tracer()
    with tracer.problem_span(0):
        out = wl.execute(item)
    _checked(wl.check(problem, out))
    zero_sets = [z["zeros"] for z in json.loads(out[1])["algorithms"].values()]
    samples = bench.lib["verify"].SAMPLES_PER_CLASS
    assert all(z["spherical"] for z in zero_sets)
    assert tracer.counts["verify.audit.entries"] == sum(
        len(z["real"]) + len(z["isolated"]) + samples * len(z["spherical"]) for z in zero_sets)
