"""Tests of the benchmark's own code: generators, span arithmetic, metric names.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import run
import worker
from problems import SCHEDULES, build_pool
from spans import ROOT, Span, Tracer, self_times

LIB = worker.import_quatroots()
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _scale(rows, z_abs):
    # the audit's bound without its accept factor
    return np.abs(rows).sum() * max(1.0, z_abs) ** (len(rows) - 1)


@pytest.mark.parametrize("workload", sorted(SCHEDULES))
def test_pools_are_deterministic_per_seed(workload):
    a, b, c = build_pool(workload, 7), build_pool(workload, 7), build_pool(workload, 8)
    assert [p.degree for p in a] == [p.degree for p in c]
    assert all(np.array_equal(p.rows, q.rows) for p, q in zip(a, b))
    assert all(p.sphere == q.sphere and p.double_root == q.double_root
               for p, q in zip(a, b))
    assert not any(np.array_equal(p.rows, q.rows) for p, q in zip(a, c))
    assert [(p.family, p.degree) for p in a] == list(SCHEDULES[workload])
    assert all(p.rows.shape == (p.degree + 1, 4) for p in a)


def test_sphere_inputs_vanish_on_the_injected_sphere():
    sphere = [p for p in build_pool("cli-compare", 3) if p.family == "sphere"]
    assert sphere
    for p in sphere[:10]:
        re_, mod = p.sphere
        poly = LIB["solver"].SimplePolynomial.from_rows(p.rows)
        cls = LIB["solver"].ConjugacyClass.from_complex(
            complex(re_, math.sqrt(mod * mod - re_ * re_)))
        for z in cls.sample(4):
            assert LIB["verify"].residual(poly, z) <= 1e-12 * _scale(p.rows, mod)
        # the real part of the sphere itself is not a zero
        off = LIB["verify"].residual(poly, LIB["solver"].Quaternion(re_))
        assert off > 1e-6 * _scale(p.rows, abs(re_))


def test_double_inputs_have_the_injected_double_real_zero():
    double = [p for p in build_pool("cli-compare", 3) if p.family == "double"]
    assert double
    for p in double[:10]:
        r = p.double_root
        for k in range(4):
            c = np.polynomial.Polynomial(p.rows[:, k])
            bound = 1e-12 * _scale(p.rows, abs(r))
            assert abs(c(r)) <= bound
            assert abs(c.deriv()(r)) <= bound * len(p.rows)


def test_complex_and_real_families_zero_the_right_components():
    for p in build_pool("complex-shortcut", 1):
        nonzero = 1 if p.family == "real" else 2
        assert np.all(p.rows[:, nonzero:] == 0.0)
        assert np.all(p.rows[:, :nonzero] != 0.0)


def test_self_time_subtracts_covered_child_time():
    spans = [
        Span(ROOT, 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("a.child", 2.0, 3.0, 1, 0),
        Span("b", 5.0, 9.0, 0, 0),
        Span(ROOT, 20.0, 21.0, -1, 1),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0, 1.0])
    # the self times of one problem add up to its root span
    assert sum(self_times(spans)[:4]) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [Span(ROOT, 0.0, 10.0, -1, 0), Span("a", 1.0, 6.0, 0, 0),
             Span("b", 4.0, 8.0, 0, 0), Span("c", 9.0, 12.0, 0, 0)]
    assert self_times(spans)[0] == pytest.approx(10.0 - 7.0 - 1.0)


def test_tracer_records_nested_spans_and_restores_the_library():
    solver = LIB["solver"]
    original = (solver.solve_discriminant, solver.all_roots, solver.ZeroSet.build)
    poly = solver.SimplePolynomial.from_rows([[1, 0, 0, 0], [0, 0, 0, 1],
                                              [0, 0, 1, 0], [0, 1, 0, 0]])
    expected = solver.solve_discriminant(poly)
    tracer = Tracer()
    with tracer.problem_span(5) as root:
        got = solver.solve_discriminant(poly)
    assert got == expected
    assert (solver.solve_discriminant, solver.all_roots, solver.ZeroSet.build) == original
    names = [s.name for s in tracer.spans]
    assert names[root] == ROOT and "roots.eval_state" in names
    by_name = {s.name: i for i, s in enumerate(tracer.spans)}
    solve = by_name["solver.solve_discriminant"]
    assert tracer.spans[solve].parent == root
    assert tracer.spans[by_name["roots.all_roots"]].parent == solve
    assert all(s.problem == 5 for s in tracer.spans)
    assert tracer.counts["roots.all_roots.degree_sum"] == 6
    assert tracer.counts["solver.ZeroSet.build.items_kept"] == expected.class_count()


def test_tail_level_leaves_ten_samples_above():
    assert run.tail_level(20) == 0.5
    assert run.tail_level(200) == 0.95
    assert run.tail_level(10) == 1.0
    times = [float(t) for t in range(1, 21)]
    assert run.quantile(times, 0.5) == 10.5
    assert run.quantile(times, 1.0) == 20.0


def test_closed_loop_attempts_every_input_even_when_time_is_up():
    class Echo:
        def execute(self, item):
            return item

    records, _ = worker.closed_loop(Echo(), ["a", "b", "c"], 0.0, None)
    assert [(k, out, traced) for k, _, out, traced in records] == [
        (0, "a", False), (1, "b", False), (2, "c", False)]


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, run.layer_unit(name)) for name in run.PER_LAYER]
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
