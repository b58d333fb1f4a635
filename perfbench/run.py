"""The quatroots benchmark: one workload, one seed, one line of JSON.

    python3 perfbench/run.py --workload cli-compare --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; quatroots is imported from its src/.  Each
run starts fresh single-threaded processes (worker.py): SETUP_PROBES that
only set up, for the median set-up time, then the measured one.  It prints
a human-readable report, the per-family attempted/failed breakdown, and as
the last line a JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with --trace 0, the per-layer metrics
(from a run in which each problem also runs traced) with --trace 1.  Exits
nonzero, printing no result, when a process fails or the library is absent.
See README.md in this directory for what each number means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
WORKLOADS = ("cli-compare", "complex-shortcut")
SETUP_PROBES = 5
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = (
    ("setup_s", "s"),
    ("problem_s.p50", "s"),
    ("problem_s.tail", "s"),
    ("problems_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("backward_err.p50", "ratio"),
)

# Span metrics are per traced problem: ".s" inclusive seconds, ".self_s"
# seconds outside child spans, the rest counts.
PER_LAYER = (
    "verify.compare.s", "verify.compare.nonempty", "verify.audit.s",
    "verify.audit.entries", "verify.audit.failed", "verify.audit.errors",
    "quaternion.mul.calls",
    "companion.companion.s", "companion.ab.s", "companion.ab.calls",
    "companion.solve_companion.self_s",
    "roots.all_roots.s", "roots.all_roots.calls", "roots.all_roots.degree_sum",
    "roots.all_roots.errors", "roots.eval_state.calls", "roots.eval_state.points",
    "roots.polish_multiples.s", "roots.polish_multiples.multiple_entries",
    "roots.classify_real.s", "roots.classify_real.errors",
    "solver.ZeroSet.build.s", "solver.ZeroSet.build.items_in",
    "solver.ZeroSet.build.items_kept",
    "solver.factor_g.s", "solver.factor_g.calls", "cpoly.gcd.s", "cpoly.gcd.calls",
    "solver.is_spherical_root.s", "solver.is_spherical_root.calls",
    "solver.isolated_zero.s", "solver.isolated_zero.calls",
    "solver.normalize.s", "solver.derived.s", "solver.discriminant.s",
    "solver.solve_discriminant.self_s", "solver.solve_factored.self_s",
    "solver.solve_complex_coeffs.self_s", "cli.main.self_s", "cli.parse_problem.s",
    "trace.problem_s.p50", "trace.untraced_problem_s.p50", "trace.overhead_s.p50",
    "trace.layer_self_s", "trace.unattributed_s",
)


def layer_unit(name: str) -> str:
    if name.startswith("trace.") and name.endswith(".p50"):
        return "s"
    return "s/problem" if name.endswith(("_s", ".s")) else "count/problem"


def worker(args, extra: list[str], timeout: float) -> dict:
    """Run worker.py in a fresh process; its last stdout line is its summary."""
    # fixed string hashing, so dict and set layouts repeat from run to run
    env = dict(os.environ, PYTHONHASHSEED="0", **{v: "1" for v in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), *extra]
    proc = subprocess.run(cmd, cwd=REPO, env=env, capture_output=True, text=True,
                          timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(lines[-1])


def quantile(values: list[float], q: float) -> float:
    """Linear interpolation between order statistics, q in [0, 1]."""
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def tail_level(n_samples: int) -> float:
    """The highest quantile with at least ten of n samples beyond it (1 below 11)."""
    return 1.0 - 10.0 / n_samples if n_samples > 10 else 1.0


def end_to_end(run: dict, setup_s: float) -> dict[str, float]:
    times = run["untraced"]
    return {
        "setup_s": setup_s,
        "problem_s.p50": statistics.median(times),
        "problem_s.tail": quantile(times, tail_level(len(times))),
        "problems_per_s": len(times) / run["loop_s"],
        "peak_rss_mb": run["peak_rss_mb"],
        "backward_err.p50": run["backward_p50"],
    }


def per_layer(run: dict) -> dict[str, float]:
    layers = run["layers"]
    traced = statistics.median(run["traced"])
    untraced = statistics.median(run["untraced"])
    values = {name: float(layers.get(name, 0.0)) for name in PER_LAYER}
    values["trace.problem_s.p50"] = traced
    values["trace.untraced_problem_s.p50"] = untraced
    values["trace.overhead_s.p50"] = traced - untraced
    values["trace.unattributed_s"] = layers.get("problem.self_s", 0.0)
    values["trace.layer_self_s"] = sum(
        v for k, v in layers.items() if k.endswith(".self_s") and k != "problem.self_s")
    return values


def report(args, run: dict, setups: list[float], metrics: dict) -> None:
    times = run["untraced"]
    level = tail_level(len(times))
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}: "
          f"closed loop, 1 client, 1 process, 1 thread, {run['loop_s']:.2f} s")
    print(f"  setup_s: median of {len(setups)} fresh processes: "
          + ", ".join(f"{s:.4f}" for s in setups))
    print(f"  problem_s.p50 {statistics.median(times):.4f} s, problem_s.tail = "
          f"p{100 * level:.1f} {quantile(times, level):.4f} s, "
          f"N = {len(times)} untraced problems")
    att, fail = run["attempted"], run["failed"]
    print(f"  fail_frac {fail / att:.4f} ({fail} of {att} inputs failed, over "
          f"{run['timed_calls']} timed calls), "
          f"{run['distinct_outputs']} distinct outputs checked")
    print(f"  backward error over {run['backward_n']} audited zeros: "
          f"p50 {run['backward_p50']:.3e}, max {run['backward_max']:.3e}")
    for fam, tally in sorted(run["families"].items()):
        why = ", ".join(f"{r} x{c}" for r, c in sorted(tally["reasons"].items()))
        print(f"  family {fam}: attempted {tally['attempted']}, failed {tally['failed']}"
              + (f" [{why}]" if why else ""))
    if args.trace:
        print(f"  traced: {len(run['traced'])} problems, spans in {run['spans_file']}")
        print(f"  layer self time {metrics['trace.layer_self_s']:.4f} + unattributed "
              f"{metrics['trace.unattributed_s']:.4f} s/problem = traced mean "
              f"{statistics.fmean(run['traced']):.4f} s; untraced mean "
              f"{statistics.fmean(times):.4f} s; overhead p50 "
              f"{metrics['trace.overhead_s.p50']:.4f} s")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (REPO / "src" / "quatroots" / "__init__.py").is_file():
        print(f"error: no quatroots sources under {REPO / 'src'}", file=sys.stderr)
        return 1
    start = perf_counter()
    try:
        setups = [worker(args, ["--setup-only"], 60.0)["setup_s"]
                  for _ in range(SETUP_PROBES)]
        run = worker(args, ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                     DEADLINE_S - (perf_counter() - start))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(run["setup_s"])
    if args.trace:
        metrics = per_layer(run)
        units = {name: layer_unit(name) for name in PER_LAYER}
    else:
        metrics = end_to_end(run, statistics.median(setups))
        units = dict(END_TO_END)
    if not all(math.isfinite(v) for v in metrics.values()):
        print(f"error: non-finite metric in {metrics}", file=sys.stderr)
        return 1
    report(args, run, setups, metrics)
    print(json.dumps({
        "correct": run["wrong"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
