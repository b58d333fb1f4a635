"""Command-line front end: parse a problem, run solvers, report zeros.

Input is one JSON document per problem ({"coefficients": [[a0,a1,a2,a3],...],
constant term first}) or a plain-text shorthand of component rows separated
by semicolons or newlines.  compare mode takes both D routes' sets from one
solver._d_route_sets call, which finds D's roots once.  Every threshold is the
library's own (solver.DEFAULT_TOLS, verify.SAMPLES_PER_CLASS); no flag sets one.
Exit codes: 0 success, 1 usage, parse or solver error, 2 verification failure.
JSON output writes a non-finite number, such as a NaN residual, as null.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .companion import solve_companion
from .solver import SimplePolynomial, ZeroSet, _d_route_sets, solve_discriminant, solve_factored
from .verify import ZeroSetDiff, audit, compare

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VERIFY = 2

_ALGORITHMS = {
    "new": solve_discriminant,
    "new-prime": solve_factored,
    "jo": solve_companion,
}


class ProblemError(ValueError):
    pass


def parse_problem(text: str):
    """Parse a JSON or plain-text problem into (name, polynomial, expected)."""
    stripped = text.strip()
    if not stripped:
        raise ProblemError("empty input")
    if stripped[0] in "{[":
        return _parse_json(stripped)
    return _parse_rows(stripped)


def _number(x, what: str) -> float:
    """A finite JSON number as a float: a bool, a string or any other value is not one."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ProblemError(f"{what}: {x!r} is not a number")
    try:
        value = float(x)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise ProblemError(f"{what}: {x!r} is not finite")
    return value


def _components(row, what: str) -> list[float]:
    if not isinstance(row, (list, tuple)) or len(row) != 4:
        raise ProblemError(
            f"{what}: expected 4 components, got "
            f"{len(row) if isinstance(row, (list, tuple)) else type(row).__name__}")
    return [_number(x, what) for x in row]


def _polynomial(rows) -> SimplePolynomial:
    if not isinstance(rows, list) or len(rows) < 2:
        raise ProblemError("need at least 2 coefficient entries")
    comps = [_components(row, f"coefficient {idx}") for idx, row in enumerate(rows)]
    if sum(x * x for x in comps[-1]) == 0.0:  # |q|^2 as abs(Quaternion) rounds it
        raise ProblemError("last coefficient entry must be nonzero")
    return SimplePolynomial.from_rows(comps)


def _parse_json(text: str):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProblemError(f"invalid JSON: {exc}") from exc
    if isinstance(doc, list):
        doc = {"coefficients": doc}
    if not isinstance(doc, dict) or "coefficients" not in doc:
        raise ProblemError('missing "coefficients" field')
    poly = _polynomial(doc["coefficients"])
    expected = doc.get("expected")  # absent or null: nothing to compare against
    return doc.get("name", ""), poly, None if expected is None else _parse_expected(expected)


def _parse_rows(text: str):
    rows = []
    for chunk in text.replace(";", "\n").splitlines():
        chunk = chunk.strip()
        if not chunk or chunk.startswith("#"):
            continue
        fields = chunk.split()
        if len(fields) != 4:
            raise ProblemError(
                f"row {len(rows)}: expected 4 components, got {len(fields)}")
        try:
            rows.append([float(x) for x in fields])
        except ValueError as exc:
            raise ProblemError(f"row {len(rows)}: {exc}") from exc
    return "", _polynomial(rows), None


def _parse_expected(doc) -> ZeroSet:
    if not isinstance(doc, dict):
        raise ProblemError('"expected" must be an object')
    try:
        reals = [_number(x, "real zero") for x in doc.get("real", [])]
        isolated = [_components(row, "isolated zero") for row in doc.get("isolated", [])]
        spheres = []
        for entry in doc.get("spherical", []):
            re = _number(entry["re"], "sphere re")
            mod = _number(entry["modulus"], "sphere modulus")
            if not abs(re) < mod:
                raise ValueError(f"sphere modulus {mod} must exceed |re| = {abs(re)}")
            spheres.append(complex(re, math.sqrt(mod - re) * math.sqrt(mod + re)))
        return ZeroSet.build(reals, np.reshape(isolated, (-1, 4)), spheres)
    except KeyError as exc:
        raise ProblemError(f"expected sphere lacks {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ProblemError(f"expected: {exc}") from exc


def zero_set_json(zs: ZeroSet) -> dict:
    return {
        "real": list(zs.real_zeros),
        "isolated": [list(q.components()) for q in zs.isolated_zeros],
        "spherical": [{
            "re": c.re,
            "modulus": c.modulus,
            "representative": [c.representative.real, c.representative.imag],
        } for c in zs.spherical],
    }


def zero_set_from_json(doc: dict) -> ZeroSet:
    return ZeroSet.build(doc.get("real", []), np.reshape(doc.get("isolated", []), (-1, 4)),
                         [complex(*entry["representative"]) for entry in doc.get("spherical", [])])


def _diff_json(diff: ZeroSetDiff) -> dict:
    return {
        "empty": not diff,
        "real": [[side, x] for side, x in diff.real],
        "isolated": [[side, list(q.components())] for side, q in diff.isolated],
        "spherical": [[side, [re, mod]] for side, (re, mod) in diff.spherical],
    }


def _finite_or_null(doc):
    """doc with every non-finite float as None: NaN and infinities are not JSON (RFC 8259)."""
    if isinstance(doc, float):
        return doc if math.isfinite(doc) else None
    if isinstance(doc, dict):
        return {key: _finite_or_null(v) for key, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_finite_or_null(v) for v in doc]
    return doc


def _zero_set_text(zs: ZeroSet) -> list[str]:
    lines = [f"  real zeros ({len(zs.real_zeros)}): "
             + (", ".join(f"{x:.12g}" for x in zs.real_zeros) or "none")]
    lines.append(f"  isolated zeros ({len(zs.isolated_zeros)}):"
                 + ("" if zs.isolated_zeros else " none"))
    lines.extend(f"    {q}" for q in zs.isolated_zeros)
    lines.append(f"  spheres ({len(zs.spherical)}):"
                 + ("" if zs.spherical else " none"))
    lines.extend(f"    Re {c.re:.12g}, modulus {c.modulus:.12g}" for c in zs.spherical)
    return lines


@functools.cache  # built once per process and shared: main parses with it on every call
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="quatroots",
        description="Find all zeros of a simple quaternionic polynomial "
                    "(coefficients on the left of the powers).")
    ap.add_argument("input", help="problem file (JSON or text rows) or - for stdin")
    ap.add_argument("--algorithm", choices=["new", "new-prime", "jo", "compare"],
                    default="compare",
                    help="solver route; compare runs all three and diffs them")
    ap.add_argument("--format", choices=["text", "json"], default="text")
    ap.add_argument("--right-sided", action="store_true",
                    help="treat the input as x^n q_n + ... + q_0 (coefficients "
                         "on the right); solves the conjugated problem")
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed the usage error, or the help
        return EXIT_ERROR if exc.code else EXIT_OK
    try:
        if args.input == "-":
            text = sys.stdin.read()
        else:
            with open(args.input) as fh:
                text = fh.read()
        name, poly, expected = parse_problem(text)
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except ValueError as exc:  # a ProblemError, or a path or row the library rejects
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    solve_input = poly.conjugated_coeffs() if args.right_sided else poly
    try:
        if args.algorithm == "compare":
            new, new_prime = _d_route_sets(solve_input)
            solved = {"new": new, "new-prime": new_prime, "jo": solve_companion(solve_input)}
        else:
            solved = {args.algorithm: _ALGORITHMS[args.algorithm](solve_input)}
        # residuals are checked on the problem solved; right-sided zeros are its conjugates
        reports = {alg: audit(solve_input, zs) for alg, zs in solved.items()}
    except Exception as exc:
        print(f"solver error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return EXIT_ERROR
    results = {alg: zs.conjugated() if args.right_sided else zs for alg, zs in solved.items()}

    diffs: dict[str, ZeroSetDiff] = {}
    if len(results) > 1:
        base, *others = results
        for other in others:
            diffs[f"{base}-vs-{other}"] = compare(results[base], results[other])

    expected_diffs: dict[str, ZeroSetDiff] = {}
    if expected is not None:
        for alg, zs in results.items():
            expected_diffs[alg] = compare(expected, zs)

    ok = (all(r.passed for r in reports.values())
          and not any(diffs.values())
          and not any(expected_diffs.values()))

    if args.format == "json":
        doc = {
            "name": name,
            "degree": poly.degree,
            "algorithms": {
                alg: {
                    "zeros": zero_set_json(zs),
                    "verification": {
                        "max_residual": reports[alg].max_residual,
                        "bounds_ok": reports[alg].bounds_ok,
                        "passed": reports[alg].passed,
                    },
                } for alg, zs in results.items()
            },
            "agreement": {key: _diff_json(d) for key, d in diffs.items()},
            "expected": {alg: _diff_json(d) for alg, d in expected_diffs.items()},
            "ok": ok,
        }
        print(json.dumps(_finite_or_null(doc), indent=2))
    else:
        title = name or args.input
        print(f"problem: {title} (degree {poly.degree})")
        for alg, zs in results.items():
            rep = reports[alg]
            print(f"algorithm {alg}:")
            print("\n".join(_zero_set_text(zs)))
            print(f"  verification: max residual {rep.max_residual:.3e}, "
                  f"bounds {'ok' if rep.bounds_ok else 'VIOLATED'}, "
                  f"{'pass' if rep.passed else 'FAIL'}")
        for key, diff in diffs.items():
            print(f"agreement {key}: {'empty diff' if not diff else diff.describe()}")
        for alg, diff in expected_diffs.items():
            print(f"expected vs {alg}: "
                  f"{'match' if not diff else diff.describe()}")
    return EXIT_OK if ok else EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
