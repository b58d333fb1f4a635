import contextlib
import hashlib
import importlib
import io
import json
import math
import sys
from pathlib import Path

import pytest

from quatroots.cli import (EXIT_ERROR, EXIT_OK, EXIT_VERIFY, main,
                           parse_problem, zero_set_from_json)
from quatroots.quaternion import Quaternion
from quatroots.solver import SimplePolynomial
from quatroots.verify import audit

from conftest import SQRT2_2

CUBIC_IJK = {
    "name": "cubic with unit imaginary coefficients",
    "coefficients": [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]],
}

CUBIC_REAL = {
    "name": "real cubic",
    "coefficients": [[1, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0]],
    "expected": {
        "real": [-1.0],
        "isolated": [],
        "spherical": [{"re": 0.0, "modulus": 1.0}],
    },
}


EXAMPLES = sorted((Path(__file__).resolve().parents[1] / "problems").glob("*.json"))


def write(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc) if isinstance(doc, dict) else doc)
    return str(path)


class TestParsing:
    def test_json_document(self, tmp_path):
        name, poly, expected = parse_problem(json.dumps(CUBIC_IJK))
        assert poly.degree == 3
        assert name.startswith("cubic")
        assert expected is None

    def test_bare_coefficient_list(self):
        _, poly, _ = parse_problem(json.dumps([[1, 0, 0, 0], [0, 1, 0, 0]]))
        assert poly.degree == 1

    def test_text_rows_semicolons(self):
        _, poly, _ = parse_problem("1 0 0 0; 0 0 0 1")
        assert poly.degree == 1
        assert poly.coeffs[1] == Quaternion(0, 0, 0, 1)

    def test_text_rows_newlines_and_comments(self):
        _, poly, _ = parse_problem("# a comment\n1 0 0 0\n0 1 0 0\n")
        assert poly.degree == 1

    @pytest.mark.parametrize("re, modulus, imag", [
        (3.0, 3.0 + 2.0 ** -51, math.sqrt(6.0 * 2.0 ** -51)),  # |.|^2 - Re^2 cancels
        (0.0, 1e200, 1e200),  # |.|^2 overflows
    ])
    def test_expected_sphere_keeps_its_imaginary_part(self, re, modulus, imag):
        doc = dict(CUBIC_REAL, expected={"spherical": [{"re": re, "modulus": modulus}]})
        (cls,) = parse_problem(json.dumps(doc))[2].spherical
        assert cls.re == re
        assert math.isclose(cls.representative.imag, imag, rel_tol=4 * sys.float_info.epsilon)

    def test_three_component_row_rejected(self):
        with pytest.raises(Exception) as err:
            parse_problem("1 0 0; 0 0 1")
        assert "3" in str(err.value) or "components" in str(err.value)


class TestExitCodes:
    def test_single_algorithm_ok(self, tmp_path, capsys):
        assert main([write(tmp_path, CUBIC_IJK), "--algorithm", "new"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "isolated zeros (3)" in out

    def test_compare_mode_ok(self, tmp_path, capsys):
        assert main([write(tmp_path, CUBIC_REAL), "--algorithm", "compare"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "empty diff" in out
        assert "match" in out  # expected zeros verified

    def test_malformed_row_is_error(self, tmp_path, capsys):
        path = write(tmp_path, "1 0 0; 0 0 1", name="bad.txt")
        assert main([path]) == EXIT_ERROR
        assert "parse error" in capsys.readouterr().err

    def test_missing_file_is_error(self, capsys):
        assert main(["/nonexistent/problem.json"]) == EXIT_ERROR

    def test_wrong_expected_is_verification_failure(self, tmp_path, capsys):
        doc = dict(CUBIC_REAL)
        doc["expected"] = {"real": [3.5], "isolated": [], "spherical": []}
        assert main([write(tmp_path, doc), "--algorithm", "new"]) == EXIT_VERIFY

    @pytest.mark.parametrize("expected, code", [({}, EXIT_VERIFY), (None, EXIT_OK)],
                             ids=["empty-claims-no-zeros", "null-is-no-comparison"])
    def test_expected_on_x_plus_1(self, tmp_path, capsys, expected, code):
        # x + 1 has the real zero -1, so {} ("no zeros") fails verification
        doc = {"coefficients": [[1, 0, 0, 0], [1, 0, 0, 0]], "expected": expected}
        assert main([write(tmp_path, doc), "--algorithm", "new"]) == code

    def test_zero_leading_entry_is_parse_error(self, tmp_path, capsys):
        doc = {"coefficients": [[1, 0, 0, 0], [0, 0, 0, 0]]}
        assert main([write(tmp_path, doc)]) == EXIT_ERROR
        assert "parse error" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--bogus"], ["--algorithm", "newton"],
                                       ["--tol-real", "abc"], ["--tol-real", "1e-5"],
                                       ["--tol-zero", "1e-10"], ["--tol-gcd", "1e-8"],
                                       ["--samples-per-class", "4"]],
                             ids=["unknown-flag", "bad-algorithm", "tol-not-a-number",
                                  "no-tol-real", "no-tol-zero", "no-tol-gcd",
                                  "no-samples-per-class"])
    def test_usage_error_is_error(self, tmp_path, capsys, flags):
        # argparse exits 2, which here means a verification failure; the library owns its
        # thresholds, so no flag sets one
        assert main([write(tmp_path, CUBIC_IJK), *flags]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.err.startswith("usage: quatroots") and captured.out == ""

    def test_missing_input_is_error(self, capsys):
        assert main([]) == EXIT_ERROR
        assert "usage: quatroots" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == EXIT_OK
        assert capsys.readouterr().out.startswith("usage: quatroots")

    def test_help_offers_no_threshold(self, capsys):
        assert main(["--help"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "--tol" not in out and "--samples" not in out

    def test_constant_polynomial_is_solver_error(self, tmp_path, capsys):
        # the leading entry passes the nonzero parse check but trims away,
        # leaving a constant: solving fails cleanly
        doc = {"coefficients": [[1, 0, 0, 0], [1e-40, 0, 0, 0]]}
        assert main([write(tmp_path, doc)]) == EXIT_ERROR
        assert "solver error" in capsys.readouterr().err


CUBIC_ROWS = '[[1, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0]]'


@pytest.mark.parametrize("text", [
    '{"coefficients": [[NaN, 0, 0, 0], [1, 0, 0, 0]]}',
    '{"coefficients": [[1, 0, 0, 0], [0, Infinity, 0, 0]]}',
    '[[1, 0, 0, 0], [0, 0, -Infinity, 1]]',
    "nan 0 0 0\n1 0 0 0",
    "1 0 0 0; 0 0 inf 0",
    '{"coefficients": %s, "expected": {"spherical": [{"re": 0.0}]}}' % CUBIC_ROWS,
    '{"coefficients": %s, "expected": [[-1.0]]}' % CUBIC_ROWS,
    '{"coefficients": %s, "expected": {"spherical": [{"re": 2.0, "modulus": 1.0}]}}'
        % CUBIC_ROWS,
    '{"coefficients": %s, "expected": {"spherical": [{"re": 0.0, "modulus": NaN}]}}'
        % CUBIC_ROWS,
    '{"coefficients": %s, "expected": {"isolated": [[1, 2]]}}' % CUBIC_ROWS,
    '{"coefficients": %s, "expected": {"real": "-1"}}' % CUBIC_ROWS,
    '{"coefficients": %s, "expected": {"spherical": [[0.0, 1.0]]}}' % CUBIC_ROWS,
    '{"coefficients": %s, "expected": []}' % CUBIC_ROWS,
    '{"coefficients": %s, "expected": 0}' % CUBIC_ROWS,
    '{"coefficients": %s, "expected": ""}' % CUBIC_ROWS,
    '{"coefficients": [[true, 0, 0, 0], [2, 0, 0, 0]]}',
    '{"coefficients": [[1, 0, 0, 0], ["2", 0, 0, 0]]}',
    '{"coefficients": [[1, 0, 0, 0], [1%s, 0, 0, 0]]}' % ("0" * 400),
    '{"coefficients": %s, "expected": {"real": ["-1"]}}' % CUBIC_ROWS,
    '{"coefficients": %s, "expected": {"real": [true]}}' % CUBIC_ROWS,
    '{"coefficients": %s, "expected": {"isolated": [[0, 0, 0, "1"]]}}' % CUBIC_ROWS,
    '{"coefficients": %s, "expected": {"spherical": [{"re": "0", "modulus": 1.0}]}}'
        % CUBIC_ROWS,
    '{"coefficients": %s, "expected": {"spherical": [{"re": 0.0, "modulus": true}]}}'
        % CUBIC_ROWS,
], ids=["json-nan", "json-infinity", "json-list-minus-infinity", "text-nan",
        "text-inf", "sphere-without-modulus", "expected-as-list",
        "modulus-below-re", "modulus-nan", "isolated-short-row",
        "real-not-a-list", "sphere-as-list", "expected-empty-list", "expected-zero",
        "expected-empty-string", "bool-component", "string-component",
        "integer-beyond-float", "real-as-string", "real-as-bool", "isolated-string-component",
        "sphere-re-as-string", "modulus-as-bool"])
def test_bad_input_is_a_parse_error(tmp_path, capsys, text):
    path = write(tmp_path, text, name="bad.txt")
    assert main([path]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.err.startswith("parse error: ")
    assert captured.out == ""


class TestJsonOutput:
    def test_round_trip_reaudit(self, tmp_path, capsys):
        code = main([write(tmp_path, CUBIC_IJK), "--algorithm", "compare",
                     "--format", "json"])
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert set(doc["algorithms"]) == {"new", "new-prime", "jo"}
        poly = SimplePolynomial.from_rows(CUBIC_IJK["coefficients"])
        for alg, payload in doc["algorithms"].items():
            zs = zero_set_from_json(payload["zeros"])
            rep = audit(poly, zs)
            assert abs(rep.max_residual - payload["verification"]["max_residual"]) <= 1e-12
        assert all(d["empty"] for d in doc["agreement"].values())

    def test_non_finite_numbers_are_null(self, tmp_path, capsys):
        # x^21 - 1e16 x^20: every route's audit has a NaN residual, which strict JSON lacks
        path = write(tmp_path, {"coefficients": [[0, 0, 0, 0]] * 20
                                + [[-1e16, 0, 0, 0], [1, 0, 0, 0]]})
        assert main([path, "--format", "json"]) == EXIT_VERIFY

        def reject(token):
            raise ValueError(f"not JSON: {token}")

        doc = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert [a["verification"]["max_residual"] for a in doc["algorithms"].values()] == [
            None, None, None]
        assert main([path]) == EXIT_VERIFY
        assert capsys.readouterr().out.count("max residual nan,") == 3

    def test_zeros_serialized_with_full_precision(self, tmp_path, capsys):
        main([write(tmp_path, CUBIC_IJK), "--algorithm", "new",
              "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        iso = doc["algorithms"]["new"]["zeros"]["isolated"]
        assert len(iso) == 3
        comps = sorted(q[0] for q in iso)
        assert comps[0] == pytest.approx(-SQRT2_2, abs=1e-12)
        assert comps[2] == pytest.approx(SQRT2_2, abs=1e-12)


class TestStdinAndFlags:
    def test_stdin_input(self, monkeypatch, capsys):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO("1 0 0 0\n1 0 0 0"))
        assert main(["-", "--algorithm", "new"]) == EXIT_OK
        assert "real zeros (1): -1" in capsys.readouterr().out

    def test_right_sided_conjugates_zeros(self, tmp_path, capsys):
        # x * i + 1 = 0 has the unique zero x = i
        doc = {"coefficients": [[1, 0, 0, 0], [0, 1, 0, 0]]}
        code = main([write(tmp_path, doc), "--algorithm", "new",
                     "--right-sided", "--format", "json"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        iso = payload["algorithms"]["new"]["zeros"]["isolated"]
        assert len(iso) == 1
        assert iso[0] == pytest.approx([0.0, 1.0, 0.0, 0.0], abs=1e-12)

    def test_right_sided_zeros_satisfy_right_equation(self, tmp_path, capsys):
        # x^2 k + x j + i = 0, powers on the left of the coefficients
        rows = [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        code = main([write(tmp_path, {"coefficients": rows}), "--algorithm",
                     "new", "--right-sided", "--format", "json"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        zeros = payload["algorithms"]["new"]["zeros"]
        coeffs = [Quaternion(*r) for r in rows]
        checked = 0
        for comp in zeros["isolated"]:
            x = Quaternion(*comp)
            acc, total = Quaternion(1.0), coeffs[0]
            for q in coeffs[1:]:
                acc = acc * x
                total = total + acc * q  # power times coefficient, this order
            assert abs(total) <= 1e-10
            checked += 1
        assert checked + len(zeros["real"]) + len(zeros["spherical"]) >= 1


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("algorithm", ["new", "new-prime", "jo", "compare"])
@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_shipped_examples_solve_and_match_expected(path, algorithm, fmt, capsys):
    assert json.loads(path.read_text())["expected"]
    code = main([str(path), "--algorithm", algorithm, "--format", fmt])
    out = capsys.readouterr().out
    assert code == EXIT_OK, out
    if fmt == "json":
        doc = json.loads(out)
        assert doc["ok"]
        assert doc["expected"].keys() == doc["algorithms"].keys()
        assert all(d["empty"] for d in doc["expected"].values())


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# (exit code, SHA-256 of stdout) of main([path, "--format", "json"])
EXAMPLE_DIGESTS = {
    "cubic_units.json": (0, "6b4081a4ca9a236692cc180bece0a20cd50c0d891d3cc51d2b0bda41197a7555"),
    "degree6_mixed.json": (0, "d193ca5515e9bf63f585d29868d60c09e09d55f01dca71896eebc1855a000060"),
    "real_cubic.json": (0, "4c9afccac7f3862b756e9de738f639db99935b70f9df83666c178c0fb2e68c1f"),
}
# the first 16 inputs of the cli-compare benchmark pool, seed 1, written as its worker writes them
BENCH_DIGESTS = [
    (0, "d1888eabdec8b461c6238053991f980e99624d22cd728504e9ca77641827454a"),
    (0, "db5556fe87f63648f36ae72c4b5066a99a9897d2b9f9a34fe3ae79792e3de967"),
    (0, "df73c7e5193eea6b9553ab828b6d6c25f390f22fa8015ea78261c73477984d83"),
    (0, "1fc2782ae60a0b561be4ff88d9c413104df6a47d0f77dfc5c4b690bd3847e48e"),
    (0, "96c1121228f0de57949f029ac4922bd60b415b026f40a8174aaadd56693d8aa9"),
    (0, "33e4b537bece829a340e85838f06c6d01116c5f83cbbb756525e8cc6db6820c5"),
    (0, "feec203f2d574f5b95d8bfd00a567a71e1f7b8a128cb6a48a6dd52acdcd510de"),
    (0, "890455776f40433b192ab3ed9dcc0c263a72df3b3294b39aa6607bb28be1f1e2"),
    (0, "cb7fbeb6a11e015e9e9f8fef2138529645a6cca102d271683c9b33c9c76302b7"),
    (0, "40d56f04562bc5d5b2d3eedff3b9062e27408648db007da6055834f48d5775b6"),
    (0, "47c02512f17ef10b8355f64d09491cb344838deabc8f83c7a03f1ff973e9b61a"),
    (0, "9cb1044f2ef8222ab1d15aa5e45f185d5129b0a935444d79a54e14b6076dfeb0"),
    (0, "74eff33b8961598c7228e331168920c5565b52e3ad6f82e5fb5072ab121b1641"),
    (0, "e67a623eb218bac0d2f018c3a355303ce028a1b11c8c7783f2be2ba1e87eb8ed"),
    (0, "8af39c9ad3f5df4e7bf382de0f166f8eb81152741c2f4ac1b1b4d6a91a284701"),
    (0, "ce4bc6ca83f5d715add31e3d2afb889e714db05a248005e7a97ece81881ee210"),
]


def _digest(path) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = main([str(path), "--format", "json"])
    return rc, hashlib.sha256(out.getvalue().encode()).hexdigest()


class TestByteIdentity:
    """The JSON output of main, byte for byte, on the example problems and on the first inputs
    of the cli-compare benchmark.  A change that moves these bits on purpose updates the
    digests and says why in CHANGES.md; a speed-up must leave them as they are.  They hold for
    one numpy build: where numpy's vector loops differ, so can the last bit of a zero."""

    @pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
    def test_example_problems(self, path):
        assert _digest(path) == EXAMPLE_DIGESTS[path.name]

    def test_first_benchmark_inputs(self, tmp_path):
        with pytest.MonkeyPatch.context() as mp:
            mp.syspath_prepend(str(PERFBENCH))
            problems = importlib.import_module("problems")
        pool = problems.build_pool("cli-compare", 1)[:len(BENCH_DIGESTS)]
        got = []
        for problem in pool:
            path = tmp_path / f"{problem.family}-{problem.pid}.json"
            path.write_text(json.dumps({"name": f"{problem.family}-{problem.pid}",
                                        "coefficients": problem.rows.tolist()}))
            got.append(_digest(path))
        assert got == BENCH_DIGESTS
