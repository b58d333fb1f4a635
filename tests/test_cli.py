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

    def test_zero_leading_entry_is_parse_error(self, tmp_path, capsys):
        doc = {"coefficients": [[1, 0, 0, 0], [0, 0, 0, 0]]}
        assert main([write(tmp_path, doc)]) == EXIT_ERROR
        assert "parse error" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--bogus"], ["--algorithm", "newton"],
                                       ["--tol-real", "abc"]],
                             ids=["unknown-flag", "bad-algorithm", "tol-not-a-number"])
    def test_usage_error_is_error(self, tmp_path, capsys, flags):
        # argparse exits 2, which here means a verification failure
        assert main([write(tmp_path, CUBIC_IJK), *flags]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.err.startswith("usage: quatroots") and captured.out == ""

    def test_missing_input_is_error(self, capsys):
        assert main([]) == EXIT_ERROR
        assert "usage: quatroots" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == EXIT_OK
        assert capsys.readouterr().out.startswith("usage: quatroots")

    def test_constant_polynomial_is_solver_error(self, tmp_path, capsys):
        # the leading entry passes the nonzero parse check but trims away,
        # leaving a constant: solving fails cleanly
        doc = {"coefficients": [[1, 0, 0, 0], [1e-40, 0, 0, 0]]}
        assert main([write(tmp_path, doc)]) == EXIT_ERROR
        assert "solver error" in capsys.readouterr().err


CUBIC_ROWS = '[[1, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0]]'
CUBIC_IJK_ROWS = json.dumps(CUBIC_IJK["coefficients"])


@pytest.mark.parametrize("text, flags", [
    ('{"coefficients": [[NaN, 0, 0, 0], [1, 0, 0, 0]]}', []),
    ('{"coefficients": [[1, 0, 0, 0], [0, Infinity, 0, 0]]}', []),
    ('[[1, 0, 0, 0], [0, 0, -Infinity, 1]]', []),
    ("nan 0 0 0\n1 0 0 0", []),
    ("1 0 0 0; 0 0 inf 0", []),
    ('{"coefficients": %s, "expected": {"spherical": [{"re": 0.0}]}}' % CUBIC_ROWS, []),
    ('{"coefficients": %s, "expected": [[-1.0]]}' % CUBIC_ROWS, []),
    ('{"coefficients": %s, "expected": {"spherical": [{"re": 2.0, "modulus": 1.0}]}}'
     % CUBIC_ROWS, []),
    ('{"coefficients": %s, "expected": {"spherical": [{"re": 0.0, "modulus": NaN}]}}'
     % CUBIC_ROWS, []),
    ('{"coefficients": %s, "expected": {"isolated": [[1, 2]]}}' % CUBIC_ROWS, []),
    ('{"coefficients": %s, "expected": {"real": "-1"}}' % CUBIC_ROWS, []),
    ('{"coefficients": %s, "expected": {"spherical": [[0.0, 1.0]]}}' % CUBIC_ROWS, []),
    (CUBIC_ROWS, ["--samples-per-class", "0"]),
    (CUBIC_ROWS, ["--samples-per-class", "-3"]),
    (CUBIC_ROWS, ["--tol-gcd", "inf"]),
    (CUBIC_ROWS, ["--tol-zero", "nan"]),
    (CUBIC_ROWS, ["--tol-zero", "-1"]),
    (CUBIC_ROWS, ["--tol-real", "nan"]),
    (CUBIC_IJK_ROWS, ["--tol-real", "nan"]),
    (CUBIC_IJK_ROWS, ["--tol-zero", "nan"]),
    (CUBIC_IJK_ROWS, ["--tol-gcd", "0"]),
], ids=["json-nan", "json-infinity", "json-list-minus-infinity", "text-nan",
        "text-inf", "sphere-without-modulus", "expected-as-list",
        "modulus-below-re", "modulus-nan", "isolated-short-row",
        "real-not-a-list", "sphere-as-list", "zero-samples", "negative-samples",
        "tol-gcd-inf", "tol-zero-nan", "tol-zero-negative", "tol-real-nan",
        "ijk-tol-real-nan", "ijk-tol-zero-nan", "ijk-tol-gcd-zero"])
def test_bad_input_is_a_parse_error(tmp_path, capsys, text, flags):
    path = write(tmp_path, text, name="bad.txt")
    assert main([path, *flags]) == EXIT_ERROR
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

    def test_tolerance_flags_accepted(self, tmp_path):
        assert main([write(tmp_path, CUBIC_REAL), "--algorithm", "jo",
                     "--tol-real", "1e-5", "--tol-zero", "1e-10",
                     "--tol-gcd", "1e-8", "--samples-per-class", "4"]) == EXIT_OK


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
