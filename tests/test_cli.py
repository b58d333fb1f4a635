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
# (exit code, SHA-256 of stdout) of main([path, "--algorithm", algorithm, "--format", fmt]) on
# the examples, in name order, then on the first 16 benchmark inputs.  compare mode builds
# new and new-prime by one call and each single route by its own, so both paths are pinned
ROUTE_DIGESTS = {
    ("new", "json"): [
        (0, "408606b9e7d6bbee33f9c4545d5379d81f00a8974997de6ebd581a2b6bc7ef30"),
        (0, "4adb7c3d71e02305bdde9a975a65ec2e3f501221e5b42e078ab2bb5799e75772"),
        (0, "fb5bb0d4cc6806d2f17281ca385c5c23fa63edc6a7c7b9379942de48ed0305b2"),
        (0, "e5f371142211f12a01f28e4da613d455d37a3230b9cafe513da0f46204331581"),
        (0, "c1d00004c8f6be38c1af363d2969fd714b6d2ebf43235bd74e7216a400f9e794"),
        (0, "88f92d32cb2ef173d1f4390080dd94a30649675b6ba5fddd6f95495be1d5bc73"),
        (0, "cf326735984a15365238857931fd4f7ceeef9bced2f674c8e20d490c6fdcc893"),
        (0, "2a690720ad370e111a6e6aa049f7a065c57b2a1ce65aaa51cc75720397c47a80"),
        (0, "332e61b77ec9dfa4d53f252180b5e490c7d462cec9d7329491ea4a7dca95e445"),
        (0, "65588eea42148006e49008a9c1f43cf1ca300e57fe231f5c7aa47cf90b16d0b0"),
        (0, "cadb0a7a827f1c90b03d3048be33f62405fa916d0ebb38fa12619a1c5871f917"),
        (0, "e9c408b565e8d1df7b4fff24c02ba097ddb7011c797122e77ccae4985dd486a5"),
        (0, "f5c2ce2b5c29383f39287d69ee4d461dc35e27ee1d34675c496dbd0c19a87006"),
        (0, "19ff2905a2173f83b9e91cada90605e955cd19b164d35e895b8f13823a0be13e"),
        (0, "ad38dda673d45ca0ebdf374d16ca12bdf5b9d18af65cf12d94d8da6623f79ec8"),
        (0, "75ca1dd6ca6a5a036482c9484fbc49e2c0a69705f788ecc66949a0f959404c5d"),
        (0, "0843ef0bc61e8ca405803250f3f623943d1a426479303796dd6301342695a47a"),
        (0, "615c3b90e7d1ec1bf1fbcc7ae1ab07b4b8304f9eff614cbab3891a14b61ff726"),
        (0, "7c6d43ddfb904f2ee61f8b7e80c31260bc9a36c7b01a258e85dfe85acbf1c824"),
    ],
    ("new-prime", "json"): [
        (0, "e74adb9c22fbe381d7f00c7a7c2e71146c3f7f4c327d43ac6913df7a6a2d155e"),
        (0, "a85d64706c0fb53c070db1c4de155a6ff3f6c33b30312af618f0e2a59f65f244"),
        (0, "1ca91fadd5f3bc73ea692b0bb6f9b7f99694795d98eb9a78c8e1fdba25a12e44"),
        (0, "222080a4731c7700bbba33c9a7a9cc583b551e49fd4d3d96f1bf53be20ebe255"),
        (0, "16c64b5ba0bbf6e11a9d934bc2cc455bf3aee5952fe6ff28b182c6dfd8397a2a"),
        (0, "02f7524a3992ad1cdfcd5d7b4ddf48a4feb6cae79bb5adcc6d822c06107cf150"),
        (0, "78ddca8f45fa2e0701b8f3c7a482617f2216c86c6f89f0fe42756a0d8e5daccf"),
        (0, "0989b4ab986903cd01cd7b06d6a94fe170c4b2f26bd35ece5e70b63bb20cc2e5"),
        (0, "5e37de82cd5b4962028de50a17aa7e043e7b46e2c6533a5cdb3d7741a390b762"),
        (0, "defe9ceb5c90248b3b2f4ab687b98148218ae543755ff341269e61096001f006"),
        (0, "e1cda78fe87817eeaeef9a8e2f1d6eb8239d17a423dda61fdaf14be6206abda0"),
        (0, "69b8b3610fc8f5bafce50611559c697cf2d8bfb1c808a7af7b1ad0616deed67f"),
        (0, "232e72b7c4b8b8d449499fdf5cec174cc3bbbd9bf601a0aa73ccdf61c5f5e58f"),
        (0, "ea1074c90784004086145b42e700ce16fadee2778f6cdf9f3135389f987b09bb"),
        (0, "49a9ec5abfbaa5500fef2700211e9ee4c4e2f60ce9cd0b02ac9c6c24f8938796"),
        (0, "666c7d75e435dee804556285b72de2f49bce90a86334c4968cc1f07b22b60853"),
        (0, "c5e587c763ac9b671ebc22d65e9d3075fc68c4533f324f3b79262ce9d005065a"),
        (0, "187d72c2898e13a63968bc6323fe79a22bb4aeec6c3548834c46e803c170372c"),
        (0, "df25eed90b60412a078424f96985608a9de6d13ad50f73ae99dd55c9fbd5c44d"),
    ],
    ("jo", "json"): [
        (0, "3067e32bc10c23ad1ad62ea6cd1707d24e560e958054b91ba45db030d49176eb"),
        (0, "cdca00c09dd6491a51cd8d8641d3a0de67dfd92dddb100b38938389d5f2a9e1c"),
        (0, "b75be7315094d32faba4ba288dbafcdad2ce44cd9489badb59ec9e34248e9c93"),
        (0, "c365f94e92a8b5730b1ef3db6947ead291f837f44fa35f3a80e2f9dafa49f77e"),
        (0, "c60e7b420e4a5cd3da0850cef804e6f4fbe8b1dd223bc11a7ec63173df2901c9"),
        (0, "f6c5026bfb07249fb1358b617e2169ed4e74b95a2c43e17d81d5100da165e41f"),
        (0, "bbd4748c8bed7eaced7c5dab39539ee1ebf07817cb3bd6d5ec5713b32d1a5ad3"),
        (0, "3bf5025a35f7119bfb20cf800b9b8c1cb3a3c634d96a13d07f4f8af9c0dfb998"),
        (0, "d5a5fd3f81d47537494b62fe2b3d4a4aa0c26324706c10b07072925a681afb4b"),
        (0, "da215b923ac3ee8960a16fb5094dc45cfeb0b1b917cd6e40546d798fc6de2a93"),
        (0, "562f929d9c4c867dbdadd0f0311f0c5e6e60595d1017ad3929ce349908fd50f2"),
        (0, "860c59b973fe64c713fbca71ee9fd0dea585e1d397a1b1caeae53d902194a4f6"),
        (0, "67a4f84285a285d5ec341b53d9091947eb9e3f1e540f5863a0dae67aaa11721f"),
        (0, "c02faac346389246b65b774447b4c9de1fea9b9683041d3a771a34d9d6122601"),
        (0, "01a4573f1f862fb717a4d6eccb86c6119539bffb5244a5b01d23ac6f4a30af55"),
        (0, "1b05012e809831b0ad5d014e8d8170a819b3995479bdd9961445fe3e5b30d0a5"),
        (0, "72760a05d3fd73aae709906b0d02edb4b55e66c42e4f6584c9b5c7025c8bc2c8"),
        (0, "407a953ac27b3c8499c92a4c88b4a1c370da8b3caddc8973f16af2e945416098"),
        (0, "1e1fca4a41e4132e2e47d4007642f31196d602a818ebde236ba0c12d52d307fe"),
    ],
    ("compare", "text"): [
        (0, "362b1d070ae9bd6187ac92074135d8f4202626c45ec278280b58ea2685cb9246"),
        (0, "99617b8875093413c72b234b402aa2e52a2df03cfb096b5566803b18a1bdbae9"),
        (0, "93465d6781b02e3e8768ec5932de8560d4916e1a13c38844eed90cca555af83f"),
        (0, "e168e0ec847886e71e2aa58ee8bebcc28702edd4315b6f6aad2c643e9796f229"),
        (0, "599856b0a361cdc15bd87988a4c355b140cf1e01aa75baa88d5180f03c71a057"),
        (0, "f5b90ba1a36025928c60492a56a46968f8936026c586a94a5f22990fd239f2f6"),
        (0, "62133f622c5be4b723a0a78bb61e5dc834c2db1d8b529d8dc4124c6800fae3a9"),
        (0, "86b396c6664fcadb44a0ee36ba0f468390f7f69f97b504b4320e206dea89748f"),
        (0, "0d67400e47e13c1f5c9a861e0c38c883f08c9d91f82eb8d3276136c1a0de84c1"),
        (0, "fbb4229967f268c26cfb7c4879ae41d1a812e0a6f3e2488d5a01c22889a5c253"),
        (0, "bcd8a2d91860cc15cfef6b7f79609245693528439cd3ccf98a4a6aaf39944b57"),
        (0, "11cdc862e95cba3f7db4c0301729870b640a3b4bc6888439594d2b9ce8144a4f"),
        (0, "cd76c1ef2e2a9da25a25e448f67044b6f32d75164523ee79749ba93a54b96c92"),
        (0, "3a799447e91a3dfd4c07d153d7ae85782abafccb817c93c4fd602e6ca67b9c2b"),
        (0, "08abe43615a202f6ccb537a048033c64c4c14030e59072c843ec95c907d31505"),
        (0, "a5ed85cbe3fcc1599fdfb91a1bcf83819a0fd44b75e858ffbd4d2b479598e554"),
        (0, "d08e0dcccb9829d021211cfeae621ede5d4f8ddb830d2a3f23d1dc0d72d69cbb"),
        (0, "00a445629c0ed9e016ffde8c405e8d0c7da27eac7e41bcd7983b4d96de1da4ea"),
        (0, "72622b410183e5bf61528327337199cb969aa3a94b5d9917bfcadf04d410de49"),
    ],
}


def _digest(path, *options) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = main([str(path), *(options or ("--format", "json"))])
    return rc, hashlib.sha256(out.getvalue().encode()).hexdigest()


class TestByteIdentity:
    """The output of main, byte for byte, on the example problems and on the first inputs
    of the cli-compare benchmark.  A change that moves these bits on purpose updates the
    digests and says why in CHANGES.md; a speed-up must leave them as they are.  They hold for
    one numpy build: where numpy's vector loops differ, so can the last bit of a zero."""

    @pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
    def test_example_problems(self, path):
        assert _digest(path) == EXAMPLE_DIGESTS[path.name]

    @staticmethod
    def _benchmark_inputs(tmp_path) -> list[Path]:
        with pytest.MonkeyPatch.context() as mp:
            mp.syspath_prepend(str(PERFBENCH))
            problems = importlib.import_module("problems")
        paths = []
        for problem in problems.build_pool("cli-compare", 1)[:len(BENCH_DIGESTS)]:
            paths.append(tmp_path / f"{problem.family}-{problem.pid}.json")
            paths[-1].write_text(json.dumps({"name": f"{problem.family}-{problem.pid}",
                                             "coefficients": problem.rows.tolist()}))
        return paths

    def test_first_benchmark_inputs(self, tmp_path):
        assert [_digest(path) for path in self._benchmark_inputs(tmp_path)] == BENCH_DIGESTS

    @pytest.mark.parametrize("algorithm, fmt", ROUTE_DIGESTS)
    def test_each_route_and_compare_text(self, tmp_path, algorithm, fmt):
        # the single routes and the text report: compare mode takes new and new-prime from one
        # call, and each single route computes its own set
        got = [_digest(path, "--algorithm", algorithm, "--format", fmt)
               for path in [*EXAMPLES, *self._benchmark_inputs(tmp_path)]]
        assert got == ROUTE_DIGESTS[algorithm, fmt]
