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
    "cubic_units.json": (0, "33e971087c08d681b2762bdf158fc0255370674a3f5e75f4652167eec7923457"),
    "degree6_mixed.json": (0, "d193ca5515e9bf63f585d29868d60c09e09d55f01dca71896eebc1855a000060"),
    "real_cubic.json": (0, "1b087394c0aa41ddc573258bfee5e7ea9bf3e51b595f97a0ca74dd1ffd623d89"),
}
# the first 16 inputs of the cli-compare benchmark pool, seed 1, written as its worker writes them
BENCH_DIGESTS = [
    (0, "95e3cbe6085937caba22e9f35e8310dcfac9995cde3c717abd67368c0f553dfe"),
    (0, "d36baa4b9dca7edc87678a89b0fff0e80775c4d0cbe38c2f7bee5404274052b7"),
    (0, "282fe85f61ec39f237ed66154c097595bff3144e993cf70605332b5a78fe0568"),
    (0, "0bdd07a6c33914f33dab9ab509d12bf2e1cb1e6574343f9660fd23a3f8cfb644"),
    (0, "44c55e9fce1047c4ee78337abd289903000b8dfec6d861647690d4bf134e646a"),
    (0, "51ab69280c091b2ceaf0a03bd21c80cc50e6882f6c7ed949aef6f2deb4ca4ad8"),
    (0, "ad094e503195cd080f979861ab3a22591a0b9279d376e7a407575de86b332b7a"),
    (0, "2a5a9bb0e443ab3f6a966d59988d98c2ce8570ada4940942a282944dfb4fda6e"),
    (0, "0ad05ac083fa02a94aba473938877a1631d16f8eedb061b527b2677b1b1098b5"),
    (0, "6055b6143f150fb5571c807c24fa20a177858caef2195b16e83dd1dc8a8559c0"),
    (0, "21b599942067d5b86b8c5bfc52e6d5b1b60a0e95eb22f11ffc62936479c3f95d"),
    (0, "31b587069f9cf6b4af2f3c62f7ae3a62a24bbdde9a70b09ab4ba4520f68f07fc"),
    (0, "1f465e6c3317164549fd6a04297160e79606c3870ac7a24b2a9c7eb0d6f42ccd"),
    (0, "582b66e16c67cb302be9b6f01a5865943a1d030da0edbe79a1684cdee9a132fb"),
    (0, "684ee7338deeca3d858a0210e2be0c84ae658b8e66ab80903818e7b423d62e46"),
    (0, "93f74caf7c67b09442442babbe07db6d8598f5fae505f98fcfb285c4aee23df4"),
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
        (0, "83258d426bb0be498cdae617fb1b0f49072401c97ba3be742d70c35ae534bf8d"),
        (0, "cdca00c09dd6491a51cd8d8641d3a0de67dfd92dddb100b38938389d5f2a9e1c"),
        (0, "0f9006ad28f851c7c5e1bd56fbc387d721f3763afed442bf83e318f4d1f8bafe"),
        (0, "ad52cbb3d995822fbb39d219383c379287b9fbe41609ac380021650690e81b82"),
        (0, "9de5d371241a521535ed5d3ce1edcd4129ffbeca77215ba974d93e54412df602"),
        (0, "555f86338d169accd0b217872d1644745ae537e424eec807b1b18fed00820f45"),
        (0, "c707d3435247f37d74c391029748225d00112d71ec7327c83a29b3630bb04360"),
        (0, "73c2c9458fc47b7f27cb495e844f70d3889024b786927fbc90f1760f45b49c64"),
        (0, "93ef8ee8d7a38bb7da6ce55212cf5a15382206cce53260a5dafa8093c56ad21f"),
        (0, "ba9ef798508c30a7c4b0f217e3b152f8c6f45be2d2f6b2b5a6917020755a6201"),
        (0, "251cd099edec28b45cdaff965709922d66f6481396f26495df4a56c16ecb997d"),
        (0, "3023136092a43727db81c1dd8c868b5f6bc8e4e9bfd5f92456f65888325ba549"),
        (0, "6a0b567b5d6cca48ddf17c2f422abdc50e70d447f4fb28a026b4bb83440f9c66"),
        (0, "90606e04a95cfb295dc070a25e0ce8087b6c2cbde30ae58c7f09feedf56db510"),
        (0, "217076bf72e29a43e22a8e51c51b31ee5ffd317329880cae40ec588a90d14210"),
        (0, "00945fbaaf7d9ab613f52888dbbe749137a0ac6e18e0b6e8026885e3aa46f066"),
        (0, "03501f87b75a2c2bfd1294887bb9e643ef3b6617635e29fc3b588df3a5e0d114"),
        (0, "85ee68febbf41aba9e2e74b273b4f55937e7806602a664045b84e068c07555eb"),
        (0, "d1f223c2cd039e922fd6b7633048216d5f44546197e2e0cfb9ea18725314c3c2"),
    ],
    ("compare", "text"): [
        (0, "362b1d070ae9bd6187ac92074135d8f4202626c45ec278280b58ea2685cb9246"),
        (0, "99617b8875093413c72b234b402aa2e52a2df03cfb096b5566803b18a1bdbae9"),
        (0, "da992b923ea0574b64654d63309c1f4252b5ee891a41bc595fcdd8197cd343e5"),
        (0, "2c9dc2032edc7e71e75fc34ed9c6e92a8bfe2ce51e2bc5bacf493e0992c835d2"),
        (0, "dd5576f4476f4ad3a4b577f0e18cd9cb10801438ad0c5f400c3fdc988a5a81bc"),
        (0, "e6c100897e27b7a9ea03e6edb35a6ecf1de6d9ac34a4777d09cafd6b302b9e16"),
        (0, "6aec3de43dc9c0ebfd70541647c65156b917bfc1eb77512f12c8518b47cb7cc8"),
        (0, "cbb4c7c4e3ae6b75ca0ba3c4db996c403822802935836e44f66759c18fcd0dbf"),
        (0, "8c2af7e2d5b0cfd8ae0899b7b2cabd9a272c8920ded2e58ae02c9f013d418097"),
        (0, "80bc29efa5edd060a08dedad1fbfc8f8c1949452710a08f7cfd4ae8cfc275c8a"),
        (0, "6c179e8f12f00b224a97d4256cc35f87823edb4133869af22754a4540c06849a"),
        (0, "237d024cd4149382935039fdd74ebd84641161426fe5ac02b7bc3ec0bdc67300"),
        (0, "c07d8b781ed768e565b7b8bdebdb7fcb49d1298b5f36855ce89b2633f4245a4a"),
        (0, "7d66d6a4d30af97373668e9e68f071a68897ef991d7d0b340dfac5a24943c618"),
        (0, "bd13b55c8df84cdafe6ef4112fec8d60563f5b10e39f59737cef13877e05a2e0"),
        (0, "7520c2048adb3add6c72ce1d98bdd72e1e043f044caad6b91dfbc813de4b0336"),
        (0, "d37d5f61045af812d149c6860520519e3be052b9ac3bbba48a0b2d205e43c114"),
        (0, "c64e93366b822f1d5819e4dd8ce34e93ae9c2dedfcf5c401a6816520608c9619"),
        (0, "6c738264ec6145c51a6f92bd439fb3c0abebfecb5463ccda82fcf3e6b9f59622"),
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
