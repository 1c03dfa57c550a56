"""The command-line surface: formats, exit codes, schema conformance."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")

from implicax.arith import RationalField
from implicax.cli import main
from implicax.problems import load_problem

ROOT = Path(__file__).resolve().parent.parent
PROBLEMS = ROOT / "problems"
SCHEMA = json.loads(
    (ROOT / "src" / "implicax" / "schema" / "result.schema.json").read_text()
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMA)
    return code, doc, err


def test_implicitize_conic_json(capsys):
    code, doc, _ = run_json(
        capsys, "implicitize", str(PROBLEMS / "curve_conic.txt"), "--format", "json"
    )
    assert code == 0
    assert doc["reduced"] == "T2^2 - T1*T3"
    assert doc["exponent"] == 1
    assert doc["nu"] == 1
    assert doc["verified"] is True


def test_implicitize_json_problem_file(capsys):
    code, doc, _ = run_json(
        capsys, "implicitize", str(PROBLEMS / "curve_conic.json"), "--format", "json"
    )
    assert code == 0 and doc["reduced"] == "T2^2 - T1*T3"


def test_implicitize_lci_json(capsys):
    code, doc, _ = run_json(
        capsys, "implicitize", str(PROBLEMS / "surface_lci.txt"), "--format", "json"
    )
    assert code == 0
    assert doc["reduced"] == "T1*T2*T3 + T1*T2*T4 - T3*T4^2"
    assert doc["exponent"] == 1
    # nu0 = (n-2)(d-1) - indeg(I^sat) = 4 - 2
    assert doc["nu"] == 2
    assert doc["diagnostics"]["nu_bound"] == 4
    assert doc["diagnostics"]["nu0"] == 2
    assert doc["diagnostics"]["e_total"] == 6


def test_text_and_json_carry_same_content(capsys):
    _, doc, _ = run_json(
        capsys, "implicitize", str(PROBLEMS / "curve_conic.txt"), "--format", "json"
    )
    code, text, _ = run_cli(
        capsys, "implicitize", str(PROBLEMS / "curve_conic.txt"), "--format", "text"
    )
    assert code == 0
    for key in ("implicit", "reduced", "exponent", "degree", "nu", "method"):
        assert "%s: %s" % (key, doc[key]) in text


def test_analyze_quadric(capsys):
    code, doc, _ = run_json(
        capsys, "analyze", str(PROBLEMS / "surface_quadric.txt"), "--format", "json"
    )
    assert code == 0
    d = doc["diagnostics"]
    assert d["e_total"] == 0
    assert d["predicted_degree"] == 4
    assert d["nu_bound"] == 2
    assert doc["implicit"] is None


def test_analyze_degenerate_exit_zero(capsys, tmp_path):
    f = tmp_path / "deg.txt"
    f.write_text("field: QQ\nx_vars: X1 X2\nf1 = X1^2\nf2 = X1^2\nf3 = X1^2\n")
    code, doc, _ = run_json(capsys, "analyze", str(f), "--format", "json")
    assert code == 0
    assert doc["diagnostics"]["generically_finite"] is False
    assert doc["diagnostics"]["predicted_degree"] == 0


def test_analyze_degenerate_base_point_keeps_nu_nonnegative(capsys, tmp_path):
    # four linear forms through (0:0:1): indeg(I^sat) = 1 exceeds
    # (n-2)(d-1) = 0, and nu0 stops at 0, as the schema requires
    f = tmp_path / "lines.txt"
    f.write_text("field: QQ\nx_vars: X1 X2 X3\nf1 = X1\nf2 = X2\nf3 = X1 + X2\nf4 = X1 - X2\n")
    code, doc, _ = run_json(capsys, "analyze", str(f), "--format", "json")
    assert code == 0
    assert doc["nu"] == doc["diagnostics"]["nu0"] == 0
    assert doc["diagnostics"]["generically_finite"] is False


def test_analyze_lci_diagnostics(capsys):
    code, doc, _ = run_json(
        capsys, "analyze", str(PROBLEMS / "surface_lci.txt"), "--format", "json"
    )
    assert code == 0
    d = doc["diagnostics"]
    assert d["e_total"] == 6 and d["predicted_degree"] == 3
    # H(7) = H(8) = 6 <= 7 closes the profile by persistence
    assert d["base_locus_certificate"] == "persistence"
    assert d["hilbert_values"] == {"7": 6, "8": 6}
    # the boundary comparison genuinely fails for this example in degree 4
    # (see test_geometry for the explicit witness)
    assert d["syzygetic_verdict"].startswith("fail")
    # analyze reports the degree implicitize would use
    assert doc["nu"] == d["nu0"] == 2


def test_parse_error_names_offending_line(capsys, tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("field: QQ\nx_vars: X1 X2\nf1 = X1^2\nf2 = X1*X2\nf3 = X2^2 + X1\n")
    code, out, err = run_cli(capsys, "implicitize", str(f))
    assert code == 2
    assert "parse error" in err
    assert "f3 = X2^2 + X1" in err and "not homogeneous" in err
    assert not out.strip()


@pytest.mark.parametrize("command", ["implicitize", "analyze"])
@pytest.mark.parametrize(
    "line, message",
    [("f2 = X1*Y2", "unknown variable 'Y2'"), ("f2 = X1^32768*X2", "exponent 32768 out of range")],
    ids=["undeclared-variable", "oversized-exponent"],
)
def test_bad_polynomial_line_is_parse_error(capsys, tmp_path, command, line, message):
    f = tmp_path / "bad.txt"
    f.write_text("field: QQ\nx_vars: X1 X2\nf1 = X1^2\n%s\nf3 = X2^2\n" % line)
    code, out, err = run_cli(capsys, command, str(f))
    assert code == 2
    assert "parse error" in err and line in err and message in err
    assert not out.strip()


@pytest.mark.parametrize(
    "header, message",
    [
        ("field: GF(4)\nx_vars: X1 X2", "not prime"),
        ("field: GF(1)\nx_vars: X1 X2", "not prime"),
        ("field: QQ\nx_vars: X1 X1", "duplicate variable names"),
        ("field: QQ\nx_vars: 1X X2", "bad variable name"),
        ("field: QQ\nx_vars: X1 X2\nt_vars: T1 X1 T3", "duplicate variable names"),
    ],
    ids=["GF4", "GF1", "repeated-x", "bad-name", "t-repeats-x"],
)
@pytest.mark.parametrize("command", ["implicitize", "analyze", "resultant"])
def test_malformed_header_is_parse_error(capsys, tmp_path, header, message, command):
    f = tmp_path / "header.txt"
    polys = "f1 = X2^2\nf2 = X2^2\n" + ("" if command == "resultant" else "f3 = X2^2\n")
    f.write_text(header + "\n" + polys)
    extra = ["--kind", "bezout"] if command == "resultant" else []
    code, out, err = run_cli(capsys, command, str(f), *extra)
    assert code == 2
    assert "parse error" in err and message in err
    assert not out.strip()


@pytest.mark.parametrize(
    "key, header",
    [
        ("field", "field: QQ\nfield: GF(7)\nx_vars: X1 X2"),
        ("x_vars", "field: QQ\nx_vars: X1 X2\nx_vars: X2 X1"),
        ("t_vars", "field: QQ\nx_vars: X1 X2\nt_vars: T1 T2 T3\nt_vars: U1 U2 U3"),
    ],
    ids=["field", "x_vars", "t_vars"],
)
@pytest.mark.parametrize("command", ["implicitize", "analyze"])
def test_repeated_header_is_parse_error(capsys, tmp_path, key, header, command):
    # a later header line must not silently override an earlier one
    f = tmp_path / "twice.txt"
    f.write_text(header + "\nf1 = X1^2\nf2 = X1*X2\nf3 = X2^2\n")
    code, out, err = run_cli(capsys, command, str(f))
    assert code == 2
    assert "parse error" in err and "header %r is given twice" % key in err
    assert not out.strip()


def test_default_t_vars_skip_declared_x_names(capsys, tmp_path):
    f = tmp_path / "x_is_t1.txt"
    f.write_text("field: QQ\nx_vars: T1 X2\nf1 = T1^2\nf2 = T1*X2\nf3 = X2^2\n")
    code, doc, err = run_json(capsys, "implicitize", str(f), "--format", "json")
    assert code == 0, err
    assert doc["reduced"] == "T3^2 - T2*T4"


def test_resultant_pads_t_vars_with_undeclared_names(capsys, tmp_path):
    f = tmp_path / "t3.txt"
    f.write_text("field: QQ\nx_vars: X1 X2\nt_vars: T3\nf1 = X1^2\nf2 = X2^2\n")
    code, out, err = run_cli(capsys, "resultant", str(f), "--kind", "bezout")
    assert code == 0, err
    assert "determinant: -1" in out


@pytest.mark.parametrize("field, coeff", [("QQ", "1/0"), ("GF(101)", "1/101")])
def test_zero_denominator_is_parse_error(capsys, tmp_path, field, coeff):
    f = tmp_path / "zero.txt"
    f.write_text("field: %s\nx_vars: X1 X2\nf1 = %s*X1^2 + X2^2\nf2 = X1*X2\nf3 = X2^2\n" % (field, coeff))
    code, out, err = run_cli(capsys, "implicitize", str(f))
    assert code == 2
    assert "parse error" in err and "denominator" in err
    assert not out.strip()


def test_small_field_map_whose_rank_the_first_draws_miss(capsys, tmp_path):
    # over GF(101), seed 13's first two points both miss the rank of the
    # 6 x 9 rightmost map; both routes must still solve it
    f = tmp_path / "gf101.txt"
    f.write_text(
        "field: GF(101)\nx_vars: X1 X2 X3\n"
        "f1 = 4*X1^2+2*X2^2+3*X3^2+4*X1*X2+3*X1*X3+2*X2*X3\n"
        "f2 = 4*X1^2+2*X2^2+2*X3^2+4*X1*X2+2*X1*X3+5*X2*X3\n"
        "f3 = 3*X1^2+2*X2^2+2*X3^2+2*X1*X2+4*X1*X3+3*X2*X3\n"
        "f4 = X1^2+X2^2+3*X3^2+2*X1*X2+X1*X3+4*X2*X3\n"
    )
    for method in ("det-complex", "gcd-minors"):
        code, doc, _ = run_json(
            capsys, "implicitize", str(f), "--seed", "13", "--method", method, "--format", "json"
        )
        assert code == 0 and doc["degree"] == 4 and doc["verified"] is True

def test_repeated_polynomial_line_is_parse_error(capsys, tmp_path):
    f = tmp_path / "twice.txt"
    f.write_text("field: QQ\nx_vars: X1 X2\nf1 = X1^2\nf2 = X1*X2\nf3 = X2^2\nf1 = X1^2 + X2^2\n")
    code, out, err = run_cli(capsys, "implicitize", str(f))
    assert code == 2
    assert "parse error" in err and "line 6" in err and "f1" in err
    assert not out.strip()


@pytest.mark.parametrize(
    "key, value",
    [
        ("field", 5),
        ("t_vars", 3),
        ("x_vars", "X1 X2"),
        ("polys", "X1^2"),
        ("x_vars", [1, "X2"]),
        ("t_vars", ["T1", 2, "T3"]),
        ("polys", ["X1^2", 5, "X2^2"]),
    ],
    ids=[
        "field-int",
        "t_vars-int",
        "x_vars-string",
        "polys-string",
        "x_vars-entry-int",
        "t_vars-entry-int",
        "polys-entry-int",
    ],
)
def test_wrongly_typed_json_value_is_parse_error(capsys, tmp_path, key, value):
    doc = json.loads((PROBLEMS / "curve_conic.json").read_text())
    doc[key] = value
    f = tmp_path / "typed.json"
    f.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "implicitize", str(f))
    assert code == 2
    assert "parse error" in err and repr(key) in err
    assert not out.strip()


def test_seed_is_an_implicitize_option_only(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", str(PROBLEMS / "surface_quadric.txt"), "--seed", "7"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_missing_file_is_parse_error(capsys):
    code, _, err = run_cli(capsys, "implicitize", "no_such_file.txt")
    assert code == 2 and "parse error" in err


def test_degenerate_implicitize_exit_three(capsys, tmp_path):
    f = tmp_path / "deg.txt"
    f.write_text("field: QQ\nx_vars: X1 X2\nf1 = X1^2\nf2 = X1^2\nf3 = X1^2\n")
    code, out, err = run_cli(capsys, "implicitize", str(f))
    assert code == 3
    assert "hypothesis violation" in err
    assert not out.strip()


def test_sub_bound_without_flag_exit_two(capsys):
    code, _, err = run_cli(
        capsys, "implicitize", str(PROBLEMS / "surface_quadric.txt"), "--nu", "1"
    )
    assert code == 2


def test_degree_mismatch_exit_four(capsys):
    code, out, err = run_cli(
        capsys,
        "implicitize",
        str(PROBLEMS / "surface_quadric.txt"),
        "--nu",
        "1",
        "--allow-sub-bound",
    )
    assert code == 4
    assert "consistency" in err


def test_oracle_sampling_failure_exit_five(capsys, monkeypatch):
    # every sampled point is the origin, where all f vanish: the oracle
    # cannot find points off the base locus, a runtime failure
    monkeypatch.setattr(RationalField, "random", lambda self, rng, lo=-9, hi=9: 0)
    code, out, err = run_cli(capsys, "implicitize", str(PROBLEMS / "curve_conic.txt"))
    assert code == 5
    assert "runtime failure" in err and "could not sample" in err
    assert not out.strip()


def test_sub_bound_lci_with_flag_runs_and_fails(capsys):
    # nu0 - 1 = 1 passes the gate with the flag, and the strand's rank
    # profile then rejects it; the sub-bound warning is printed all the same
    code, out, err = run_cli(
        capsys,
        "implicitize",
        str(PROBLEMS / "surface_lci.txt"),
        "--nu",
        "1",
        "--allow-sub-bound",
    )
    assert code == 3
    assert "hypothesis violation" in err and "rank profile" in err
    assert err.startswith("warning: strand degree 1 below the proven bound")
    assert not out.strip()


def test_lci_between_nu0_and_nu_bound_needs_no_flag(capsys):
    code, doc, err = run_json(
        capsys, "implicitize", str(PROBLEMS / "surface_lci.txt"), "--nu", "3", "--format", "json"
    )
    assert code == 0
    assert doc["reduced"] == "T1*T2*T3 + T1*T2*T4 - T3*T4^2"
    assert doc["nu"] == 3
    assert "warning" not in err


def test_resultant_kravitsky(capsys):
    code, doc, _ = run_json(
        capsys,
        "resultant",
        str(PROBLEMS / "curve_conic.txt"),
        "--kind",
        "kravitsky",
        "--format",
        "json",
    )
    assert code == 0
    assert doc["reduced"] == "T2^2 - T1*T3"
    assert doc["dehomogenized"] == "T2^2 - T1"


def test_resultant_kravitsky_refuses_a_common_factor(capsys):
    code, out, err = run_cli(
        capsys, "resultant", str(PROBLEMS / "curve_with_base_point.txt"), "--kind", "kravitsky"
    )
    assert code == 3
    assert "hypothesis violation" in err and "share a factor" in err
    assert not out.strip()


def test_resultant_bezout_matrix(capsys):
    code, doc, _ = run_json(
        capsys,
        "resultant",
        str(PROBLEMS / "bezout_squares.txt"),
        "--kind",
        "bezout",
        "--emit-matrix",
        "--format",
        "json",
    )
    assert code == 0
    assert doc["determinant"] == "-1"
    assert doc["matrix"] in ([["0", "1"], ["1", "0"]], [["0", "-1"], ["-1", "0"]])


@pytest.mark.parametrize("kind", ["sylvester", "bezout"])
def test_resultant_rejects_t_terms(capsys, tmp_path, kind):
    # a T inside a binary form is a parse error, not a dropped term
    f = tmp_path / "t_term.txt"
    f.write_text("field: QQ\nx_vars: X1 X2\nf1 = X1^2 + T1*X2^2\nf2 = X1*X2\n")
    code, out, err = run_cli(capsys, "resultant", str(f), "--kind", kind)
    assert code == 2
    assert out == ""
    assert "parse error" in err and "T-variables" in err


def test_resultant_bezout_refuses_unequal_degrees(capsys, tmp_path):
    # a malformed pair is a parse error (exit 2) that names both forms
    f = tmp_path / "unequal.txt"
    f.write_text("field: QQ\nx_vars: X1 X2\nf1 = X1^2\nf2 = X1\n")
    code, out, err = run_cli(capsys, "resultant", str(f), "--kind", "bezout")
    assert code == 2
    assert out == ""
    assert err == "parse error: bezout needs two forms of one degree: f1 has degree 2, f2 1\n"


@pytest.mark.parametrize("kind", ["sylvester", "bezout"])
def test_resultant_zero_form_is_named(capsys, tmp_path, kind):
    f = tmp_path / "zero.txt"
    f.write_text("field: QQ\nx_vars: X1 X2\nf1 = X1^2\nf2 = X1*X2 - X1*X2\n")
    code, out, err = run_cli(capsys, "resultant", str(f), "--kind", kind)
    assert code == 2
    assert out == ""
    assert err == "parse error: f2 = X1*X2 - X1*X2: zero form\n"


def test_resultant_sylvester_coordinates(capsys, tmp_path):
    f = tmp_path / "coords.txt"
    f.write_text("field: QQ\nx_vars: X1 X2\nf1 = X1\nf2 = X2\n")
    code, doc, _ = run_json(
        capsys, "resultant", str(f), "--kind", "sylvester", "--format", "json"
    )
    assert code == 0 and doc["determinant"] == "1"


# --emit-matrix output of the resultant kinds, pinned entry by entry, with the
# reduced and dehomogenized equations (kravitsky only)
EMITTED = [
    (
        "kravitsky",
        "field: QQ\nx_vars: X1 X2\nf1 = X1^3 + 2*X2^3\nf2 = X1^2*X2 - 1/2*X2^3\nf3 = X1*X2^2 + 3*X1^3\n",
        [
            ["1/2*T1 + 2*T2", "-2*T3", "3/2*T1 + 6*T2 - 1/2*T3"],
            ["-2*T3", "5/2*T1 + 6*T2 - 1/2*T3", "-T2"],
            ["3/2*T1 + 6*T2 - 1/2*T3", "-T2", "-3*T1 + T3"],
        ],
        "-75/8*T1^3 - 165/2*T1^2*T2 - 469/2*T1*T2^2 - 218*T2^3 + 55/8*T1^2*T3"
        " + 50*T1*T2*T3 + 90*T2^2*T3 + 83/8*T1*T3^2 - 15/2*T2*T3^2 - 31/8*T3^3",
        "75*T1^3 + 660*T1^2*T2 + 1876*T1*T2^2 + 1744*T2^3 - 55*T1^2*T3 - 400*T1*T2*T3"
        " - 720*T2^2*T3 - 83*T1*T3^2 + 60*T2*T3^2 + 31*T3^3",
        "75*T1^3 + 660*T1^2*T2 + 1876*T1*T2^2 + 1744*T2^3 - 55*T1^2 - 400*T1*T2"
        " - 720*T2^2 - 83*T1 + 60*T2 + 31",
    ),
    (
        "kravitsky",
        "field: GF(65521)\nx_vars: X1 X2\nf1 = X1^2 + 5*X2^2\nf2 = X1*X2 - 2*X2^2\nf3 = 3*X1^2 + X1*X2\n",
        [
            ["2*T1 + 5*T2 + 65516*T3", "6*T1 + 15*T2 + 65519*T3"],
            ["6*T1 + 15*T2 + 65519*T3", "65518*T1 + 65520*T2 + T3"],
        ],
        "65479*T1^2 + 65324*T1*T2 + 65291*T2^2 + 41*T1*T3 + 70*T2*T3 + 65512*T3^2",
        "T1^2 + 20285*T1*T2 + 34326*T2^2 + 63960*T1*T3 + 43679*T2*T3 + 51481*T3^2",
        "T1^2 + 20285*T1*T2 + 34326*T2^2 + 63960*T1 + 43679*T2 + 51481",
    ),
    (
        "sylvester",
        "field: QQ\nx_vars: X1 X2\nf1 = X1^2 - 3*X1*X2\nf2 = 2*X1 + X2\n",
        [["1", "-3", "0"], ["2", "1", "0"], ["0", "2", "1"]],
        "7",
        None,
        None,
    ),
    (
        "sylvester",
        "field: GF(65521)\nx_vars: X1 X2\nf1 = X1^2 - 3*X1*X2\nf2 = 2*X1 + X2\n",
        [["1", "65518", "0"], ["2", "1", "0"], ["0", "2", "1"]],
        "7",
        None,
        None,
    ),
]


@pytest.mark.parametrize(
    "kind, text, matrix, det, reduced, dehomogenized",
    EMITTED,
    ids=["krav_qq", "krav_gf", "syl_qq", "syl_gf"],
)
def test_resultant_emit_matrix_is_pinned(
    capsys, tmp_path, kind, text, matrix, det, reduced, dehomogenized
):
    f = tmp_path / "forms.txt"
    f.write_text(text)
    code, doc, _ = run_json(
        capsys, "resultant", str(f), "--kind", kind, "--emit-matrix", "--format", "json"
    )
    assert code == 0
    assert doc["matrix"] == matrix
    assert doc["determinant"] == det
    assert doc["reduced"] == reduced
    assert doc["dehomogenized"] == dehomogenized


def test_env_seed_override(capsys, monkeypatch):
    monkeypatch.setenv("IMPLICAX_SEED", "424242")
    code, doc, _ = run_json(
        capsys, "implicitize", str(PROBLEMS / "curve_conic.txt"), "--format", "json"
    )
    assert code == 0 and doc["seed"] == 424242
    monkeypatch.setenv("IMPLICAX_SEED", "not-a-number")
    code, _, err = run_cli(capsys, "implicitize", str(PROBLEMS / "curve_conic.txt"))
    assert code == 2


def test_console_script_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "implicax.cli", "implicitize",
         str(PROBLEMS / "curve_conic.txt"), "--format", "json"],
        capture_output=True,
        text=True,
        cwd=str(ROOT),
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["reduced"] == "T2^2 - T1*T3"


def test_all_shipped_problem_files_parse(capsys):
    for path in sorted(PROBLEMS.glob("*.txt")):
        if path.name.startswith("bezout"):
            continue
        code, doc, _ = run_json(capsys, "analyze", str(path), "--format", "json")
        assert code == 0, path


@pytest.mark.parametrize(
    "f2, reason",
    [
        ("0", "is zero"),
        ("X1*X2 + T1*X2^2", "involves T-variables"),
        ("X1*X2 + X1", "is not homogeneous"),
        ("X1^3", "mixed degrees"),
        ("X1 +* X2", "misplaced '*'"),
    ],
    ids=["zero", "t-term", "inhomogeneous", "mixed-degrees", "unparsable"],
)
def test_bad_form_is_parse_error_naming_it(capsys, tmp_path, f2, reason):
    f = tmp_path / "bad_form.txt"
    f.write_text("field: QQ\nx_vars: X1 X2\nf1 = X1^2\nf2 = %s\nf3 = X2^2\n" % f2)
    code, out, err = run_cli(capsys, "implicitize", str(f))
    assert code == 2
    assert "parse error" in err and "f2" in err and reason in err
    assert not out.strip()


def test_non_lci_a_image_lies_on_its_quadric():
    # the map of problems/non_lci_a.txt: f1*f2 = f4^2
    param = load_problem(PROBLEMS / "non_lci_a.txt").parameterization()
    quadric = param.ring.poly("T1*T2 - T4^2")
    assert not quadric.evaluate(dict(zip(param.t_names(), param.polys))).terms


@pytest.mark.xfail(
    strict=True,
    reason="base points that are not local complete intersections are not"
    " refused yet: the Hilbert plateau counts length, not multiplicity, so"
    " these maps get a degree that is too high, which passes the degree"
    " check and the oracle with exit 0",
)
@pytest.mark.parametrize("name", ["non_lci_a.txt", "non_lci_b.txt"])
def test_non_lci_base_points_exit_three(capsys, name):
    code, _, _ = run_cli(capsys, "implicitize", str(PROBLEMS / name))
    assert code == 3
