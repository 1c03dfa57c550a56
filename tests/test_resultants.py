"""Sylvester/Bezout matrices, the three-form pencil, curve implicitization."""

import random
from pathlib import Path

import pytest

from implicax import cli, resultants
from implicax.arith import GF, QQ, Ring, make_parameterization, unit_multiple_of
from implicax.errors import HypothesisViolation, ImplicaxError
from implicax.linalg import det_fraction_free
from implicax.resultants import (
    BinaryForm,
    bezout_matrix,
    binary_form,
    curve_implicitize_resultant,
    kravitsky_pencil,
    sylvester_matrix,
)
from implicax.strands import complex_determinant, z_strand

from helpers import sylvester_dehomogenized, sylvester_resultant

RING = Ring(QQ, ["X1", "X2"], ["T1", "T2", "T3"])


def form(text, ring=RING):
    return binary_form(ring, ring.poly(text))


def rand_form(ring, d, rng):
    field = ring.field
    while True:
        coeffs = [field.random(rng) for _ in range(d + 1)]
        if any(coeffs):
            return BinaryForm(ring, [ring.const(c) for c in coeffs])


def sign_exp(d):
    return -1 if (d * (d - 1) // 2) % 2 else 1


# ---------------------------------------------------------------------------
# Sylvester


def test_res_of_coordinates():
    assert sylvester_resultant(form("X1"), form("X2")) == RING.one


def test_res_of_pure_powers_is_one():
    for d in range(1, 6):
        p = form("X1^%d" % d)
        q = form("X2^%d" % d)
        assert sylvester_resultant(p, q) == RING.one


def test_res_sylvester_example_with_t():
    # Res(X1^2 - T1 X2^2, X1 X2 - T2 X2^2) for the conic parameterization
    p = binary_form(RING, RING.poly("X1^2"))
    f3 = binary_form(RING, RING.poly("X2^2"))
    f2 = binary_form(RING, RING.poly("X1*X2"))
    t1, t2 = RING.poly("T1"), RING.poly("T2")
    pa = BinaryForm(RING, [a - t1 * b for a, b in zip(p.coeffs, f3.coeffs)])
    pb = BinaryForm(RING, [a - t2 * b for a, b in zip(f2.coeffs, f3.coeffs)])
    res = sylvester_resultant(pa, pb)
    # independent oracle: cofactor expansion of the explicit 4x4
    m = sylvester_matrix(pa, pb)
    acc = RING.zero
    import itertools

    for perm in itertools.permutations(range(4)):
        sign = 1
        seen = list(perm)
        for i in range(4):
            for j in range(i + 1, 4):
                if seen[i] > seen[j]:
                    sign = -sign
        term = RING.one
        for i in range(4):
            term = term * m.data[i][perm[i]]
        acc = acc + (term if sign > 0 else -term)
    assert res == acc
    assert unit_multiple_of(res, RING.poly("T2^2 - T1"))


def test_res_swap_sign():
    rng = random.Random(17)
    for _ in range(15):
        dp = rng.randint(1, 4)
        dq = rng.randint(1, 4)
        p = rand_form(RING, dp, rng)
        q = rand_form(RING, dq, rng)
        r1 = sylvester_resultant(p, q)
        r2 = sylvester_resultant(q, p)
        expect = r2 if (dp * dq) % 2 == 0 else -r2
        assert r1 == expect


def test_res_zero_form_rejected():
    with pytest.raises(ImplicaxError):
        sylvester_matrix(BinaryForm(RING, [RING.zero, RING.zero]), form("X1"))


# ---------------------------------------------------------------------------
# Bezout


def test_bezout_of_equal_forms_is_zero():
    p = form("X1^3 + 2*X1*X2^2 - X2^3")
    b = bezout_matrix(p, p)
    assert all(not e.terms for row in b.data for e in row)


def test_bezout_squares():
    b = bezout_matrix(form("X1^2"), form("X2^2"))
    vals = [[e.terms.get(RING.one_mono, 0) for e in row] for row in b.data]
    assert vals in ([[0, 1], [1, 0]], [[0, -1], [-1, 0]])
    assert det_fraction_free(b) == RING.const(-1)


def test_bezout_symmetric():
    rng = random.Random(5)
    for _ in range(10):
        d = rng.randint(1, 5)
        p = rand_form(RING, d, rng)
        q = rand_form(RING, d, rng)
        b = bezout_matrix(p, q)
        for i in range(d):
            for j in range(d):
                assert b.data[i][j] == b.data[j][i]


def test_bezout_unequal_degrees_rejected():
    with pytest.raises(ImplicaxError):
        bezout_matrix(form("X1"), form("X1^2"))


def test_det_bezout_equals_signed_resultant():
    rng = random.Random(777)
    for field in (QQ, GF(65521)):
        ring = Ring(field, ["X1", "X2"], ["T1", "T2", "T3"])
        for _ in range(25):
            d = rng.randint(1, 6)
            p = rand_form(ring, d, rng)
            q = rand_form(ring, d, rng)
            db = det_fraction_free(bezout_matrix(p, q))
            res = sylvester_resultant(p, q)
            assert db == res * sign_exp(d)


# ---------------------------------------------------------------------------
# the pencil


def test_pencil_of_conic():
    f = [form("X1^2"), form("X1*X2"), form("X2^2")]
    pencil = kravitsky_pencil(*f)
    # T1*Bez(f2,f3) + T2*Bez(f3,f1) + T3*Bez(f1,f2): no constant part
    assert pencil.parts[1:] == [bezout_matrix(*pair).parts[0] for pair in ((f[1], f[2]), (f[2], f[0]), (f[0], f[1]))]
    assert not any(map(any, pencil.parts[0]))
    det = det_fraction_free(pencil)
    assert unit_multiple_of(det, RING.poly("T2^2 - T1*T3"))


def test_pencil_specializes_to_bezout():
    f = [form("X1^2"), form("X1*X2"), form("X2^2")]
    pencil = kravitsky_pencil(*f)
    spec = pencil.evaluate([0, 0, 1])
    bez = bezout_matrix(f[0], f[1])
    vals = [[e.terms.get(RING.one_mono, 0) for e in row] for row in bez.data]
    assert spec == vals


def test_pencil_power_specialization():
    # with (P, Q, R) = (X1^d, X2^d, 0) and only T3 alive, the pencil becomes
    # T3 * Bez(X1^d, X2^d) whose determinant is the reversal sign times T3^d
    for d in range(1, 6):
        p = form("X1^%d" % d)
        q = form("X2^%d" % d)
        zero = BinaryForm(RING, [RING.zero] * (d + 1))
        b23 = bezout_matrix(q, zero)
        b31 = bezout_matrix(zero, p)
        b12 = bezout_matrix(p, q)
        t3 = RING.poly("T3")
        data = [[t3 * b12.data[i][j] for j in range(d)] for i in range(d)]
        from implicax.linalg import PolyMatrix

        det = det_fraction_free(PolyMatrix(RING, data, d))
        expect = RING.poly("T3") ** d * sign_exp(d)
        assert det == expect
        assert all(not e.terms for row in b23.data for e in row)
        assert all(not e.terms for row in b31.data for e in row)


def test_pencil_swap_antisymmetry_up_to_unit():
    rng = random.Random(31)
    ring = Ring(GF(65521), ["X1", "X2"], ["T1", "T2", "T3"])
    for _ in range(5):
        d = rng.randint(2, 4)
        fs = [rand_form(ring, d, rng) for _ in range(3)]
        det = det_fraction_free(kravitsky_pencil(*fs))
        det_swapped = det_fraction_free(kravitsky_pencil(fs[1], fs[0], fs[2]))
        if not det.terms:
            continue
        relabel = {"T1": ring.poly("T2"), "T2": ring.poly("T1")}
        assert unit_multiple_of(det_swapped.evaluate(relabel), det)


# ---------------------------------------------------------------------------
# curve implicitization


def test_curve_implicitize_conic():
    param = make_parameterization(QQ, ["X1", "X2"], ["X1^2", "X1*X2", "X2^2"])
    out = curve_implicitize_resultant(param)
    assert unit_multiple_of(out.dehomogenized, param.ring.poly("T2^2 - T1"))
    assert unit_multiple_of(out.homogeneous, param.ring.poly("T2^2 - T1*T3"))


def test_curve_implicitize_rejects_common_factor():
    param = make_parameterization(QQ, ["X1", "X2"], ["X1^3", "X1^2*X2", "X1*X2^2"])
    with pytest.raises(HypothesisViolation):
        curve_implicitize_resultant(param)


def test_curve_implicitize_rejects_wrong_n():
    param = make_parameterization(
        QQ, ["X1", "X2", "X3"], ["X1^2", "X2^2", "X3^2", "X1*X2"]
    )
    with pytest.raises(ImplicaxError):
        curve_implicitize_resultant(param)


def test_kravitsky_agrees_with_sylvester_random_cubics():
    rng = random.Random(20020101)
    field = GF(65521)
    done = 0
    while done < 20:
        coeffs = [[field.random(rng) for _ in range(4)] for _ in range(3)]
        texts = []
        for row in coeffs:
            terms = []
            for j, c in enumerate(row):
                if c:
                    terms.append("%d*X1^%d*X2^%d" % (c, 3 - j, j))
            if not terms:
                break
            texts.append(" + ".join(terms).replace("X1^0*", "").replace("*X2^0", "").replace("X1^1", "X1").replace("X2^1", "X2"))
        else:
            try:
                param = make_parameterization(field, ["X1", "X2"], texts)
                out = curve_implicitize_resultant(param)
            except (HypothesisViolation, ImplicaxError):
                continue
            assert out.dehomogenized == sylvester_dehomogenized(param)
            done += 1


def test_cross_method_resultant_vs_strand():
    rng = random.Random(99)
    field = GF(65521)
    done = 0
    while done < 6:
        d = rng.randint(1, 3)
        texts = []
        ok = True
        for _ in range(3):
            coeffs = [field.random(rng) for _ in range(d + 1)]
            if not any(coeffs):
                ok = False
                break
            terms = ["%d*X1^%d*X2^%d" % (c, d - j, j) for j, c in enumerate(coeffs) if c]
            texts.append("+".join(terms))
        if not ok:
            continue
        try:
            param = make_parameterization(field, ["X1", "X2"], texts)
            out = curve_implicitize_resultant(param)
        except (HypothesisViolation, ImplicaxError):
            continue
        strand_det = complex_determinant(z_strand(param, max(d - 1, 0))).value
        assert unit_multiple_of(out.homogeneous, strand_det)
        spec = strand_det.evaluate({"T3": 1})
        assert unit_multiple_of(spec, out.dehomogenized)
        done += 1


def test_dehomogenized_equals_sylvester_reference():
    # the pencil determinant at T3 = 1 against the T-affine Sylvester
    # determinant of f1 - T1*f3 and f2 - T2*f3, on seeded curves of degree
    # 1..6; every fourth one has f1 and f3 with no X1^d term, so
    # f1 - T1*f3 keeps formal degree d with a zero leading coefficient
    rng = random.Random(4242)
    fields = (QQ, GF(65521), GF(101))
    done = tried = 0
    while done < 42:
        field = fields[tried % 3]
        d = 1 + tried // 3 % 6
        sparse_lead = tried % 4 == 3
        tried += 1
        texts = []
        for i in range(3):
            coeffs = [field.random(rng) for _ in range(d + 1)]
            if sparse_lead and i != 1:
                coeffs[0] = 0
            terms = ["%+d*X1^%d*X2^%d" % (c, d - j, j) for j, c in enumerate(coeffs) if c]
            texts.append("0" + "".join(terms))
        try:
            param = make_parameterization(field, ["X1", "X2"], texts)
            out = curve_implicitize_resultant(param)
        except HypothesisViolation:
            continue
        assert out.dehomogenized == sylvester_dehomogenized(param)
        done += 1
    assert tried < 60


def test_one_determinant_per_curve(monkeypatch, capsys):
    # the resultant route and `resultant --kind kravitsky` each take the
    # pencil determinant once and read everything else off it
    calls = []

    def counted(m):
        calls.append(m.rows)
        return det_fraction_free(m)

    monkeypatch.setattr(resultants, "det_fraction_free", counted)
    monkeypatch.setattr(cli, "det_fraction_free", counted)
    param = make_parameterization(QQ, ["X1", "X2"], ["X1^3 + 2*X2^3", "X1^2*X2", "X1*X2^2 + X1^3"])
    curve_implicitize_resultant(param)
    assert calls == [3]
    calls.clear()
    conic = Path(__file__).resolve().parent.parent / "problems" / "curve_conic.txt"
    assert cli.main(["resultant", str(conic), "--kind", "kravitsky"]) == 0
    assert "T2^2 - T1*T3" in capsys.readouterr().out
    assert calls == [2]


def test_binary_form_rejects_t_terms():
    # a coefficient with a T in it is not a scalar coefficient of the form
    with pytest.raises(ImplicaxError):
        binary_form(RING, RING.poly("X1^2 + T1*X2^2"))
