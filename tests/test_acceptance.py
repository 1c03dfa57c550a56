"""Acceptance suite: the nine exit criteria, one printed line each.

Run with `pytest tests/test_acceptance.py -s` to see the PASS/FAIL lines.
All equality assertions are exact up to a unit of the coefficient field
(after the library's canonical normalization).
"""

import random
import time
import warnings
from contextlib import contextmanager

import pytest

from implicax.arith import (
    GF,
    QQ,
    Ring,
    make_parameterization,
    normalize,
    unit_multiple_of,
)
from implicax.errors import ConsistencyError, HypothesisViolation
from implicax.geometry import ideal_piece, syzygetic_test
from implicax.linalg import det_fraction_free, scalar_rank
from implicax.pipeline import analyze, implicitize, verify
from implicax.resultants import (
    BinaryForm,
    bezout_matrix,
    binary_form,
    curve_implicitize_resultant,
)
from implicax.strands import (
    boundary_basis,
    complex_determinant,
    cycle_basis,
    gcd_of_maximal_minors,
    z_strand,
)
from helpers import polys_to_vector, sylvester_dehomogenized, sylvester_resultant

CONIC = make_parameterization(QQ, ["X1", "X2"], ["X1^2", "X1*X2", "X2^2"])
CONIC_FAT = make_parameterization(QQ, ["X1", "X2"], ["X1^3", "X1^2*X2", "X1*X2^2"])
QUADRIC = make_parameterization(
    QQ, ["X1", "X2", "X3"], ["X1^2", "X2^2", "X3^2", "X1^2+X2^2+X3^2"]
)
CUBIC_SURF = make_parameterization(
    QQ, ["X1", "X2", "X3"], ["X1^2*X2", "X2^2*X3", "X1*X3^2", "X1^3+X2^3+X3^3"]
)
LCI_SURF = make_parameterization(
    QQ,
    ["X1", "X2", "X3"],
    ["X1*X3^2", "X1*X2^2 + X2^2*X3", "X1^2*X2 + X1*X2*X3", "X1*X2*X3 + X2*X3^2"],
)
EXAMPLES = {
    1: CONIC,
    2: CONIC_FAT,
    3: QUADRIC,
    4: CUBIC_SURF,
    5: LCI_SURF,
}


@contextmanager
def criterion(label, budget=None):
    t0 = time.monotonic()
    failed = False
    try:
        yield
    except BaseException:
        failed = True
        raise
    finally:
        dt = time.monotonic() - t0
        over = budget is not None and dt >= budget
        status = "FAIL" if (failed or over) else "PASS"
        print("ACCEPT %-3s %s (%.2fs%s)" % (label, status, dt,
                                            "" if budget is None else " / budget %ss" % budget))
    if budget is not None:
        assert dt < budget, "runtime %.2fs exceeds the %ss budget" % (dt, budget)


def test_criterion_1_curve_without_base_points():
    with criterion("1", budget=1.0):
        res = implicitize(CONIC, nu=1)
        assert unit_multiple_of(res.reduced, CONIC.ring.poly("T2^2 - T1*T3"))
        assert res.exponent == 1
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                bad = implicitize(CONIC, nu=CONIC.d - 2, allow_sub_bound=True)
                assert bad.degree != res.report.predicted_degree
            except (HypothesisViolation, ConsistencyError):
                pass  # rejected, as the statement allows


def test_criterion_2_curve_with_base_points():
    with criterion("2", budget=1.0):
        res = implicitize(CONIC_FAT, nu=2)
        assert res.minor_sizes == [3, 1]
        assert unit_multiple_of(res.reduced, CONIC_FAT.ring.poly("T1*T3 - T2^2"))
        assert res.exponent == 1


def test_criterion_3_quadric_surface():
    with criterion("3", budget=5.0):
        strand = z_strand(QUADRIC, 2)
        assert strand.dims == [6, 9, 4, 1]
        res = implicitize(QUADRIC, nu=2)
        plane = QUADRIC.ring.poly("T1 + T2 + T3 - T4")
        assert unit_multiple_of(res.determinant, plane**4)
        assert sorted(res.minor_sizes) == [1, 3, 6]
        cd = complex_determinant(z_strand(QUADRIC, 2))
        num_sizes = sorted(len(r) for (_, r, _, _, s) in cd.chain if s > 0)
        den_sizes = sorted(len(r) for (_, r, _, _, s) in cd.chain if s < 0)
        assert num_sizes == [1, 6] and den_sizes == [3]
        assert unit_multiple_of(res.reduced, plane)
        assert res.exponent == 4


def test_criterion_4_cubic_surface_needs_degree_four():
    with criterion("4", budget=30.0):
        res = implicitize(CUBIC_SURF, nu=4)
        assert res.degree == 9
        assert res.exponent == 1
        assert sorted(res.minor_sizes) == [3, 9, 15]
        assert res.verified
        for nu in range(4):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                try:
                    bad = implicitize(CUBIC_SURF, nu=nu, allow_sub_bound=True)
                    assert bad.degree != 9
                except (HypothesisViolation, ConsistencyError):
                    pass


def test_criterion_5_lci_surface():
    with criterion("5", budget=30.0):
        eq = LCI_SURF.ring.poly("T1*T2*T3 + T1*T2*T4 - T3*T4^2")
        res = implicitize(LCI_SURF, nu=4)
        assert unit_multiple_of(res.reduced, eq)
        assert res.exponent == 1
        rep = analyze(LCI_SURF, run_syzygetic=False)
        assert rep.e_total == 6 and rep.predicted_degree == 3
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            r3 = implicitize(LCI_SURF, nu=3, allow_sub_bound=True)
            assert unit_multiple_of(r3.reduced, eq)
            assert r3.minor_sizes == [10, 8, 1]
            r2 = implicitize(LCI_SURF, nu=2, allow_sub_bound=True)
            assert unit_multiple_of(r2.reduced, eq)
            assert [s for s in r2.minor_sizes if s] == [6, 3]


def test_criterion_6_degree_formula():
    with criterion("6"):
        nus = {1: 1, 2: 2, 3: 2, 4: 4, 5: 4}
        for k, param in EXAMPLES.items():
            rep = analyze(param, run_syzygetic=False)
            det = complex_determinant(z_strand(param, nus[k])).value
            assert det.total_degree() == param.d ** (param.n - 2) - rep.e_total
        squares = make_parameterization(QQ, ["X1", "X2"], ["X1^2", "X1^2", "X1^2"])
        rep = analyze(squares)
        assert rep.predicted_degree == 0 and rep.generically_finite is False
        with pytest.raises(HypothesisViolation, match="generically finite"):
            implicitize(squares)


def test_criterion_7_resultant_cross_checks():
    with criterion("7", budget=30.0):
        rng = random.Random(20020101)
        # det(Bez) = (-1)^(d(d-1)/2) Res, 50 pairs over each field
        for field in (QQ, GF(65521)):
            ring = Ring(field, ["X1", "X2"], ["T1", "T2", "T3"])
            for _ in range(50):
                d = rng.randint(1, 6)
                coeffs = [
                    [field.random(rng) for _ in range(d + 1)] for _ in range(2)
                ]
                if not (any(coeffs[0]) and any(coeffs[1])):
                    continue
                p, q = (BinaryForm(ring, c) for c in coeffs)
                sign = -1 if (d * (d - 1) // 2) % 2 else 1
                assert det_fraction_free(bezout_matrix(p, q)) == sylvester_resultant(p, q) * sign
        # Kravitsky at T3 = 1 vs Sylvester implicitization, 20 cubics
        field = GF(65521)
        done = 0
        while done < 20:
            texts = []
            for _ in range(3):
                coeffs = [field.random(rng) for _ in range(4)]
                if not any(coeffs):
                    break
                texts.append(
                    "+".join(
                        "%d*X1^%d*X2^%d" % (c, 3 - j, j)
                        for j, c in enumerate(coeffs)
                        if c
                    )
                )
            if len(texts) < 3:
                continue
            try:
                param = make_parameterization(field, ["X1", "X2"], texts)
                out = curve_implicitize_resultant(param)
            except HypothesisViolation:
                continue
            assert out.dehomogenized == sylvester_dehomogenized(param)
            done += 1
        # appendix specialization: det(w * Bez(X^d, Y^d)) = (-1)^(d(d-1)/2) w^d
        ring = Ring(QQ, ["X1", "X2"], ["T1", "T2", "T3"])
        for d in range(1, 6):
            p = binary_form(ring, ring.poly("X1^%d" % d))
            q = binary_form(ring, ring.poly("X2^%d" % d))
            bez = bezout_matrix(p, q)
            w = ring.poly("T3")
            from implicax.linalg import PolyMatrix

            scaled = PolyMatrix(
                ring, [[w * e for e in row] for row in bez.data], d
            )
            sign = -1 if (d * (d - 1) // 2) % 2 else 1
            assert det_fraction_free(scaled) == ring.poly("T3") ** d * sign


def test_criterion_8a_complete_intersection_passes():
    with criterion("8a", budget=10.0):
        ci = make_parameterization(QQ, ["X1", "X2", "X3"], ["X1^3", "X2^3", "X3^3"])
        report = syzygetic_test(ci, 2 * ci.d)
        assert report.verdict == "pass"


def test_criterion_8b_fat_point_fails_with_witness():
    with criterion("8b", budget=10.0):
        fat = make_parameterization(QQ, ["X1", "X2", "X3"], ["X1^2", "X1*X2", "X2^2"])
        report = syzygetic_test(fat, 4)
        assert report.verdict == "fail"
        ring = fat.ring
        wit = polys_to_vector(
            fat, 2, (ring.poly("X2^2"), ring.poly("-X1*X2"), ring.zero)
        )
        z1 = cycle_basis(fat, 1, 2)
        b1 = boundary_basis(fat, 2)
        ideal2 = ideal_piece(fat, 2)
        monos = ring.x_monomials(2)
        assert scalar_rank(QQ, z1 + [wit]) == len(z1)
        for j in range(3):
            block = wit[j * len(monos) : (j + 1) * len(monos)]
            if any(block):
                assert scalar_rank(QQ, ideal2 + [block]) == len(ideal2)
        assert scalar_rank(QQ, b1 + [wit]) == len(b1) + 1


@pytest.mark.xfail(
    strict=True,
    reason="the naive expectation that this example passes the Koszul-boundary"
    " comparison is false: B1 != Z1 cap TF(I).A^4 in degree 4, witnessed by"
    " (-X3*f2, 0, X3*f4 - X2*f1, 0) and verified over three fields; the"
    " classical equivalence needs as many generators as variables, which this"
    " 4-in-3 example violates.  See test_geometry for the positive statement.",
)
def test_criterion_8c_lci_surface_koszul_comparison():
    # kept strict so any behavior change surfaces: this records a genuine
    # counterexample, not a tolerance
    report = syzygetic_test(LCI_SURF, 2 * LCI_SURF.d)
    failing = [d.nu for d in report.degrees if not d.saturated_equal]
    print(
        "ACCEPT 8c  EXPECTED-FAIL (comparison provably fails at degrees %s; "
        "see the xfail reason)" % failing
    )
    assert report.verdict == "pass"


def test_criterion_9_property_suites():
    with criterion("9"):
        nus = {1: 1, 2: 2, 3: 2, 4: 4, 5: 4}
        # both differentials square to zero on every strand of examples 1-5
        for k, param in EXAMPLES.items():
            st = z_strand(param, nus[k])  # construction verifies d_T o d_T = 0
            from implicax.strands import koszul_differential_matrix

            for i in range(2, param.n + 1):
                low = koszul_differential_matrix(param, i - 1, nus[k] + param.d)
                high = koszul_differential_matrix(param, i, nus[k])
                for col in zip(*high):
                    assert all(sum(a * b for a, b in zip(row, col)) == 0 for row in low)
        # determinant seed-independence
        for k in (1, 2, 3, 4, 5):
            param, nu = EXAMPLES[k], nus[k]
            a = complex_determinant(z_strand(param, nu), seed=11).value
            b = complex_determinant(z_strand(param, nu), seed=20020101).value
            assert unit_multiple_of(a, b)
        # nu-stability at the bound and bound + 1 for examples 1, 3, 5
        for k in (1, 3, 5):
            param = EXAMPLES[k]
            bound = analyze(param, run_syzygetic=False).nu_bound
            a = complex_determinant(z_strand(param, bound)).value
            b = complex_determinant(z_strand(param, bound + 1)).value
            assert unit_multiple_of(a, b)
        # evaluation oracle for every computed equation
        for k, param in EXAMPLES.items():
            det = normalize(complex_determinant(z_strand(param, nus[k])).value)
            from implicax.arith import perfect_power_decompose

            reduced, _ = perfect_power_decompose(det)
            assert verify(reduced, param, trials=20)
        # det-complex vs gcd-of-minors on examples 1, 2, 5
        for k in (1, 2, 5):
            param, nu = EXAMPLES[k], nus[k]
            st = z_strand(param, nu)
            assert unit_multiple_of(
                gcd_of_maximal_minors(st, analyze(param).predicted_degree),
                complex_determinant(st).value,
            )
