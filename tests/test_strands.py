"""Koszul differentials, cycle/boundary bases, strand determinants."""

import dataclasses
import functools
import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest

from implicax import arith, cli, geometry, pipeline, resultants, strands
from implicax.arith import (
    GF,
    QQ,
    Poly,
    Ring,
    make_parameterization,
    multivariate_gcd,
    normalize,
    unit_multiple_of,
)
from implicax.errors import ConsistencyError, HypothesisViolation, ImplicaxError
from implicax.geometry import analyze_parameterization
from implicax.linalg import DEFAULT_SEED, det_fraction_free, scalar_rank
from implicax.problems import load_problem
from implicax.resultants import binary_form, kravitsky_pencil
from implicax.strands import (
    boundary_basis,
    check_rank_profile,
    complex_determinant,
    cycle_basis,
    gcd_of_maximal_minors,
    koszul_differential_matrix,
    z_strand,
)
from helpers import (
    count_cycle_kernels,
    dense_cubic,
    dense_quadric,
    over_field,
    polys_to_vector,
    subresultant_gcd,
    subresultant_gcd_many,
)
from test_geometry import PAIRWISE_SINGULAR, comparison_inputs, curve_inputs

PROBLEMS = Path(__file__).resolve().parents[1] / "problems"

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
    [
        "X1*X3^2",
        "X1*X2^2 + X2^2*X3",
        "X1^2*X2 + X1*X2*X3",
        "X1*X2*X3 + X2*X3^2",
    ],
)

LCI_EQUATION = "T1*T2*T3 + T1*T2*T4 - T3*T4^2"


def spans_equal(vectors_a, vectors_b, field):
    if not vectors_a and not vectors_b:
        return True
    ra = scalar_rank(field, vectors_a) if vectors_a else 0
    rb = scalar_rank(field, vectors_b) if vectors_b else 0
    rboth = scalar_rank(field, list(vectors_a) + list(vectors_b))
    return ra == rb == rboth


# ---------------------------------------------------------------------------
# differentials


def test_koszul_matrix_shape_and_rank():
    m = koszul_differential_matrix(CONIC, 1, 1)
    assert (len(m), len(m[0])) == (4, 6)
    assert scalar_rank(QQ, m) == 4


def test_koszul_composition_is_zero():
    for param, nu in ((CONIC, 1), (CONIC, 2), (QUADRIC, 2), (LCI_SURF, 3)):
        for i in range(2, param.n + 1):
            m_low = koszul_differential_matrix(param, i - 1, nu + param.d)
            m_high = koszul_differential_matrix(param, i, nu)
            prod = [[sum(a * b for a, b in zip(row, col)) for col in zip(*m_high)] for row in m_low]
            assert all(not x for row in prod for x in row)


def test_top_exterior_power_single_column():
    m = koszul_differential_matrix(CONIC, 3, 0)
    assert {len(row) for row in m} == {1}


# ---------------------------------------------------------------------------
# cycles and boundaries


def test_conic_linear_syzygies():
    vecs = cycle_basis(CONIC, 1, 1)
    assert len(vecs) == 2
    # expected span: (X2, -X1, 0) and (0, X2, -X1)
    expected = [
        polys_to_vector(CONIC, 1, (
            CONIC.ring.poly("X2"), CONIC.ring.poly("-X1"), CONIC.ring.zero)),
        polys_to_vector(CONIC, 1, (
            CONIC.ring.zero, CONIC.ring.poly("X2"), CONIC.ring.poly("-X1"))),
    ]
    assert spans_equal(vecs, expected, QQ)


def test_z2_vanishes_below_d_without_base_points():
    for nu in range(CONIC.d):
        assert cycle_basis(CONIC, 2, nu) == []


def test_quadric_z3_dimension_one():
    assert len(cycle_basis(QUADRIC, 3, 2)) == 1


def test_cycles_annihilate_f():
    ring = CONIC.ring
    for i, nu in ((1, 1), (1, 2), (2, 2)):
        vecs = cycle_basis(CONIC, i, nu)
        m = koszul_differential_matrix(CONIC, i, nu)
        for v in vecs:
            assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in m)


def test_boundary_basis_cases():
    assert boundary_basis(CONIC, 1) == []
    fat = make_parameterization(QQ, ["X1", "X2", "X3"], ["X1^2", "X1*X2", "X2^2"])
    basis = boundary_basis(fat, 2)
    assert len(basis) == 3
    ring = fat.ring
    expected = [
        polys_to_vector(fat, 2, (ring.poly("X1*X2"), ring.poly("-X1^2"), ring.zero)),
        polys_to_vector(fat, 2, (ring.poly("X2^2"), ring.zero, ring.poly("-X1^2"))),
        polys_to_vector(fat, 2, (ring.zero, ring.poly("X2^2"), ring.poly("-X1*X2"))),
    ]
    assert spans_equal(basis, expected, QQ)
    # boundaries are cycles in every degree
    for nu in (2, 3):
        z1 = cycle_basis(fat, 1, nu)
        b1 = boundary_basis(fat, nu)
        assert scalar_rank(QQ, z1 + b1) == len(z1)


# ---------------------------------------------------------------------------
# strands


def test_quadric_strand_dims_and_shapes():
    st = z_strand(QUADRIC, 2)
    assert st.dims == [6, 9, 4, 1]
    assert [(m.rows, m.cols) for m in st.maps] == [(6, 9), (9, 4), (4, 1)]


def test_conic_strand_is_square_moving_lines_matrix():
    st = z_strand(CONIC, 1)
    assert st.dims == [2, 2, 0]
    assert (st.maps[0].rows, st.maps[0].cols) == (2, 2)
    for m in st.maps:
        # linear forms in T: no constant part
        assert len(m.parts) == 4 and not any(map(any, m.parts[0]))


def test_strand_differentials_compose_to_zero():
    for param, nu in ((CONIC, 1), (CONIC, 2), (CONIC_FAT, 2), (QUADRIC, 2), (LCI_SURF, 4)):
        st = z_strand(param, nu)
        for i in range(len(st.maps) - 1):
            a, b = st.maps[i].data, st.maps[i + 1].data
            for row in a:
                for j in range(st.maps[i + 1].cols):
                    assert not sum((e * col[j] for e, col in zip(row, b)), param.ring.zero).terms


@pytest.mark.parametrize(
    "field, images",
    [(QQ, False), (GF(65521), False), (QQ, True), (GF(65521), True)],
    ids=["QQ", "GF", "QQ-images", "GF-images"],
)
def test_strand_check_rejects_a_contraction_that_leaves_the_cycle_space(monkeypatch, field, images):
    # one T-contraction coordinate moved by 1: the image is no longer the
    # combination of the cycle basis read off its free coordinates, and
    # z_strand refuses the strand; with Koszul images from Z_2 on, the link
    # from Z_2 into the kernel basis of Z_1 is still checked
    param = make_parameterization(field, ["X1", "X2", "X3"], ["X1^2", "X2^2", "X3^2", "X1^2+X2^2+X3^2"])
    report = analyze_parameterization(param) if images else None
    z_strand(param, 2, report)
    components = strands._dT_components

    def perturbed(*args):
        comps = components(*args)
        comps[0][0] += 1
        return comps

    monkeypatch.setattr(strands, "_dT_components", perturbed)
    with pytest.raises(ImplicaxError, match="strand grading error"):
        z_strand(param, 2, report)


def test_strand_over_prime_field():
    conic_p = make_parameterization(GF(65521), ["X1", "X2"], ["X1^2", "X1*X2", "X2^2"])
    st = z_strand(conic_p, 1)
    cd = complex_determinant(st)
    assert unit_multiple_of(cd.value, conic_p.ring.poly("T2^2 - T1*T3"))


# ---------------------------------------------------------------------------
# determinants


def test_conic_determinant():
    cd = complex_determinant(z_strand(CONIC, 1))
    assert unit_multiple_of(cd.value, CONIC.ring.poly("T2^2 - T1*T3"))


def test_quadric_determinant_and_minor_sizes():
    cd = complex_determinant(z_strand(QUADRIC, 2))
    ring = QUADRIC.ring
    assert unit_multiple_of(cd.value, ring.poly("T1+T2+T3-T4") ** 4)
    assert sorted(cd.minor_sizes()) == [1, 3, 6]


def test_lci_determinant():
    cd = complex_determinant(z_strand(LCI_SURF, 4))
    assert unit_multiple_of(cd.value, LCI_SURF.ring.poly(LCI_EQUATION))
    assert cd.minor_sizes() == [15, 15, 3]


def test_fat_conic_quotient():
    cd = complex_determinant(z_strand(CONIC_FAT, 2))
    assert cd.minor_sizes() == [3, 1]
    assert unit_multiple_of(cd.value, CONIC_FAT.ring.poly("T1*T3 - T2^2"))


def test_determinant_seed_independent_up_to_unit():
    a = complex_determinant(z_strand(CONIC_FAT, 2), seed=1)
    b = complex_determinant(z_strand(CONIC_FAT, 2), seed=987654321)
    assert unit_multiple_of(a.value, b.value)
    qa = complex_determinant(z_strand(QUADRIC, 2), seed=5)
    qb = complex_determinant(z_strand(QUADRIC, 2), seed=77)
    assert unit_multiple_of(qa.value, qb.value)


def test_determinant_chain_consistency():
    cd = complex_determinant(z_strand(QUADRIC, 2))
    num = QUADRIC.ring.one
    den = QUADRIC.ring.one
    for (_, _, _, det, sign) in cd.chain:
        if sign > 0:
            num = num * det
        else:
            den = den * det
    assert num == cd.value * den


def test_nu_stability():
    base = complex_determinant(z_strand(CONIC, 1)).value
    nxt = complex_determinant(z_strand(CONIC, 2)).value
    assert unit_multiple_of(base, nxt)


def test_evaluation_oracle_on_determinant():
    rng = random.Random(123)
    cd = complex_determinant(z_strand(QUADRIC, 2))
    names = QUADRIC.t_names()
    for _ in range(20):
        while True:
            pt = {nm: rng.randint(-9, 9) for nm in QUADRIC.ring.names[: QUADRIC.ring.nx]}
            vals = [p.evaluate(pt) for p in QUADRIC.polys]
            if any(v.terms for v in vals):
                break
        sub = {nm: v for nm, v in zip(names, vals)}
        assert cd.value.evaluate(sub).is_zero()


def test_rank_profile_violation_below_viable_degree():
    with pytest.raises(HypothesisViolation):
        complex_determinant(z_strand(CONIC, 0))
    with pytest.raises(HypothesisViolation):
        complex_determinant(z_strand(CUBIC_SURF, 3))


def test_inexact_chain_quotient_raises_after_one_chain(monkeypatch):
    def not_divisible(*args, **kwargs):
        raise strands.NotDivisibleError("forced")

    calls = []
    walk = strands.check_rank_profile

    def counted(*args):
        calls.append(1)
        return walk(*args)

    monkeypatch.setattr(strands, "exact_divide", not_divisible)
    monkeypatch.setattr(strands, "check_rank_profile", counted)
    with pytest.raises(HypothesisViolation, match="not exact"):
        complex_determinant(z_strand(QUADRIC, 2))
    assert len(calls) == 1


@pytest.mark.parametrize("seed", [DEFAULT_SEED, 1, 7])
def test_gcd_route_starts_at_the_chains_first_link(seed, monkeypatch):
    st = z_strand(QUADRIC, 2)
    first = complex_determinant(st, seed=seed).chain[0][3]
    dets = []
    det = strands.det_fraction_free

    def recorded(m):
        dets.append(det(m))
        return dets[-1]

    monkeypatch.setattr(strands, "det_fraction_free", recorded)
    gcd_of_maximal_minors(st, 4, seed=seed)
    assert dets[0] == first


def count_sampled_pivots(monkeypatch, short=False):
    """Count `_sampled_pivots` calls; with `short`, each draw loses a pivot."""
    calls = []
    sampled = strands._sampled_pivots

    def counted(m, rng, rows):
        calls.append(len(rows))
        cols = sampled(m, rng, rows)
        return cols[:-1] if short else cols

    monkeypatch.setattr(strands, "_sampled_pivots", counted)
    return calls


def test_chain_draws_once_per_nonempty_level(monkeypatch):
    # the chain's own draws prove the rank profile: no second sampler runs
    st = z_strand(CUBIC_SURF, 4)
    calls = count_sampled_pivots(monkeypatch)
    cd = complex_determinant(st)
    assert calls == [len(rows) for (_, rows, _, _, _) in cd.chain if rows] == [15, 9, 3]


def test_chain_short_of_full_rank_raises_after_profile_draws(monkeypatch):
    st = z_strand(CUBIC_SURF, 4)
    calls = count_sampled_pivots(monkeypatch, short=True)
    with pytest.raises(HypothesisViolation, match="rank profile"):
        complex_determinant(st)
    assert calls == [15] * strands._profile_draws(st)


# a dense quadric map over GF(101) whose 9 x 4 second map loses rank on the 3
# rows the chain leaves it at the first point that seed 35 draws
GF101_QUADRIC = make_parameterization(
    GF(101),
    ["X1", "X2", "X3"],
    [
        "4*X1^2 + 2*X2^2 + 3*X3^2 + 4*X1*X2 + 3*X1*X3 + 2*X2*X3",
        "4*X1^2 + 2*X2^2 + 2*X3^2 + 4*X1*X2 + 2*X1*X3 + 5*X2*X3",
        "3*X1^2 + 2*X2^2 + 2*X3^2 + 2*X1*X2 + 4*X1*X3 + 3*X2*X3",
        "X1^2 + X2^2 + 3*X3^2 + 2*X1*X2 + X1*X3 + 4*X2*X3",
    ],
)


def test_rank_profile_redraws_until_a_small_field_finds_the_rank(monkeypatch):
    st = z_strand(GF101_QUADRIC, 2)
    calls = count_sampled_pivots(monkeypatch)
    assert [len(cols) for _, cols in check_rank_profile(st, seed=35)] == [6, 3, 1]
    assert calls == [6, 3, 3, 1]
    routes = [
        pipeline.implicitize(GF101_QUADRIC, method=method, seed=35)
        for method in ("det-complex", "gcd-minors")
    ]
    assert routes[0].reduced == routes[1].reduced and routes[0].reduced.total_degree() == 4
    # sides 6, 4, 1 of 100 values: 10 draws make 6^10 + 4^10 + 1 <= 100^10 / 2^40
    assert strands._profile_draws(st) == 10


def test_rank_profile_draw_count_falls_back_to_two_without_a_bound():
    # over GF(3) the conic's 2 x 2 minor has degree 2, as many as the values drawn
    st = z_strand(make_parameterization(GF(3), ["X1", "X2"], ["X1^2", "X1*X2", "X2^2"]), 1)
    assert strands._profile_draws(st) == 2


def test_degenerate_parameterization_gives_degree_zero():
    # a map that is not generically finite: the strand is still exact and its
    # determinant is a unit (degree 0); rejecting such input is the analyze
    # gate's job, not the strand's
    squares = make_parameterization(QQ, ["X1", "X2"], ["X1^2", "X1^2", "X1^2"])
    cd = complex_determinant(z_strand(squares, 1))
    assert cd.value.total_degree() == 0


# ---------------------------------------------------------------------------
# gcd of maximal minors


def test_gcd_minors_square_case():
    st = z_strand(CONIC, 1)
    g = gcd_of_maximal_minors(st, analyze_parameterization(CONIC).predicted_degree)
    assert unit_multiple_of(g, CONIC.ring.poly("T2^2 - T1*T3"))


def test_gcd_minors_fat_conic():
    st = z_strand(CONIC_FAT, 2)
    g = gcd_of_maximal_minors(st, analyze_parameterization(CONIC_FAT).predicted_degree)
    assert unit_multiple_of(g, CONIC_FAT.ring.poly("T1*T3 - T2^2"))


def test_gcd_minors_matches_determinant_on_lci():
    st = z_strand(LCI_SURF, 4)
    g = gcd_of_maximal_minors(st, analyze_parameterization(LCI_SURF).predicted_degree)
    cd = complex_determinant(st)
    assert unit_multiple_of(g, cd.value)


def test_gcd_minors_matches_determinant_on_surfaces():
    for param, nu in ((QUADRIC, 2), (CUBIC_SURF, 4)):
        st = z_strand(param, nu)
        g = gcd_of_maximal_minors(st, analyze_parameterization(param).predicted_degree)
        assert unit_multiple_of(g, complex_determinant(st).value)


def test_degree_bookkeeping():
    for param, nu, expected in ((CONIC, 1, 2), (CONIC_FAT, 2, 2), (QUADRIC, 2, 4), (LCI_SURF, 4, 3)):
        cd = complex_determinant(z_strand(param, nu))
        total = 0
        for (_, rows, _, det, sign) in cd.chain:
            total += sign * det.total_degree()
        assert total == expected == cd.value.total_degree()


def _all_minors_gcd(st):
    m = st.maps[0]
    rows = range(m.rows)
    return subresultant_gcd_many(
        det_fraction_free(m.submatrix(rows, cols))
        for cols in itertools.combinations(range(m.cols), m.rows)
    )


@pytest.mark.parametrize(
    "param, nu",
    [
        (CONIC_FAT, 2),
        (QUADRIC, 2),
        (LCI_SURF, 2),
        (dense_quadric(QQ, 7), 2),
        (dense_quadric(GF(65521), 7), 2),
    ],
    ids=["conic_fat", "quadric", "lci", "dense_quadric_qq", "dense_quadric_gf"],
)
def test_gcd_minors_early_stop_keeps_the_answer(param, nu):
    st = z_strand(param, nu)
    full = _all_minors_gcd(st)
    degree = analyze_parameterization(param).predicted_degree
    for seed in (1, 2, 3):
        g = gcd_of_maximal_minors(st, degree, seed=seed)
        assert unit_multiple_of(g, full)


def test_gcd_minors_unreachable_target_folds_every_minor(monkeypatch):
    st = z_strand(QUADRIC, 2)
    g = gcd_of_maximal_minors(st, analyze_parameterization(QUADRIC).predicted_degree - 1)
    assert unit_multiple_of(g, QUADRIC.ring.poly("T1+T2+T3-T4") ** 4)
    # the pipeline's degree check still rejects a target the minors miss
    analyze = pipeline.analyze

    def low_target(param, run_syzygetic=None):
        report = analyze(param, run_syzygetic=run_syzygetic)
        return dataclasses.replace(report, predicted_degree=report.predicted_degree - 1)

    monkeypatch.setattr(pipeline, "analyze", low_target)
    with pytest.raises(ConsistencyError):
        pipeline.implicitize(QUADRIC, method="gcd-minors")


def test_gcd_minors_divisibility_skips_gcds(monkeypatch):
    calls = []

    def counted(a, b, degree, seed):
        calls.append(seed)
        return multivariate_gcd(a, b, degree, seed)

    monkeypatch.setattr(strands, "multivariate_gcd", counted)
    st = z_strand(QUADRIC, 2)
    # with this seed, a gcd per nonzero minor would take 5 calls
    g = gcd_of_maximal_minors(st, analyze_parameterization(QUADRIC).predicted_degree, seed=5)
    assert unit_multiple_of(g, QUADRIC.ring.poly("T1+T2+T3-T4") ** 4)
    assert len(calls) <= 3


# ---------------------------------------------------------------------------
# the kernel step of the minors fold: `arith.multivariate_gcd` at the
# predicted degree

PAIR_FIELDS = ("qq", "qq_fraction", "gf65521")
PAIR_CASES = ("coprime", "shared", "monomial", "common_monomial")


@functools.lru_cache(maxsize=None)
def seeded_pair(kind, case):
    """(a, b, gcd(a, b)) for seeded forms a = M_a*g*k1, b = M_b*g*k2 in T1..T4.

    "coprime": random cofactors; "shared": k1 and k2 share a quadric factor;
    "monomial": a carries T1^6 and b none; "common_monomial": a carries
    T1^3*T2 and b T1*T2^2.  The gcd is the reference `subresultant_gcd`'s.
    """
    field = GF(65521) if kind == "gf65521" else QQ
    ring = Ring(field, ["X1", "X2", "X3"], ["T1", "T2", "T3", "T4"])
    rng = random.Random("%s:%s" % (kind, case))

    def form(deg, nterms):
        monos = ring.monomials_of_degree(deg, ring.nx, ring.nv)
        while True:
            terms = {}
            for m in rng.sample(monos, min(nterms, len(monos))):
                c = rng.randint(-9, 9)
                terms[m] = Fraction(c, rng.randint(1, 4)) if kind == "qq_fraction" else c
            terms = field.reduce_terms(terms)
            if terms:
                return Poly(ring, terms)

    g = form(3, 5)
    k1, k2 = form(2, 6), form(3, 6)
    if case == "shared":
        h = form(2, 4)
        k1, k2 = h * k1, h * k2
    a, b = g * k1, g * k2
    if case == "monomial":
        a = a * ring.poly("T1^6")
    elif case == "common_monomial":
        a, b = a * ring.poly("T1^3*T2"), b * ring.poly("T1*T2^2")
    return a, b, subresultant_gcd(a, b)


@pytest.mark.parametrize("case", PAIR_CASES)
@pytest.mark.parametrize("kind", PAIR_FIELDS)
def test_gcd_pair_at_the_true_degree_reads_the_kernel(kind, case):
    a, b, full = seeded_pair(kind, case)
    g = multivariate_gcd(a, b, full.total_degree(), seed=1)
    assert unit_multiple_of(g, full)


@pytest.mark.parametrize("case", PAIR_CASES)
@pytest.mark.parametrize("kind", PAIR_FIELDS)
def test_gcd_pair_above_the_true_degree_raises(kind, case):
    a, b, full = seeded_pair(kind, case)
    degree = full.total_degree() + 1
    with pytest.raises(ConsistencyError, match="below the predicted degree %d" % degree):
        multivariate_gcd(a, b, degree, seed=1)


@pytest.mark.parametrize("below", [1, 2])
@pytest.mark.parametrize("case", PAIR_CASES)
@pytest.mark.parametrize("kind", PAIR_FIELDS)
def test_gcd_pair_below_the_true_degree_reads_the_degree_off_the_kernel(kind, case, below):
    a, b, full = seeded_pair(kind, case)
    g = multivariate_gcd(a, b, full.total_degree() - below, seed=1)
    assert unit_multiple_of(g, full)


@pytest.mark.parametrize("kind", PAIR_FIELDS)
def test_gcd_pair_with_a_monomial_factor_above_the_target_reads_the_kernel(kind):
    # the common T1^5 is above the target 4: the rest is read off at degree 0
    a, b, _ = seeded_pair(kind, "coprime")
    t1 = a.ring.poly("T1^5")
    expected = subresultant_gcd(a * t1, b * t1)
    g = multivariate_gcd(a * t1, b * t1, 4, seed=1)
    assert unit_multiple_of(g, expected)


@pytest.mark.parametrize(
    "name", ["dense_quadric_qq", "dense_quadric_gf", "surface_quadric", "surface_cubic"]
)
def test_gcd_minors_takes_every_gcd_from_the_kernel(name, monkeypatch):
    if name.startswith("dense_quadric"):
        param = dense_quadric(GF(65521) if name.endswith("gf") else QQ, 7)
    else:
        param = load_problem(PROBLEMS / (name + ".txt")).parameterization()
    report = analyze_parameterization(param)
    st = z_strand(param, report.nu0)
    expected = complex_determinant(st).value
    calls = []

    def counted(*args):
        calls.append(args)
        return multivariate_gcd(*args)

    monkeypatch.setattr(strands, "multivariate_gcd", counted)
    g = gcd_of_maximal_minors(st, report.predicted_degree)
    assert calls  # the fold took at least one gcd, so the pin bites
    assert unit_multiple_of(g, expected)


# ---------------------------------------------------------------------------
# Koszul-image bases where the Koszul homology provably vanishes

MAP_PROBLEMS = ("curve_conic", "curve_with_base_point", "surface_quadric", "surface_cubic", "surface_lci")
ROUTE_CASES = (
    MAP_PROBLEMS
    + tuple("comparison_%d" % k for k in range(len(list(comparison_inputs()))))
    + ("dense_quadric_1", "dense_quadric_2", "dense_quadric_3", "dense_cubic_1")
)


def route_case(name, field):
    """The named map, over its own field or, with field "GF65521", over GF(65521)."""
    if name in MAP_PROBLEMS:
        param = load_problem(PROBLEMS / (name + ".txt")).parameterization()
    elif name.startswith("comparison_"):
        param = list(comparison_inputs())[int(name.rpartition("_")[2])]
    else:
        dense = dense_cubic if name.startswith("dense_cubic") else dense_quadric
        param = dense(QQ, int(name.rpartition("_")[2]))
    return over_field(param, GF(65521)) if field == "GF65521" else param


def first_image_level(param, report, nu):
    """The first level z_strand builds from Koszul images; n when it builds none."""
    if report.base_locus_certificate in ("empty", "persistence") and nu < 2 * param.d:
        return max(2, strands._acyclic_above(param, report.base_locus_dim) + 1)
    return param.n


def takes_bezout_lines(param, report, nu):
    """Whether z_strand(param, nu, report) takes the Bezoutian lines as its
    (Z_1)_nu: a plane curve with an empty base locus, at nu = d - 1."""
    return param.ring.nx == 2 and report.base_locus_certificate == "empty" and nu == param.d - 1


def pencil_in_monomial_order(param):
    """The parts of the Kravitsky pencil with its rows read on the A_(d-1)
    monomials, X1^(d-1) first."""
    pencil = kravitsky_pencil(*[binary_form(param, f) for f in param.polys])
    return [part[::-1] for part in pencil.parts]


def outcome(route, *args):
    """route(*args), or the type of the ImplicaxError it raises."""
    try:
        return route(*args)
    except ImplicaxError as exc:
        return type(exc)


@pytest.mark.parametrize("field", ["native", "GF65521"])
@pytest.mark.parametrize("name", ROUTE_CASES)
def test_image_route_equals_the_kernel_route(name, field):
    param = route_case(name, field)
    report = analyze_parameterization(param)
    ring = param.ring
    signed = {ring.field.canon(1), ring.field.canon(-1)}
    # one degree more where nu0 leaves images only over A_0
    nus = [report.nu0] if report.nu0 > param.d else [report.nu0, report.nu0 + 1]
    strands_at = {}
    for nu in nus:
        kernels, images = strands_at[nu] = z_strand(param, nu), z_strand(param, nu, report)
        assert images.dims == kernels.dims
        for m in images.maps[first_image_level(param, report, nu) :]:
            # a map between two image levels: every entry is 0 or +-T_j
            assert not any(map(any, m.parts[0]))
            for r in range(m.rows):
                for s in range(m.cols):
                    entry = [part[r][s] for part in m.parts[1:] if part[r][s]]
                    assert len(entry) <= 1 and set(entry) <= signed
        answers = [outcome(complex_determinant, st) for st in (kernels, images)]
        answers = [a if isinstance(a, type) else normalize(a.value) for a in answers]
        assert answers[0] == answers[1]
    # the gcd-minors fold reads only maps[0] and the rank profile's first
    # link, so where those are equal its answers are; on a curve without
    # base points maps[0] is the pencil, and the folds are compared below
    kernels, images = strands_at[report.nu0]
    if takes_bezout_lines(param, report, report.nu0):
        assert images.maps[0].parts == pencil_in_monomial_order(param)
    else:
        assert images.maps[0].parts == kernels.maps[0].parts
    links = [outcome(check_rank_profile, st) for st in (kernels, images)]
    if isinstance(links[0], type):
        assert links[1] == links[0]
    else:
        assert links[1][0] == links[0][0]
        assert [len(c) for _, c in links[1]] == [len(c) for _, c in links[0]]
    # the fold itself runs on the shipped and dense maps; on the comparison
    # maps the equal first links stand for it
    if report.predicted_degree and not name.startswith("comparison_"):
        gcds = [outcome(gcd_of_maximal_minors, st, report.predicted_degree) for st in (kernels, images)]
        assert gcds[0] == gcds[1]


def test_bezoutian_basis_equals_the_kernel_route():
    # on a curve without base points (Z_1)_(d-1) is the d Bezoutian lines,
    # so maps[0] is the pencil; the normalized determinant is the kernel
    # route's, and the methods agree (the resultant only without base points)
    lines = 0
    for param in curve_inputs():
        report = analyze_parameterization(param)
        nu = param.d - 1
        routed = z_strand(param, nu, report)
        if takes_bezout_lines(param, report, nu):
            assert routed.maps[0].parts == pencil_in_monomial_order(param)
            lines += 1
        answers = [outcome(complex_determinant, st) for st in (z_strand(param, nu), routed)]
        answers = [a if isinstance(a, type) else normalize(a.value) for a in answers]
        assert answers[0] == answers[1]
        methods = ("det-complex", "gcd-minors", "resultant")
        results = [outcome(pipeline.implicitize, param, None, m) for m in methods]
        results = [r if isinstance(r, type) else (r.reduced, r.exponent) for r in results]
        if report.base_locus_certificate != "empty":
            results.pop()
        assert results == [results[0]] * len(results)
    # every curve with an empty base locus; PAIRWISE_SINGULAR among them
    assert lines == 25
    report = analyze_parameterization(PAIRWISE_SINGULAR)
    assert not geometry._coprime_pair(PAIRWISE_SINGULAR)
    assert report.base_locus_certificate == "empty" and report._koszul_reduction is not None


def perturbed_bezoutian(p, q, _inner=resultants._bezoutian):
    """Cayley's closed form with entry [0][0] off by one."""
    rows = _inner(p, q)
    rows[0][0] = p.ring.field.canon(rows[0][0] + 1)
    return rows


@pytest.mark.parametrize("field", [QQ, GF(65521)])
def test_a_perturbed_bezoutian_fails_the_syzygy_check(field, monkeypatch):
    param = over_field(CONIC, field)
    report = analyze_parameterization(param)
    monkeypatch.setattr(resultants, "_bezoutian", perturbed_bezoutian)
    with pytest.raises(ConsistencyError, match="A\\*v = 0"):
        z_strand(param, param.d - 1, report)
    with pytest.raises(ConsistencyError, match="A\\*v = 0"):
        pipeline.implicitize(param)


def test_a_perturbed_bezoutian_exits_four_on_the_cli(monkeypatch, capsys):
    monkeypatch.setattr(resultants, "_bezoutian", perturbed_bezoutian)
    assert cli.main(["implicitize", str(PROBLEMS / "curve_conic.txt")]) == 4
    assert "A*v = 0" in capsys.readouterr().err


def test_a_false_empty_claim_on_a_curve_is_refused_by_the_rank_profile(monkeypatch):
    # the forms share X1, so the Bezoutian lines pass the syzygy check but
    # the pencil is singular, and the rank profile refuses the strand
    param = load_problem(PROBLEMS / "curve_with_base_point.txt").parameterization()
    report = analyze_parameterization(param)
    nu = param.d - 1
    false = dataclasses.replace(report, base_locus_dim=-1, base_locus_certificate="empty", nu0=nu)
    assert false._koszul_reduction[0] == nu
    st = z_strand(param, nu, false)
    assert st.maps[0].parts == pencil_in_monomial_order(param)
    with pytest.raises(HypothesisViolation, match="rank profile"):
        check_rank_profile(st)
    monkeypatch.setattr(pipeline, "analyze", lambda param, run_syzygetic=None: false)
    for method in ("det-complex", "gcd-minors"):
        with pytest.raises(HypothesisViolation, match="rank profile"):
            pipeline.implicitize(param, method=method)


def test_image_levels_of_the_cubic_are_signed_contractions():
    # Z_2 and Z_3 of surface_cubic at nu = 4 are the images of the exterior
    # powers 3 and 4 over A_1: the map Z_3 -> Z_2 is minus the contraction
    # of e_1234 * m, four signed T's per column, one per row
    report = analyze_parameterization(CUBIC_SURF)
    st = z_strand(CUBIC_SURF, 4, report)
    assert st.dims == [15, 24, 12, 3]
    m = st.maps[2]
    entries = [[[j for j, part in enumerate(m.parts) if part[r][s]] for s in range(3)] for r in range(12)]
    assert all(sum(map(len, row)) == 1 for row in entries)
    assert all(sorted(j for row in entries for j in row[s]) == [1, 2, 3, 4] for s in range(3))


def test_a_false_empty_locus_claim_is_refused_by_the_rank_profile(monkeypatch):
    # surface_lci has base points, so H_2 does not vanish; a report that
    # claims an empty base locus makes Z_2 the (empty) Koszul images, and the
    # rank profile refuses the strand instead of an answer coming out
    report = analyze_parameterization(LCI_SURF)
    false = dataclasses.replace(report, base_locus_dim=-1, base_locus_certificate="empty")
    st = z_strand(LCI_SURF, report.nu0, false)
    assert st.dims == [6, 9, 0, 0]
    with pytest.raises(HypothesisViolation, match=r"rank profile \[6, 0\] .* dims \[6, 9, 0, 0\]"):
        check_rank_profile(st)
    monkeypatch.setattr(pipeline, "analyze", lambda param, run_syzygetic=None: false)
    for method in ("det-complex", "gcd-minors"):
        with pytest.raises(HypothesisViolation, match="rank profile"):
            pipeline.implicitize(LCI_SURF, method=method)


@pytest.mark.parametrize("variant", ["window", "nu_at_2d", "no_report"])
def test_unproven_hypotheses_keep_a_kernel_at_every_level(variant, monkeypatch):
    report = analyze_parameterization(QUADRIC)
    nu = 2 * QUADRIC.d if variant == "nu_at_2d" else report.nu0
    if variant == "window":
        report = dataclasses.replace(report, base_locus_dim=1)
    elif variant == "no_report":
        report = None
    kernels = z_strand(QUADRIC, nu)
    calls = count_cycle_kernels(monkeypatch)
    st = z_strand(QUADRIC, nu, report)
    assert calls == [1, 2, 3]
    assert st.dims == kernels.dims
    assert [m.parts for m in st.maps] == [m.parts for m in kernels.maps]
    if variant == "nu_at_2d":
        # the images are dependent there: C(4, 3) * |A_2| of them in Z_2
        assert 4 * 6 > st.dims[2]
