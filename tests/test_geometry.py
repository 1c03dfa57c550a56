"""Hilbert values, base locus profiles, saturation, Koszul-syzygy tests."""

import random
from pathlib import Path

import pytest

from implicax.arith import (
    GF,
    QQ,
    Parameterization,
    Ring,
    make_parameterization,
    unit_multiple_of,
)
from implicax import geometry
from implicax.errors import ConsistencyError, HypothesisViolation
from implicax.geometry import (
    analyze_parameterization,
    base_locus_profile,
    hilbert_value,
    ideal_piece,
    nu_bound,
    predicted_degree,
    saturation_piece,
    syzygetic_test,
)
from implicax.linalg import scalar_rank
from implicax.problems import load_problem
from implicax.strands import boundary_basis, cycle_basis
from helpers import polys_to_vector

CONIC = make_parameterization(QQ, ["X1", "X2"], ["X1^2", "X1*X2", "X2^2"])
CONIC_FAT = make_parameterization(QQ, ["X1", "X2"], ["X1^3", "X1^2*X2", "X1*X2^2"])
SQUARES = make_parameterization(QQ, ["X1", "X2"], ["X1^2", "X1^2", "X1^2"])
FAT_POINT3 = make_parameterization(QQ, ["X1", "X2", "X3"], ["X1^2", "X1*X2", "X2^2"])
LCI_SURF = make_parameterization(
    QQ,
    ["X1", "X2", "X3"],
    ["X1*X3^2", "X1*X2^2 + X2^2*X3", "X1^2*X2 + X1*X2*X3", "X1*X2*X3 + X2*X3^2"],
)
POSITIVE_DIM = make_parameterization(
    QQ, ["X1", "X2", "X3"], ["X1*X2", "X1*X2", "X1*X2", "X1*X2"]
)
# (X1^3, X2^3): nine base points, more than t = 7, so only the window decides
NINE_POINTS = make_parameterization(
    QQ, ["X1", "X2", "X3"], ["X1^3", "X2^3", "X1^3", "X2^3"]
)
PROBLEMS = Path(__file__).resolve().parents[1] / "problems"
# every shipped map; bezout_squares.txt holds two forms for the resultant commands
SHIPPED = [
    PROBLEMS / name
    for name in (
        "curve_conic.txt",
        "curve_conic.json",
        "curve_with_base_point.txt",
        "surface_quadric.txt",
        "surface_cubic.txt",
        "surface_lci.txt",
    )
]


# ---------------------------------------------------------------------------
# hilbert values and profiles


def test_hilbert_conic():
    assert hilbert_value(CONIC, 2) == 0
    assert hilbert_value(CONIC, 0) == 1
    assert hilbert_value(CONIC, 1) == 2


def test_hilbert_binomial_identity():
    from math import comb

    from implicax.strands import koszul_differential_matrix

    for param in (CONIC_FAT, LCI_SURF, FAT_POINT3):
        nx = param.ring.nx
        for nu in range(param.d, param.d + 3):
            rank = scalar_rank(
                QQ, koszul_differential_matrix(param, 1, nu - param.d).data
            )
            assert hilbert_value(param, nu) == comb(nu + nx - 1, nx - 1) - rank


def test_hilbert_fat_conic_stabilizes_at_one():
    for nu in range(3, 10):
        assert hilbert_value(CONIC_FAT, nu) == 1


def test_hilbert_lci_surface_six_points():
    for nu in range(7, 12):
        assert hilbert_value(LCI_SURF, nu) == 6


def test_profile_empty():
    assert base_locus_profile(CONIC) == (-1, 0)


def test_profile_single_point():
    assert base_locus_profile(CONIC_FAT) == (0, 1)


def test_profile_squares():
    assert base_locus_profile(SQUARES) == (0, 2)


def test_profile_positive_dimensional():
    # one polynomial repeated in three variables: V(I) is a curve in P^2
    dim, e = base_locus_profile(POSITIVE_DIM)
    assert dim == 1 and e is None


def window_profile(param):
    """The profile read over the full window of max(n, d) + 1 Hilbert values."""
    t = param.ring.nx * (param.d - 1) + 1
    values = [hilbert_value(param, nu) for nu in range(t, t + max(param.n, param.d) + 1)]
    if all(v == 0 for v in values):
        return -1, 0
    if all(v == values[0] for v in values):
        return 0, values[0]
    return 1, None


def random_curve(field, d, rng, root):
    """Three dense random binary forms of degree d; with `root`, all three
    vanish at one random point of P^1 (a common linear factor, in two
    variables), to a random multiplicity."""
    ring = Ring(field, ("X1", "X2"), ("T1", "T2", "T3"))
    mult = rng.randint(1, d) if root else 0
    factor = ring.poly("X1 - %d*X2" % rng.randint(1, 9)) ** mult
    monos = ["X1^%d*X2^%d" % (d - mult - j, j) for j in range(d - mult + 1)]
    forms = [
        " ".join("%+d*%s" % (rng.randint(-9, 9) or 1, m) for m in monos) for _ in range(3)
    ]
    return Parameterization(ring, [factor * ring.poly(form) for form in forms])


def random_curves():
    rng = random.Random("certified-profile")
    for field in (QQ, GF(65521)):
        for d in range(2, 7):
            for root in (False, True):
                for _ in range(2):
                    yield random_curve(field, d, rng, root)


def count_hilbert_calls(monkeypatch):
    calls = []

    def counted(param, nu, _inner=geometry.hilbert_value):
        calls.append(nu)
        return _inner(param, nu)

    monkeypatch.setattr(geometry, "hilbert_value", counted)
    return calls


@pytest.mark.parametrize("path", SHIPPED, ids=lambda path: path.name)
def test_certified_profile_equals_window_on_shipped_problems(path):
    param = load_problem(path).parameterization()
    assert base_locus_profile(param) == window_profile(param)


def test_certified_profile_equals_window_on_examples():
    for param in (CONIC, CONIC_FAT, SQUARES, LCI_SURF, POSITIVE_DIM, NINE_POINTS):
        assert base_locus_profile(param) == window_profile(param)
    assert base_locus_profile(NINE_POINTS) == (0, 9)


def test_certified_profile_equals_window_on_random_curves():
    seen = set()
    for param in random_curves():
        profile = base_locus_profile(param)
        assert profile == window_profile(param)
        seen.add(profile[0])
    assert seen == {-1, 0}


def test_certified_profile_reads_one_value_without_base_points(monkeypatch):
    rng = random.Random("dense-curves")
    dense = [random_curve(field, d, rng, False) for field in (QQ, GF(65521)) for d in (6, 8, 10)]
    calls = count_hilbert_calls(monkeypatch)
    for param in [CONIC] + dense:
        del calls[:]
        assert base_locus_profile(param) == (-1, 0)
        assert calls == [(param.n - 1) * (param.d - 1) + 1]


def test_certified_profile_reads_two_values_at_finite_base_loci(monkeypatch):
    calls = count_hilbert_calls(monkeypatch)
    for param, e in ((CONIC_FAT, 1), (LCI_SURF, 6)):
        del calls[:]
        assert base_locus_profile(param) == (0, e)
        t = (param.n - 1) * (param.d - 1) + 1
        assert calls == [t, t + 1]


def test_report_names_the_certificate_and_the_values_read():
    cases = (
        (CONIC, "empty", {3: 0}),
        (CONIC_FAT, "persistence", {5: 1, 6: 1}),
        (LCI_SURF, "persistence", {7: 6, 8: 6}),
        (NINE_POINTS, "window", {nu: 9 for nu in range(7, 12)}),
    )
    for param, certificate, values in cases:
        rep = analyze_parameterization(param, run_syzygetic=False)
        assert rep.base_locus_certificate == certificate
        assert rep.hilbert_values == values
        out = rep.to_dict()
        assert out["base_locus_certificate"] == certificate
        assert out["hilbert_values"] == {str(nu): h for nu, h in values.items()}
    rep = analyze_parameterization(POSITIVE_DIM, run_syzygetic=False)
    assert rep.base_locus_certificate == "window" and len(rep.hilbert_values) == 2


def test_profile_reads_from_nx_d_minus_1_plus_1_off_a_map():
    # three cubes in three variables: H(5) = 3, H(6) = 1, H(7) = 0, so the
    # base locus is empty, read at t = nx(d-1)+1 = 7 (not (n-1)(d-1)+1 = 5)
    cubes = make_parameterization(QQ, ["X1", "X2", "X3"], ["X1^3", "X2^3", "X3^3"])
    assert [hilbert_value(cubes, nu) for nu in (5, 6, 7)] == [3, 1, 0]
    assert geometry._certified_profile(cubes) == (-1, 0, "empty", {7: 0})
    assert base_locus_profile(cubes) == window_profile(cubes) == (-1, 0)
    rep = analyze_parameterization(cubes, run_syzygetic=False)
    assert (rep.base_locus_dim, rep.e_total, rep.hilbert_values) == (-1, 0, {7: 0})


# ---------------------------------------------------------------------------
# predicted degree


def test_predicted_degree_examples():
    assert predicted_degree(CONIC) == 2
    assert predicted_degree(LCI_SURF) == 9 - 6 == 3
    assert predicted_degree(SQUARES) == 0
    assert predicted_degree(CONIC_FAT) == 2


def test_predicted_degree_positive_dim_errors():
    with pytest.raises(HypothesisViolation):
        predicted_degree(POSITIVE_DIM)


def test_nu_bound():
    assert nu_bound(3, 2) == 1
    assert nu_bound(4, 2) == 2
    assert nu_bound(4, 3) == 4
    assert nu_bound(3, 1) == 0


# ---------------------------------------------------------------------------
# saturation pieces


def rows_span_equal(a, b, field=QQ):
    if not a and not b:
        return True
    ra = scalar_rank(field, a) if a else 0
    rb = scalar_rank(field, b) if b else 0
    return ra == rb == scalar_rank(field, list(a) + list(b))


def test_saturated_ideal_piece_matches_ideal():
    # (X1, X2)^2 in three variables is saturated
    sat = saturation_piece(FAT_POINT3, 2)
    ideal = ideal_piece(FAT_POINT3, 2)
    assert rows_span_equal(sat, ideal)


def test_saturation_equals_ideal_in_high_degree():
    for nu in (6, 7):
        assert rows_span_equal(
            saturation_piece(CONIC_FAT, nu), ideal_piece(CONIC_FAT, nu)
        )


def test_saturation_picks_up_removable_factor():
    # X1 * (X1,X2)^2: X1 itself is in the saturation in degree 1
    sat = saturation_piece(CONIC_FAT, 1)
    ring = CONIC_FAT.ring
    monos = ring.x_monomials(1)
    x1_vec = [0] * len(monos)
    x1_vec[monos.index(ring.poly("X1").leading()[0])] = 1
    assert rows_span_equal(sat + [x1_vec], sat)


@pytest.mark.parametrize(
    "name, dims",
    [
        # no base points: I^sat = A in every degree
        ("surface_quadric", [1, 3, 6, 10, 15, 21, 28]),
        ("surface_cubic", [1, 3, 6, 10, 15, 21, 28]),
        ("surface_lci", [0, 0, 1, 4, 9, 15, 22]),
    ],
)
def test_saturation_piece_dimensions(name, dims):
    param = load_problem(PROBLEMS / (name + ".txt")).parameterization()
    assert [len(saturation_piece(param, nu)) for nu in range(7)] == dims


def test_saturation_of_a_primary_ideal_is_everything():
    # three cubes in three variables: (X1^3, X2^3, X3^3) is primary to the
    # maximal ideal, and its socle sits in degree 6 = nx(d-1)
    ci = make_parameterization(QQ, ["X1", "X2", "X3"], ["X1^3", "X2^3", "X3^3"])
    dims = [len(saturation_piece(ci, nu)) for nu in range(8)]
    assert dims == [len(ci.ring.x_monomials(nu)) for nu in range(8)]


def test_saturation_contains_ideal():
    for param, nu in ((CONIC_FAT, 3), (LCI_SURF, 3), (FAT_POINT3, 2)):
        sat = saturation_piece(param, nu)
        ideal = ideal_piece(param, nu)
        if not ideal:
            continue
        assert scalar_rank(QQ, sat + ideal) == len(sat)


# ---------------------------------------------------------------------------
# syzygetic tests


def test_complete_intersection_passes():
    ci = make_parameterization(QQ, ["X1", "X2", "X3"], ["X1^3", "X2^3", "X3^3"])
    report = syzygetic_test(ci, 2 * ci.d)
    assert report.verdict == "pass"
    assert report.plain_verdict == "pass"


def test_fat_point_fails_with_witness():
    report = syzygetic_test(FAT_POINT3, 4)
    assert report.verdict == "fail"
    assert report.witness is not None
    nu, polys = report.witness
    assert nu == 2
    # the documented witness is itself in the intersection but not in B_1
    ring = FAT_POINT3.ring
    wit = polys_to_vector(
        FAT_POINT3, 2, (ring.poly("X2^2"), ring.poly("-X1*X2"), ring.zero)
    )
    z1 = cycle_basis(FAT_POINT3, 1, 2)
    b1 = boundary_basis(FAT_POINT3, 2)
    assert scalar_rank(QQ, z1 + [wit]) == len(z1)  # wit is a syzygy
    ideal2 = ideal_piece(FAT_POINT3, 2)
    monos = FAT_POINT3.ring.x_monomials(2)
    for j in range(3):
        block = wit[j * len(monos) : (j + 1) * len(monos)]
        if any(block):
            assert scalar_rank(QQ, ideal2 + [block]) == len(ideal2)
    assert scalar_rank(QQ, b1 + [wit]) == len(b1) + 1  # wit is not a boundary


def test_lci_surface_fails_exactly_in_degree_four():
    # With four generators in three variables the boundary comparison is not
    # covered by the three-generator equivalence, and it genuinely fails here:
    # v = (-X3*f2, 0, X3*f4 - X2*f1, 0) is a syzygy with components in I_4
    # that is not a combination of multiples of the Koszul syzygies.
    report = syzygetic_test(LCI_SURF, 2 * LCI_SURF.d)
    assert report.verdict == "fail"
    bad = [d.nu for d in report.degrees if not d.saturated_equal]
    assert bad == [4]
    ring = LCI_SURF.ring
    f1, f2, f3, f4 = LCI_SURF.polys
    x2, x3 = ring.poly("X2"), ring.poly("X3")
    v = (-(x3 * f2), ring.zero, x3 * f4 - x2 * f1, ring.zero)
    assert sum((vi * fi for vi, fi in zip(v, LCI_SURF.polys)), ring.zero).is_zero()
    vec = polys_to_vector(LCI_SURF, 4, v)
    z1 = cycle_basis(LCI_SURF, 1, 4)
    b1 = boundary_basis(LCI_SURF, 4)
    ideal4 = ideal_piece(LCI_SURF, 4)
    monos = ring.x_monomials(4)
    assert scalar_rank(QQ, z1 + [vec]) == len(z1)
    for j in range(4):
        block = vec[j * len(monos) : (j + 1) * len(monos)]
        if any(block):
            assert scalar_rank(QQ, ideal4 + [block]) == len(ideal4)
    assert scalar_rank(QQ, b1 + [vec]) == len(b1) + 1


def test_failure_persists_for_larger_numax():
    r4 = syzygetic_test(FAT_POINT3, 4)
    r5 = syzygetic_test(FAT_POINT3, 5)
    assert r4.verdict == r5.verdict == "fail"
    bad4 = [d.nu for d in r4.degrees if not d.saturated_equal]
    bad5 = [d.nu for d in r5.degrees if not d.saturated_equal]
    assert set(bad4) <= set(bad5)


# ---------------------------------------------------------------------------
# analyze


def test_analyze_conic():
    rep = analyze_parameterization(CONIC)
    assert rep.base_locus_dim == -1
    assert rep.e_total == 0
    assert rep.predicted_degree == 2
    assert rep.nu_bound == 1
    assert rep.generically_finite


def test_analyze_lci():
    rep = analyze_parameterization(LCI_SURF)
    assert rep.base_locus_dim == 0
    assert rep.e_total == 6
    assert rep.predicted_degree == 3
    assert rep.nu_bound == 4
    assert rep.syzygetic is not None and rep.syzygetic.verdict == "fail"


def test_analyze_degenerate():
    rep = analyze_parameterization(SQUARES)
    assert rep.predicted_degree == 0
    assert rep.generically_finite is False
    assert unit_multiple_of(rep.content_gcd, SQUARES.ring.poly("X1^2"))


def test_boundary_outside_saturated_intersection_raises(monkeypatch):
    # an empty saturation piece leaves no syzygy for the boundaries to sit in
    monkeypatch.setattr(geometry, "saturation_piece", lambda param, nu: [])
    with pytest.raises(ConsistencyError):
        syzygetic_test(CONIC_FAT, nu_max=3)


def test_boundary_outside_plain_intersection_raises(monkeypatch):
    monkeypatch.setattr(geometry, "saturation_piece", ideal_piece)
    monkeypatch.setattr(geometry, "ideal_piece", lambda param, nu: [])
    with pytest.raises(ConsistencyError):
        syzygetic_test(CONIC_FAT, nu_max=3)
