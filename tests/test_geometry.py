"""Hilbert values, base locus profiles, saturation, Koszul-syzygy tests."""

import dataclasses
import random
from pathlib import Path

import pytest

from implicax.arith import (
    GF,
    QQ,
    Parameterization,
    Poly,
    Ring,
    make_parameterization,
    unit_multiple_of,
)
from implicax import geometry, strands
from implicax.errors import ConsistencyError
from implicax.geometry import (
    _certified_profile,
    analyze_parameterization,
    hilbert_value,
    ideal_piece,
    nu_bound,
    saturation_piece,
    syzygetic_test,
)
from implicax.linalg import scalar_rank
from implicax.problems import load_problem
from implicax.strands import boundary_basis, cycle_basis, z_strand
from helpers import (
    dense_cubic,
    dense_curve_text,
    dense_quadric,
    intersection_triples,
    one_shift_saturation,
    over_field,
    polys_to_vector,
    random_nonzero,
    seeded_surfaces,
    subresultant_gcd_many,
)

CONIC = make_parameterization(QQ, ["X1", "X2"], ["X1^2", "X1*X2", "X2^2"])
CONIC_FAT = make_parameterization(QQ, ["X1", "X2"], ["X1^3", "X1^2*X2", "X1*X2^2"])
SQUARES = make_parameterization(QQ, ["X1", "X2"], ["X1^2", "X1^2", "X1^2"])
FAT_POINT3 = make_parameterization(QQ, ["X1", "X2", "X3"], ["X1^2", "X1*X2", "X2^2"])
LCI_SURF = make_parameterization(
    QQ,
    ["X1", "X2", "X3"],
    ["X1*X3^2", "X1*X2^2 + X2^2*X3", "X1^2*X2 + X1*X2*X3", "X1*X2*X3 + X2*X3^2"],
)
LCI_SURF_GF101 = make_parameterization(
    GF(101),
    ["X1", "X2", "X3"],
    ["X1*X3^2", "X1*X2^2 + 7*X2^2*X3", "X1^2*X2 + 50*X1*X2*X3", "X1*X2*X3 + 100*X2*X3^2"],
)
POSITIVE_DIM = make_parameterization(
    QQ, ["X1", "X2", "X3"], ["X1*X2", "X1*X2", "X1*X2", "X1*X2"]
)
# cube ideals: primary to the maximal ideal over QQ and GF(101), and with a
# fourth generator
CUBES = [
    make_parameterization(field, ["X1", "X2", "X3"], ["X1^3", "X2^3", "X3^3"] + extra)
    for field, extra in ((QQ, []), (GF(101), []), (QQ, ["X1*X2*X3"]))
]
# (X1^3, X2^3): nine base points, more than t = 7, so persistence is read at
# t' = 9 and 10 after the plateau at t = 7 and 8
NINE_POINTS = make_parameterization(
    QQ, ["X1", "X2", "X3"], ["X1^3", "X2^3", "X1^3", "X2^3"]
)
# five forms in three variables: an empty base locus, but n = nx + 2, so
# H_2(f; A) need not vanish
FIVE_FORMS = make_parameterization(
    QQ, ["X1", "X2", "X3"], ["X1^2", "X2^2", "X3^2", "X1*X2", "X1*X3"]
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
    # H(nu) = C(nu + nx - 1, nx - 1) - rank of multiplication by f, from degree
    # 0 through t + 1, the degrees the base-locus profile reads first
    from math import comb

    from implicax.strands import koszul_differential_matrix

    for param in (CONIC_FAT, LCI_SURF, FAT_POINT3, LCI_SURF_GF101):
        nx = param.ring.nx
        t = nx * (param.d - 1) + 1
        for nu in range(t + 2):
            rank = 0
            if nu >= param.d:
                mult = koszul_differential_matrix(param, 1, nu - param.d)
                rank = scalar_rank(param.ring.field, mult)
            assert hilbert_value(param, nu) == comb(nu + nx - 1, nx - 1) - rank


def test_hilbert_fat_conic_stabilizes_at_one():
    for nu in range(3, 10):
        assert hilbert_value(CONIC_FAT, nu) == 1


def test_hilbert_lci_surface_six_points():
    for nu in range(7, 12):
        assert hilbert_value(LCI_SURF, nu) == 6


def test_profile_empty():
    assert _certified_profile(CONIC)[:2] == (-1, 0)


def test_profile_single_point():
    assert _certified_profile(CONIC_FAT)[:2] == (0, 1)


def test_profile_squares():
    assert _certified_profile(SQUARES)[:2] == (0, 2)


def test_profile_positive_dimensional():
    # one polynomial repeated in three variables: V(I) is a curve in P^2
    dim, e = _certified_profile(POSITIVE_DIM)[:2]
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

    def counted(param, nu, pieces=None, _inner=geometry.hilbert_value):
        calls.append(nu)
        return _inner(param, nu, pieces)

    monkeypatch.setattr(geometry, "hilbert_value", counted)
    return calls


@pytest.mark.parametrize("path", SHIPPED, ids=lambda path: path.name)
def test_certified_profile_equals_window_on_shipped_problems(path):
    param = load_problem(path).parameterization()
    assert _certified_profile(param)[:2] == window_profile(param)


def test_certified_profile_equals_window_on_examples():
    for param in (CONIC, CONIC_FAT, SQUARES, LCI_SURF, POSITIVE_DIM, NINE_POINTS):
        assert _certified_profile(param)[:2] == window_profile(param)
    assert _certified_profile(NINE_POINTS)[:2] == (0, 9)


def test_certified_profile_equals_window_on_random_curves():
    seen = set()
    for param in random_curves():
        profile = _certified_profile(param)[:2]
        assert profile == window_profile(param)
        seen.add(profile[0])
    assert seen == {-1, 0}


def test_certified_profile_reads_one_value_without_base_points(monkeypatch):
    rng = random.Random("dense-curves")
    dense = [random_curve(field, d, rng, False) for field in (QQ, GF(65521)) for d in (6, 8, 10)]
    calls = count_hilbert_calls(monkeypatch)
    for param in [CONIC] + dense:
        del calls[:]
        assert _certified_profile(param)[:2] == (-1, 0)
        assert calls == [(param.n - 1) * (param.d - 1) + 1]


def test_certified_profile_reads_two_values_at_finite_base_loci(monkeypatch):
    calls = count_hilbert_calls(monkeypatch)
    for param, e in ((CONIC_FAT, 1), (LCI_SURF, 6)):
        del calls[:]
        assert _certified_profile(param)[:2] == (0, e)
        t = (param.n - 1) * (param.d - 1) + 1
        assert calls == [t, t + 1]


def scripted_profile(monkeypatch, script):
    """`_certified_profile(LCI_SURF)` with H(nu) = script(nu, t), t = 7, and
    the degrees it read, in order."""
    t = geometry._regularity_bound(LCI_SURF)
    calls = []

    def scripted(param, nu, pieces=None):
        calls.append(nu)
        return script(nu, t)

    monkeypatch.setattr(geometry, "hilbert_value", scripted)
    return t, geometry._certified_profile(LCI_SURF), calls


def test_profile_reads_persistence_at_t_when_e_is_at_most_t(monkeypatch):
    t, profile, calls = scripted_profile(monkeypatch, lambda nu, t: t - 1)
    assert calls == [t, t + 1]
    assert profile == (0, t - 1, "persistence", {t: t - 1, t + 1: t - 1})


def test_profile_reads_persistence_at_e_when_e_exceeds_t(monkeypatch):
    e = 12
    t, profile, calls = scripted_profile(monkeypatch, lambda nu, t: e)
    assert t < e and calls == [t, t + 1, e, e + 1]
    assert profile == (0, e, "persistence", {nu: e for nu in calls})


def test_profile_plateau_breaking_at_e_plus_one_is_positive_dimensional(monkeypatch):
    e = 12
    t, profile, calls = scripted_profile(monkeypatch, lambda nu, t: e if nu <= e else e + 1)
    assert calls == [t, t + 1, e, e + 1]
    assert profile[:3] == (1, None, "window")
    assert profile[3] == {t: e, t + 1: e, e: e, e + 1: e + 1}


def test_profile_growth_at_t_plus_one_is_positive_dimensional(monkeypatch):
    t, profile, calls = scripted_profile(monkeypatch, lambda nu, t: nu - 2)
    assert calls == [t, t + 1]
    assert profile == (1, None, "window", {t: t - 2, t + 1: t - 1})


def test_nine_points_read_persistence_at_e(monkeypatch):
    # e = 9 > t = 7: the plateau at 7 and 8, then Gotzmann at 9 and 10
    calls = count_hilbert_calls(monkeypatch)
    assert _certified_profile(NINE_POINTS) == (0, 9, "persistence", {nu: 9 for nu in range(7, 11)})
    assert calls == [7, 8, 9, 10]


def test_report_names_the_certificate_and_the_values_read():
    cases = (
        (CONIC, "empty", {3: 0}),
        (CONIC_FAT, "persistence", {5: 1, 6: 1}),
        (LCI_SURF, "persistence", {7: 6, 8: 6}),
        (NINE_POINTS, "persistence", {nu: 9 for nu in range(7, 11)}),
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
    assert _certified_profile(cubes)[:2] == window_profile(cubes) == (-1, 0)
    rep = analyze_parameterization(cubes, run_syzygetic=False)
    assert (rep.base_locus_dim, rep.e_total, rep.hilbert_values) == (-1, 0, {7: 0})


# ---------------------------------------------------------------------------
# predicted degree


def test_predicted_degree_examples():
    for param, degree in ((CONIC, 2), (LCI_SURF, 9 - 6), (SQUARES, 0), (CONIC_FAT, 2)):
        assert analyze_parameterization(param).predicted_degree == degree


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


# saturation dims for nu = 0..2d and syzygetic (boundary, saturated, plain)
# triples for nu = 1..2d, pinned on the seeded maps below
SEEDED_SATURATION = [
    ([1, 3, 6, 10, 15], [(0, 2, 0), (6, 9, 6), (18, 19, 19), (32, 32, 32)]),
    ([0, 1, 3, 6, 10], [(0, 1, 0), (6, 6, 6), (14, 14, 14), (25, 25, 25)]),
    ([0, 2, 5, 9, 14], [(0, 1, 0), (6, 8, 6), (18, 18, 18), (31, 31, 31)]),
    ([1, 3, 6, 10, 15, 21, 28], [(0, 0, 0), (0, 3, 0), (6, 12, 6), (18, 24, 18), (36, 39, 39), (56, 57, 57)]),
    ([0, 1, 3, 6, 10, 15, 21], [(0, 0, 0), (0, 2, 0), (6, 9, 6), (18, 19, 19), (32, 32, 32), (48, 48, 48)]),
    ([0, 1, 4, 8, 13, 19, 26], [(0, 0, 0), (0, 1, 0), (6, 10, 6), (18, 22, 18), (36, 37, 37), (55, 55, 55)]),
    ([1, 3, 6, 10, 15], [(0, 2, 0), (6, 9, 6), (18, 19, 19), (32, 32, 32)]),
    ([0, 1, 3, 6, 10], [(0, 1, 0), (6, 6, 6), (14, 14, 14), (25, 25, 25)]),
    ([0, 1, 4, 8, 13], [(0, 0, 0), (6, 7, 7), (17, 17, 17), (30, 30, 30)]),
    ([1, 3, 6, 10, 15, 21, 28], [(0, 0, 0), (0, 3, 0), (6, 12, 6), (18, 24, 18), (36, 39, 39), (56, 57, 57)]),
    ([0, 1, 3, 6, 10, 15, 21], [(0, 0, 0), (0, 2, 0), (6, 9, 6), (18, 19, 19), (32, 32, 32), (48, 48, 48)]),
    ([0, 2, 5, 9, 14, 20, 27], [(0, 0, 0), (0, 2, 0), (6, 11, 6), (18, 23, 18), (36, 38, 38), (56, 56, 56)]),
]


def test_saturation_and_syzygetic_records_on_seeded_surfaces():
    records = []
    for param in seeded_surfaces():
        ring, field, d = param.ring, param.ring.field, param.d
        t = ring.nx * (d - 1) + 1
        dims = []
        for nu in range(2 * d + 1):
            sat = saturation_piece(param, nu)
            dims.append(len(sat))
            ideal = ideal_piece(param, nu)
            assert scalar_rank(field, sat + ideal) == len(sat)
            # g * u lies in I_(nu+s) for every row g and every u in A_s
            s = max(1, t - nu)
            monos = ring.x_monomials(nu)
            target = {m: k for k, m in enumerate(ring.x_monomials(nu + s))}
            shifted = ideal_piece(param, nu + s)
            for u in ring.x_monomials(s):
                products = []
                for g in sat:
                    vec = [0] * len(target)
                    for m, c in zip(monos, g):
                        vec[target[ring.mono_mul(m, u)]] = c
                    products.append(vec)
                assert scalar_rank(field, shifted + products) == len(shifted)
        report = syzygetic_test(param)
        triples = [(e.boundary_dim, e.saturated_dim, e.plain_dim) for e in report.degrees]
        records.append((dims, triples))
    assert records == SEEDED_SATURATION


def comparison_inputs():
    """The shipped surfaces, the fat point, the cube ideals, this module's
    examples and the seeded surfaces."""
    for name in ("surface_quadric", "surface_cubic", "surface_lci"):
        yield load_problem(PROBLEMS / (name + ".txt")).parameterization()
    yield from [FAT_POINT3] + CUBES
    yield from (CONIC, CONIC_FAT, SQUARES, LCI_SURF, LCI_SURF_GF101, POSITIVE_DIM, NINE_POINTS)
    yield from seeded_surfaces()


def test_saturation_chain_rows_equal_the_one_shift_quotient():
    # each piece below t descends from the one above it; the rows are those
    # of the quotient I_t : A_(t-nu) taken in one step
    for param in comparison_inputs():
        for nu in range(2 * param.d + 2):
            assert saturation_piece(param, nu) == one_shift_saturation(param, nu)


def test_rank_count_triples_equal_the_intersection_route():
    for param in comparison_inputs():
        report = syzygetic_test(param)
        triples = [(e.boundary_dim, e.saturated_dim, e.plain_dim) for e in report.degrees]
        assert triples == intersection_triples(param, 2 * param.d)


def empty_base_locus(param):
    t = param.ring.nx * (param.d - 1) + 1
    return len(ideal_piece(param, t)) == len(param.ring.x_monomials(t))


def test_koszul_tail_counts_the_boundaries_on_an_empty_base_locus():
    # I is m-primary of grade nx, so H_i(f; A) = 0 for i > n - nx; with
    # n <= nx + 1 the alternating sum of the Koszul ranks counts B_1
    inputs = [p for p in comparison_inputs() if p.n <= p.ring.nx + 1 and empty_base_locus(p)]
    assert len(inputs) == 10  # two shipped surfaces, three cube ideals, the conic, four seeded
    dense = [dense_quadric(field, s) for field in (QQ, GF(65521)) for s in (1, 2, 3)]
    assert all(empty_base_locus(p) for p in dense)
    for param in inputs + dense:
        for nu in range(1, 2 * param.d + 2):
            assert geometry._koszul_tail(param, nu) == len(boundary_basis(param, nu))
    # the guard n <= nx + 1 is needed: here the sum overcounts in degree 3,
    # and syzygetic_test, which the guard keeps off the sum, still equals
    # the intersections
    assert empty_base_locus(FIVE_FORMS)
    assert geometry._koszul_tail(FIVE_FORMS, 3) == 30
    assert len(boundary_basis(FIVE_FORMS, 3)) == 29
    report = syzygetic_test(FIVE_FORMS)
    triples = [(e.boundary_dim, e.saturated_dim, e.plain_dim) for e in report.degrees]
    assert triples == intersection_triples(FIVE_FORMS, 4)
    assert triples[2] == (29, 29, 29)


def test_intersection_basis_only_for_the_witness(monkeypatch):
    # the dimensions come from ranks, so Z_1 is built only at the first
    # degree where the saturated comparison fails, to find the witness
    calls = []

    def counted(param, i, nu, _inner=geometry.cycle_basis):
        calls.append(nu)
        return _inner(param, i, nu)

    monkeypatch.setattr(geometry, "cycle_basis", counted)
    for param, nu_max, witness_degrees in ((CUBES[0], 6, []), (FAT_POINT3, 4, [2]), (LCI_SURF, 6, [4])):
        del calls[:]
        report = syzygetic_test(param, nu_max)
        assert calls == witness_degrees == ([report.witness[0]] if report.witness else [])


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


CONTENT_FACTORS = {
    "one": "1",
    "monomial": "X1*X2^2",
    "linear": "X1 + 2*X2 - X3",
    "quadric_times_monomial": "X1^2*X2 + X2^2*X3 - 3*X2*X3^2",
}


def count_content_gcds(monkeypatch):
    """The calls to `gcd_many` that analyses make from now on."""
    calls = []

    def counted(polys, _inner=geometry.gcd_many):
        calls.append(polys)
        return _inner(polys)

    monkeypatch.setattr(geometry, "gcd_many", counted)
    return calls


@pytest.mark.parametrize("factor", sorted(CONTENT_FACTORS))
@pytest.mark.parametrize("field", [QQ, GF(65521)], ids=["QQ", "GF"])
def test_content_gcd_is_the_common_factor(field, factor, monkeypatch):
    # f_i = h * g_i for seeded dense quadrics g_i, coprime by the reference
    # gcd: the analysis's content gcd, a fold of cofactor kernels over the X
    # bank, is h up to a unit; a nonconstant h puts a curve in the base
    # locus, so only h = 1 is read off the certificate
    calls = count_content_gcds(monkeypatch)
    ring = Ring(field, ["X1", "X2", "X3"], ["T1", "T2", "T3", "T4"])
    rng = random.Random("content:%s:%s" % (field, factor))
    monos = ring.x_monomials(2)
    gs = [Poly(ring, {m: random_nonzero(field, rng) for m in monos}) for _ in range(4)]
    assert subresultant_gcd_many(gs).is_constant()
    h = ring.poly(CONTENT_FACTORS[factor])
    rep = analyze_parameterization(Parameterization(ring, [h * g for g in gs]), run_syzygetic=False)
    assert unit_multiple_of(rep.content_gcd, h)
    assert len(calls) == (factor != "one")


def content_inputs():
    """Every shipped map, every `comparison_inputs()` map, and seeded dense
    quadric and cubic surfaces and plane curves over QQ and GF(65521)."""
    yield from (load_problem(path).parameterization() for path in SHIPPED)
    yield from comparison_inputs()
    for field in (QQ, GF(65521)):
        yield from (dense_quadric(field, 1), dense_quadric(field, 2), dense_cubic(field, 1))
        ring = Ring(field, ["X1", "X2"], ["T1", "T2", "T3"])
        rng = random.Random("content-curves:%s" % field)
        for d in (4, 7):
            forms = [{m: random_nonzero(field, rng) for m in ring.x_monomials(d)} for _ in range(3)]
            yield Parameterization(ring, [Poly(ring, terms) for terms in forms])


# two forms proportional, a curve with fractions, and a map whose three
# pairs each share a factor though the three forms have no common zero
PROPORTIONAL = make_parameterization(QQ, ["X1", "X2"], ["X1^2", "2*X1^2", "X2^2"])
FRACTIONS = make_parameterization(
    QQ, ["X1", "X2"], ["1/2*X1^3 + X2^3", "2/3*X1^2*X2 - X1*X2^2", "X1^3 - 5/7*X2^3"]
)
PAIRWISE_SINGULAR = make_parameterization(
    QQ, ["X1", "X2"], ["X1*X2", "X1*X2 + X2^2", "X1^2 + X1*X2"]
)


def curve_inputs():
    """Every plane curve the tests ship: the shipped curves, the curves of
    `comparison_inputs()` over their own field and over GF(7), seeded dense
    curves of degree 2 to 10 over QQ and GF(65521), PROPORTIONAL, FRACTIONS
    and PAIRWISE_SINGULAR."""
    yield from (load_problem(path).parameterization() for path in SHIPPED if "curve" in path.name)
    for param in comparison_inputs():
        if param.ring.nx == 2 and param.n == 3:
            yield from (param, over_field(param, GF(7)))
    rng = random.Random("curve-inputs")
    for d in range(2, 11):
        texts = dense_curve_text(d, rng)
        yield from (make_parameterization(field, ["X1", "X2"], texts) for field in (QQ, GF(65521)))
    yield from (PROPORTIONAL, FRACTIONS, PAIRWISE_SINGULAR)


def test_bezoutian_certificate_leaves_the_analysis_unchanged(monkeypatch):
    # a coprime pair proves I_t = A_t without reducing K, and the report
    # reads as the one the reduction gives; with base points the reduction
    # still decides
    read = [analyze_parameterization(param) for param in curve_inputs()]
    monkeypatch.setattr(geometry, "_coprime_pair", lambda param: False)
    reduced = [analyze_parameterization(param) for param in curve_inputs()]
    for a, b in zip(read, reduced):
        assert (a.to_dict(), a.nu0, a.hilbert_values) == (b.to_dict(), b.nu0, b.hilbert_values)
    # the two conic files, the conic over QQ and GF(7), 18 dense curves,
    # PROPORTIONAL and FRACTIONS
    assert sum(rep._koszul_reduction is None for rep in read) == 24
    base_point = load_problem(PROBLEMS / "curve_with_base_point.txt").parameterization()
    rep = analyze_parameterization(base_point)
    assert rep.base_locus_certificate == "persistence" and rep._koszul_reduction is not None


class FreshPieces(geometry._Pieces):
    """`_Pieces` with every I_nu from a fresh `ideal_piece` reduction: the
    reference for the identity rows above a full piece and for the shared
    reduction at t."""

    def __missing__(self, nu):
        self[nu] = rows = ideal_piece(self.param, nu)
        return rows


def count_ideal_pieces(monkeypatch):
    """The degrees of the `ideal_piece` reductions `geometry` takes from now on."""
    built = []

    def counted(param, nu, _inner=geometry.ideal_piece):
        built.append(nu)
        return _inner(param, nu)

    monkeypatch.setattr(geometry, "ideal_piece", counted)
    return built


def test_no_reduction_above_a_full_piece(monkeypatch):
    # on a dense curve of degree 10, I_t (t = 19) is full, so the syzygetic
    # test's I_21, two degrees above it, takes the identity rows too
    param = make_parameterization(QQ, ["X1", "X2"], dense_curve_text(10, random.Random("above-full")))
    built = count_ideal_pieces(monkeypatch)
    rep = analyze_parameterization(param, run_syzygetic=True)
    t = geometry._regularity_bound(param)
    assert rep.base_locus_certificate == "empty" and t == 19
    assert not [nu for nu in built if nu >= t]


def test_pieces_read_as_fresh_reductions(monkeypatch):
    # every shipped, comparison and dense input, with the syzygetic test,
    # reports as it does when each piece is reduced afresh
    inputs = list(content_inputs()) + list(curve_inputs())
    read = [analyze_parameterization(param, run_syzygetic=True).to_dict() for param in inputs]
    monkeypatch.setattr(geometry, "_Pieces", FreshPieces)
    assert read == [analyze_parameterization(param, run_syzygetic=True).to_dict() for param in inputs]


def test_content_from_the_certificate_equals_the_gcd(monkeypatch):
    # "empty" proves the content is 1 in nx >= 2 variables, "persistence"
    # in nx >= 3; every other analysis takes the gcd
    calls = count_content_gcds(monkeypatch)
    read = 0
    for param in content_inputs():
        calls.clear()
        rep = analyze_parameterization(param, run_syzygetic=False)
        proven = rep.base_locus_certificate == "empty" or (
            rep.base_locus_certificate == "persistence" and param.ring.nx >= 3
        )
        assert len(calls) == (not proven)
        assert rep.content_gcd == geometry.gcd_many(list(param.polys))
        read += proven
    assert read >= 20


def test_content_of_forms_in_one_variable_takes_the_gcd():
    # a nonconstant form in one variable has no zero in P^0, so an empty
    # base locus proves nothing about the content there
    ring = Ring(QQ, ["X1"], ["T1", "T2", "T3"])
    rep = analyze_parameterization(Parameterization(ring, [ring.poly(f) for f in ("X1^2", "2*X1^2", "-X1^2")]))
    assert rep.base_locus_certificate == "empty"
    assert rep.content_gcd == ring.poly("X1^2")


def test_strand_finishes_level_one_from_the_analysis_reduction(monkeypatch):
    # the analysis's _rref of K = koszul_differential_matrix(param, 1, t - d)
    # gives the strand the same level-1 kernel as a fresh reduction, so
    # every map is unchanged; at nu0 = nu_bound on an empty base locus
    # the strand takes it.  A plane curve with a coprime pair of forms
    # reduces no K: its analysis reads I_t off a Bezoutian, and its strand
    # at nu0 = d - 1 takes the Bezoutian lines, with no level-1 kernel
    shared = []

    def counted(param, i, nu, reduced=None, _inner=strands._cycle_data):
        shared.append(reduced is not None)
        return _inner(param, i, nu, reduced)

    monkeypatch.setattr(strands, "_cycle_data", counted)
    curves = 0
    for param in content_inputs():
        rep = analyze_parameterization(param, run_syzygetic=False)
        if rep._koszul_reduction is None:
            assert param.ring.nx == 2 and geometry._coprime_pair(param)
            assert rep.base_locus_certificate == "empty" and rep.nu0 == param.d - 1
            shared.clear()
            z_strand(param, rep.nu0, rep)
            assert shared == []
            curves += 1
            continue
        fresh = dataclasses.replace(rep, _koszul_reduction=None)
        assert rep._koszul_reduction[0] == geometry._regularity_bound(param) - param.d
        for nu in {rep.nu0, rep._koszul_reduction[0]}:
            if nu < 0:
                continue
            shared.clear()
            st = z_strand(param, nu, rep)
            assert shared[0] == (nu == rep._koszul_reduction[0]) and not any(shared[1:])
            assert [m.parts for m in st.maps] == [m.parts for m in z_strand(param, nu, fresh).maps]
            assert st.maps[0].parts == z_strand(param, nu).maps[0].parts
        if param.is_map_shape() and rep.base_locus_certificate == "empty":
            assert rep.nu0 == rep._koszul_reduction[0]
    # the two shipped conic files, the conic, four seeded dense curves
    assert curves == 7


def test_boundary_outside_saturated_intersection_raises(monkeypatch):
    # an empty saturation piece leaves no syzygy for the boundaries to sit in
    monkeypatch.setattr(
        geometry, "_saturation_pieces", lambda param, low, high, ideal: {nu: [] for nu in range(low, high + 1)}
    )
    with pytest.raises(ConsistencyError, match="degree 3: dimensions boundary 3, plain 4, saturated 0"):
        syzygetic_test(CONIC_FAT, nu_max=3)


def test_boundary_outside_plain_intersection_raises(monkeypatch):
    monkeypatch.setattr(
        geometry,
        "_saturation_pieces",
        lambda param, low, high, ideal: {nu: ideal_piece(param, nu) for nu in range(low, high + 1)},
    )
    monkeypatch.setattr(geometry, "ideal_piece", lambda param, nu: [])
    with pytest.raises(ConsistencyError, match="degree 3: dimensions boundary 3, plain 0, saturated 4"):
        syzygetic_test(CONIC_FAT, nu_max=3)
