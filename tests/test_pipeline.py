"""The implicitization pipeline end to end."""

import dataclasses
import random
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from implicax.arith import GF, QQ, Poly, make_parameterization, unit_multiple_of
from implicax import arith, cli, geometry, pipeline, strands
from implicax.errors import ConsistencyError, HypothesisViolation, ImplicaxError, UsageError
from implicax.linalg import DEFAULT_SEED
from implicax.pipeline import analyze, implicitize, verify
from implicax.problems import load_problem

from helpers import count_cycle_kernels, dense_cubic, dense_curve_text, dense_quadric, seeded_surfaces

PROBLEMS = Path(__file__).resolve().parents[1] / "problems"
MAP_PROBLEMS = (
    "curve_conic", "curve_with_base_point", "surface_quadric", "surface_cubic", "surface_lci"
)

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
SQUARES = make_parameterization(QQ, ["X1", "X2"], ["X1^2", "X1^2", "X1^2"])


def test_analyze_examples():
    rep = analyze(CONIC)
    assert (rep.base_locus_dim, rep.predicted_degree, rep.nu_bound) == (-1, 2, 1)
    rep = analyze(LCI_SURF)
    assert (rep.base_locus_dim, rep.e_total, rep.predicted_degree, rep.nu_bound) == (
        0,
        6,
        3,
        4,
    )
    rep = analyze(SQUARES)
    assert rep.predicted_degree == 0 and rep.generically_finite is False


def test_implicitize_conic():
    res = implicitize(CONIC)
    assert res.nu_used == 1
    assert res.exponent == 1
    assert unit_multiple_of(res.reduced, CONIC.ring.poly("T2^2 - T1*T3"))
    assert res.verified
    assert res.degree == 2 == res.report.predicted_degree


def test_implicitize_quadric():
    res = implicitize(QUADRIC)
    assert res.nu_used == 2
    assert res.exponent == 4
    assert unit_multiple_of(res.reduced, QUADRIC.ring.poly("T1 + T2 + T3 - T4"))
    assert res.determinant == res.reduced**4
    assert sorted(res.minor_sizes) == [1, 3, 6]


def test_implicitize_fat_conic():
    res = implicitize(CONIC_FAT, nu=2)
    assert res.exponent == 1
    assert unit_multiple_of(res.reduced, CONIC_FAT.ring.poly("T1*T3 - T2^2"))
    assert res.minor_sizes == [3, 1]


def test_implicitize_degenerate_rejected():
    with pytest.raises(HypothesisViolation):
        implicitize(SQUARES)


def test_implicitize_positive_dim_rejected():
    p = make_parameterization(
        QQ, ["X1", "X2", "X3"], ["X1*X2", "X1*X2", "X1*X2", "X1*X2"]
    )
    with pytest.raises(HypothesisViolation):
        implicitize(p)


def test_sub_bound_needs_flag():
    with pytest.raises(ImplicaxError):
        implicitize(QUADRIC, nu=1)


def test_sub_bound_quadric_fails_with_degree_mismatch():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(ConsistencyError):
            implicitize(QUADRIC, nu=1, allow_sub_bound=True)


def predict_one_too_high(monkeypatch):
    real = pipeline.analyze

    def high_target(param, run_syzygetic=None):
        report = real(param, run_syzygetic=run_syzygetic)
        return dataclasses.replace(report, predicted_degree=report.predicted_degree + 1)

    monkeypatch.setattr(pipeline, "analyze", high_target)


def test_gcd_minors_target_above_the_truth_fails_in_the_fold(monkeypatch, capsys):
    # with seed 1 the fold's first gcd has the true degree 4, below the
    # target 5 that the theorem would guarantee: the fold raises there, not
    # the pipeline's degree check, and the CLI exits as that check does
    predict_one_too_high(monkeypatch)
    fold = "have a gcd of degree below the predicted degree 5"
    with pytest.raises(ConsistencyError, match=fold):
        implicitize(QUADRIC, method="gcd-minors", seed=1)
    code = cli.main(
        ["implicitize", str(PROBLEMS / "surface_quadric.txt"), "--method", "gcd-minors", "--seed", "1"]
    )
    assert code == cli.EXIT_CONSISTENCY == 4
    assert fold in capsys.readouterr().err


@pytest.mark.xfail(strict=True, reason="the fold stops at a common divisor that meets a too-high target")
def test_gcd_minors_target_above_the_truth_is_caught_at_every_seed(monkeypatch):
    # at seeds 8, 31 and 48 the folded determinants share a divisor of degree
    # 5: the fold meets the target and returns that divisor, which passes the
    # degree check and the oracle
    predict_one_too_high(monkeypatch)
    for seed in [DEFAULT_SEED, *range(1, 61)]:
        with pytest.raises(ConsistencyError):
            implicitize(QUADRIC, method="gcd-minors", seed=seed)


@pytest.mark.parametrize("method", ["det-complex", "gcd-minors"])
def test_implicitize_walks_the_minor_chain_once(method, monkeypatch):
    calls = []
    walk = strands.check_rank_profile

    def counted(*args):
        calls.append(1)
        return walk(*args)

    monkeypatch.setattr(strands, "check_rank_profile", counted)
    implicitize(QUADRIC, method=method)
    assert len(calls) == 1


def test_sub_bound_conic_rejected_below_viable():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises((HypothesisViolation, ConsistencyError)):
            implicitize(CONIC, nu=0, allow_sub_bound=True)


def test_sub_bound_lci_succeeds():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for nu in (3, 2):
            res = implicitize(LCI_SURF, nu=nu, allow_sub_bound=True)
            assert unit_multiple_of(res.reduced, LCI_SURF.ring.poly("T1*T2*T3 + T1*T2*T4 - T3*T4^2"))


def test_methods_agree_on_conic_and_fat_conic():
    a = implicitize(CONIC, method="det-complex")
    b = implicitize(CONIC, method="gcd-minors")
    c = implicitize(CONIC, method="resultant")
    assert a.reduced == b.reduced == c.reduced
    spec = c.reduced.evaluate({"T3": 1})
    assert unit_multiple_of(spec, c.dehomogenized)
    a = implicitize(CONIC_FAT, nu=2, method="det-complex")
    b = implicitize(CONIC_FAT, nu=2, method="gcd-minors")
    assert a.reduced == b.reduced
    with pytest.raises(HypothesisViolation):
        implicitize(CONIC_FAT, method="resultant")


def test_verify_oracle():
    H = CONIC.ring.poly("T2^2 - T1*T3")
    assert verify(H, CONIC, trials=20)
    assert not verify(CONIC.ring.poly("T1"), CONIC, trials=5)


def test_nu_stability():
    r1 = implicitize(CONIC, nu=1)
    r2 = implicitize(CONIC, nu=2)
    assert r1.reduced == r2.reduced and r1.exponent == r2.exponent
    q2 = implicitize(QUADRIC, nu=2)
    q3 = implicitize(QUADRIC, nu=3)
    assert q2.reduced == q3.reduced and q2.exponent == q3.exponent


def shipped_and_seeded_maps():
    """(name, map) for the shipped maps and the seeded surfaces."""
    for name in MAP_PROBLEMS:
        yield name, load_problem(PROBLEMS / (name + ".txt")).parameterization()
    for k, param in enumerate(seeded_surfaces()):
        yield "seeded_%d" % k, param


def test_nu0_per_shipped_map():
    nu0 = {
        name: analyze(load_problem(PROBLEMS / (name + ".txt")).parameterization()).nu0
        for name in MAP_PROBLEMS
    }
    assert nu0 == {
        "curve_conic": 1,
        "curve_with_base_point": 1,
        "surface_quadric": 2,
        "surface_cubic": 4,
        "surface_lci": 2,
    }


def test_nu0_and_the_next_degree_give_one_equation():
    # on the shipped maps and the seeded surfaces with isolated base points;
    # gcd-minors only where it is cheap, up to predicted degree 4
    rng = random.Random("nu0-stability")
    for name, param in shipped_and_seeded_maps():
        report = analyze(param, run_syzygetic=False)
        if name.startswith("seeded") and report.base_locus_dim != 0:
            continue
        methods = ["det-complex"] + (["gcd-minors"] if report.predicted_degree <= 4 else [])
        for method in methods:
            seed = rng.randrange(1, 10**6)
            at, above = (
                implicitize(param, nu=nu, method=method, seed=seed)
                for nu in (report.nu0, report.nu0 + 1)
            )
            assert at.nu_used == report.nu0, name
            assert (at.reduced, at.exponent) == (above.reduced, above.exponent), (name, method)


def test_below_nu0_needs_the_flag():
    for name, param in shipped_and_seeded_maps():
        report = analyze(param, run_syzygetic=False)
        if report.base_locus_dim <= 0:
            with pytest.raises(UsageError, match="below the proven bound nu0"):
                implicitize(param, nu=report.nu0 - 1)


def test_nu0_is_nu_bound_without_base_points():
    maps = [param for _, param in shipped_and_seeded_maps()] + [dense_quadric(QQ, 7)]
    empty = [r for r in (analyze(p, run_syzygetic=False) for p in maps) if r.base_locus_dim < 0]
    assert len(empty) == 8
    assert all(r.nu0 == r.nu_bound for r in empty)


@pytest.mark.parametrize(
    "name", ["curve_with_base_point", "surface_quadric", "surface_cubic", "surface_lci"]
)
def test_one_analysis_builds_each_ideal_piece_once(name, monkeypatch):
    param = load_problem(PROBLEMS / (name + ".txt")).parameterization()
    built, chains = [], []
    ideal_piece, saturation_pieces = geometry.ideal_piece, geometry._saturation_pieces

    def counted_piece(param, nu):
        built.append(nu)
        return ideal_piece(param, nu)

    def counted_chain(*args):
        chains.append(args)
        return saturation_pieces(*args)

    monkeypatch.setattr(geometry, "ideal_piece", counted_piece)
    monkeypatch.setattr(geometry, "_saturation_pieces", counted_chain)
    implicitize(param, run_syzygetic=True)
    assert built and sorted(built) == sorted(set(built))
    assert len(chains) == 1


def count_calls(monkeypatch, name, log):
    """Replace geometry.<name> by a wrapper that appends its args to `log`."""
    inner = getattr(geometry, name)

    def counted(*args):
        log.append(args)
        return inner(*args)

    monkeypatch.setattr(geometry, name, counted)


@pytest.mark.parametrize("name", ["surface_quadric", "surface_cubic"])
def test_empty_base_locus_skips_the_chain_kernels_and_the_boundaries(name, monkeypatch):
    # the chain starts from a full I_t, so every piece is full without a
    # kernel, the pieces of I above t are full without a rank, and the
    # Koszul tail counts the boundaries; I_t itself is read off the
    # reduction that the strand finishes as level 1's kernel
    param = load_problem(PROBLEMS / (name + ".txt")).parameterization()
    calls = count_cycle_kernels(monkeypatch)
    kernels, boundaries, pieces, in_chain = [], [], [], []
    count_calls(monkeypatch, "_span_kernel", kernels)
    count_calls(monkeypatch, "boundary_basis", boundaries)
    count_calls(monkeypatch, "ideal_piece", pieces)
    chain = geometry._saturation_pieces

    def counted_chain(*args):
        before = len(kernels)
        out = chain(*args)
        in_chain.append(len(kernels) - before)
        return out

    monkeypatch.setattr(geometry, "_saturation_pieces", counted_chain)
    witness = implicitize(param, run_syzygetic=True).report.syzygetic.witness
    assert in_chain == [0]
    assert [nu for _, nu in boundaries] == ([witness[0]] if witness else [])
    assert max(nu for _, nu in pieces) < geometry._regularity_bound(param)
    # the witness search takes Z_1 at its degree, then the strand its level 1
    assert calls == [1] * (2 if witness else 1)


@pytest.mark.parametrize("method", ["det-complex", "gcd-minors"])
@pytest.mark.parametrize("name", ["curve_conic", "surface_quadric", "surface_cubic", "dense_quadric"])
def test_empty_base_locus_reduces_the_level_one_koszul_matrix_once(name, method, monkeypatch):
    # the Hilbert value at t and the strand's (Z_1)_nu0 come from one _rref
    # of K = koszul_differential_matrix(param, 1, nu_bound), taken on K's
    # rows or on its columns; the conic reduces none, as a coprime pair's
    # Bezoutian proves I_t full and the Bezoutian lines are its (Z_1)_nu0
    if name == "dense_quadric":
        param = dense_quadric(QQ, 1)
    else:
        param = load_problem(PROBLEMS / (name + ".txt")).parameterization()
    report = analyze(param)
    assert report.base_locus_certificate == "empty" and report.nu0 == report.nu_bound
    matrix = strands.koszul_differential_matrix(param, 1, report.nu_bound)
    forms = (tuple(map(tuple, matrix)), tuple(zip(*matrix)))
    reductions = []
    for owner in (arith, geometry, strands):
        inner = owner._rref

        def counted(p, data, _inner=inner):
            reductions.append(tuple(map(tuple, data)) in forms)
            return _inner(p, data)

        monkeypatch.setattr(owner, "_rref", counted)
    assert implicitize(param, method=method, check_eval=2).verified
    assert reductions.count(True) == (name != "curve_conic")


def test_equal_pieces_take_one_syzygy_rank(monkeypatch):
    # I_nu lies in I^sat_nu, so pieces of one size are equal and the plain
    # dimension is the saturated one
    param = load_problem(PROBLEMS / "surface_lci.txt").parameterization()
    equal = [
        nu
        for nu in range(1, 7)
        if len(geometry.ideal_piece(param, nu)) == len(geometry.saturation_piece(param, nu))
    ]
    assert set(range(3, 7)) <= set(equal)
    calls = []
    count_calls(monkeypatch, "_syzygy_dim", calls)
    implicitize(param, run_syzygetic=True)
    per_degree = [sum(1 for args in calls if args[1] == nu) for nu in range(1, 7)]
    assert per_degree == [1 if nu in equal else 2 for nu in range(1, 7)]


def test_seed_independence():
    a = implicitize(QUADRIC, seed=1)
    b = implicitize(QUADRIC, seed=31337)
    assert a.reduced == b.reduced and a.exponent == b.exponent


def test_permutation_invariance():
    # permute (f1, .., fn) -> (f2, .., fn, f1) cyclically and relabel T the
    # same way, Ti -> T(i+1) and Tn -> T1
    for param in (CONIC, QUADRIC, CUBIC_SURF, LCI_SURF):
        ring = param.ring
        fs = [str(f) for f in param.polys]
        perm = make_parameterization(QQ, ring.names[: ring.nx], fs[1:] + fs[:1])
        base = implicitize(param)
        res = implicitize(perm)
        ts = param.t_names()
        relabel = {t: ring.poly(u) for t, u in zip(ts, ts[1:] + ts[:1])}
        assert unit_multiple_of(res.reduced.evaluate(relabel), base.reduced)
        assert res.exponent == base.exponent


def test_linear_change_of_coordinates_invariance():
    rng = random.Random(7)
    for param in (CONIC, CONIC_FAT, QUADRIC, CUBIC_SURF, LCI_SURF):
        base = implicitize(
            param,
            nu=2 if param is CONIC_FAT else None,
            check_eval=5,
        )
        ring = param.ring
        nx = ring.nx
        while True:
            mat = [[rng.randint(-3, 3) for _ in range(nx)] for _ in range(nx)]
            from implicax.linalg import scalar_rank

            if scalar_rank(QQ, mat) == nx:
                break
        xs = ring.names[:nx]
        sub = {
            xs[i]: sum((ring.poly(xs[j]) * mat[i][j] for j in range(nx)), ring.zero)
            for i in range(nx)
        }
        moved = make_parameterization(
            QQ, xs, [str(p.evaluate(sub)) for p in param.polys]
        )
        res = implicitize(
            moved,
            nu=2 if param is CONIC_FAT else None,
            check_eval=5,
        )
        assert unit_multiple_of(res.reduced, base.reduced)
        assert res.exponent == base.exponent


def test_gf_pipeline():
    conic_p = make_parameterization(GF(65521), ["X1", "X2"], ["X1^2", "X1*X2", "X2^2"])
    res = implicitize(conic_p)
    assert unit_multiple_of(res.reduced, conic_p.ring.poly("T2^2 - T1*T3"))
    assert res.verified


def residues_mod(poly, ring):
    """The QQ polynomial `poly` reduced into `ring` over GF(p)."""
    p = ring.field.char
    terms = {}
    for m, c in poly.terms.items():
        c = Fraction(c)
        terms[m] = c.numerator * pow(c.denominator, -1, p)
    return Poly(ring, ring.field.reduce_terms(terms))


@pytest.mark.parametrize(
    "name", MAP_PROBLEMS + ("dense_quadric_1", "dense_quadric_2", "dense_quadric_3", "dense_cubic_1")
)
def test_qq_answer_mod_p_is_the_gf_answer(name):
    p = 65521
    if name.startswith("dense_"):
        dense = dense_cubic if name.startswith("dense_cubic") else dense_quadric
        seed = int(name.rpartition("_")[2])
        over_qq = implicitize(dense(QQ, seed))
        over_gf = implicitize(dense(GF(p), seed))
    else:
        problem = load_problem(PROBLEMS / (name + ".txt"))
        over_qq = implicitize(problem.parameterization())
        over_gf = implicitize(dataclasses.replace(problem, field_spec="GF(%d)" % p).parameterization())
    assert unit_multiple_of(residues_mod(over_qq.reduced, over_gf.reduced.ring), over_gf.reduced)
    assert over_qq.exponent == over_gf.exponent


def test_gf_surface_pipeline():
    qp = make_parameterization(
        GF(65521), ["X1", "X2", "X3"], ["X1^2", "X2^2", "X3^2", "X1^2+X2^2+X3^2"]
    )
    res = implicitize(qp)
    assert res.exponent == 4
    assert unit_multiple_of(res.reduced, qp.ring.poly("T1 + T2 + T3 - T4"))
    lp = make_parameterization(
        GF(65521),
        ["X1", "X2", "X3"],
        ["X1*X3^2", "X1*X2^2+X2^2*X3", "X1^2*X2+X1*X2*X3", "X1*X2*X3+X2*X3^2"],
    )
    res = implicitize(lp)
    assert unit_multiple_of(res.reduced, lp.ring.poly("T1*T2*T3 + T1*T2*T4 - T3*T4^2"))


def test_degree_one_maps():
    lin = make_parameterization(QQ, ["X1", "X2"], ["X1", "X2", "X1+X2"])
    res = implicitize(lin)
    assert res.nu_used == 0 and res.exponent == 1
    assert unit_multiple_of(res.reduced, lin.ring.poly("T1 + T2 - T3"))
    ls = make_parameterization(QQ, ["X1", "X2", "X3"], ["X1", "X2", "X3", "X1+X2+X3"])
    res = implicitize(ls)
    assert unit_multiple_of(res.reduced, ls.ring.poly("T1 + T2 + T3 - T4"))


def test_rational_coefficient_parameterization():
    frac = make_parameterization(QQ, ["X1", "X2"], ["1/2*X1^2", "X1*X2", "3*X2^2"])
    res = implicitize(frac)
    assert res.verified
    assert unit_multiple_of(res.reduced, frac.ring.poly("3*T2^2 - 2*T1*T3"))


@pytest.mark.parametrize("name", MAP_PROBLEMS)
def test_verify_accepts_every_shipped_answer_and_rejects_a_shifted_one(name):
    param = load_problem(PROBLEMS / (name + ".txt")).parameterization()
    reduced = implicitize(param, check_eval=0).reduced
    assert verify(reduced, param)
    assert not verify(reduced + 1, param)


ROUTE_INPUTS = MAP_PROBLEMS + ("dense_quadric_qq", "dense_quadric_gf65521", "dense_quadric_gf101")
DENSE_FIELDS = {"qq": QQ, "gf65521": GF(65521), "gf101": GF(101)}


@pytest.mark.parametrize("name", ROUTE_INPUTS)
def test_gcd_minors_equals_det_complex_for_seeds_1_to_10(name):
    if name.startswith("dense_quadric_"):
        param = dense_quadric(DENSE_FIELDS[name.rpartition("_")[2]], 7)
    else:
        param = load_problem(PROBLEMS / (name + ".txt")).parameterization()
    for seed in range(1, 11):
        routes = [
            implicitize(param, method=method, seed=seed) for method in ("det-complex", "gcd-minors")
        ]
        assert routes[0].reduced == routes[1].reduced, (name, seed)
        assert routes[0].exponent == routes[1].exponent, (name, seed)


def dense_maps(name):
    """The maps of one counting case: a shipped problem, or the dense
    quadrics (seeds 1-3) or dense plane curves (degrees 6, 8, 10), each over
    QQ and GF(65521)."""
    fields = (QQ, GF(65521))
    if name == "dense_quadrics":
        return [dense_quadric(field, seed) for field in fields for seed in (1, 2, 3)]
    if name == "dense_curves":
        rng = random.Random("dense-curves")
        texts = [dense_curve_text(d, rng) for d in (6, 8, 10)]
        return [make_parameterization(field, ["X1", "X2"], t) for field in fields for t in texts]
    return [load_problem(PROBLEMS / (name + ".txt")).parameterization()]


@pytest.mark.parametrize(
    "name, kernels",
    [
        ("surface_quadric", 1),
        ("surface_cubic", 1),
        ("dense_quadrics", 1),
        ("dense_curves", 0),
        ("surface_lci", 2),
    ],
)
def test_implicitize_takes_cycle_kernels_only_below_the_koszul_images(name, kernels, monkeypatch):
    # H_i(f; A) = 0 for i > n - grade: from Z_2 on without base points and
    # from Z_3 on with isolated ones, the strand takes Koszul images; a plane
    # curve without base points takes its Z_1 off the Bezoutians
    calls = count_cycle_kernels(monkeypatch)
    for param in dense_maps(name):
        calls.clear()
        assert implicitize(param, check_eval=2).verified
        assert calls == list(range(1, kernels + 1))


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_random_plane_curves_routes_and_fields_agree(d):
    p = 65521
    rng = random.Random("plane-curve:%d" % d)
    for _ in range(2):
        texts = dense_curve_text(d, rng)
        answers = {}
        for field in (QQ, GF(p)):
            param = make_parameterization(field, ["X1", "X2"], texts)
            results = [implicitize(param, method=m) for m in ("det-complex", "gcd-minors", "resultant")]
            assert all(r.verified for r in results)
            assert results[0].reduced == results[1].reduced == results[2].reduced
            assert results[0].exponent == results[1].exponent == results[2].exponent
            answers[field.char] = results[0]
        over_qq, over_gf = answers[0], answers[p]
        assert over_qq.reduced.total_degree() * over_qq.exponent == d
        assert unit_multiple_of(residues_mod(over_qq.reduced, over_gf.reduced.ring), over_gf.reduced)
        assert over_qq.exponent == over_gf.exponent
