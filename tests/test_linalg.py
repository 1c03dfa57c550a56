"""Rank/kernel, T-affine matrices, fraction-free determinants, minor selection."""

import copy
import math
import random
import types
from fractions import Fraction
from pathlib import Path

import pytest

from implicax import arith, linalg
from implicax.arith import _PRIMES, GF, QQ, Poly, Ring, _rref, normalize, rref_kernel_data
from implicax.errors import ConsistencyError, HypothesisViolation
from implicax.linalg import (
    LinalgError,
    PolyMatrix,
    det_fraction_free,
    scalar_rank,
)
from implicax.geometry import analyze_parameterization
from implicax.problems import load_problem, parse_problem
from implicax.strands import (
    ZStrand,
    check_rank_profile,
    complex_determinant,
    gcd_of_maximal_minors,
    koszul_differential_matrix,
    z_strand,
)
from helpers import (
    dense_cubic,
    dense_rref,
    grid_plan_search,
    lower_set_size,
    random_nonzero,
    t_affine_sylvester,
    upper_triangle_only,
)

T_RING = Ring(QQ, [], ["T1", "T2", "T3", "T4"])
PROBLEMS = Path(__file__).resolve().parents[1] / "problems"


def pm(rows, ring=T_RING):
    return PolyMatrix(ring, [[ring.poly(e) if isinstance(e, str) else ring.const(e) for e in r] for r in rows])


# ---------------------------------------------------------------------------
# rank and kernel


def test_identity_has_no_kernel():
    rank, ker, _ = rref_kernel_data(QQ, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3)
    assert rank == 3 and ker == []


def test_zero_matrix_kernel():
    rank, ker, _ = rref_kernel_data(QQ, [[0, 0], [0, 0]], 2)
    assert rank == 0 and len(ker) == 2


def brute_multiplication_matrix():
    """Koszul map (A_1)^3 -> A_3 for f = (X1^2, X1*X2, X2^2), by direct
    monomial expansion independent of any library matrix builder.

    Columns: (g1, g2, g3) basis pairs (component i, monomial X1 or X2);
    rows: monomials X1^3, X1^2 X2, X1 X2^2, X2^3 of A_3.
    """
    # f_i as exponent dicts {(e1, e2): coeff}
    fs = [{(2, 0): 1}, {(1, 1): 1}, {(0, 2): 1}]
    col_basis = [(i, g) for i in range(3) for g in [(1, 0), (0, 1)]]
    row_basis = [(3, 0), (2, 1), (1, 2), (0, 3)]
    data = [[0] * 6 for _ in range(4)]
    for c, (i, g) in enumerate(col_basis):
        for mono, coeff in fs[i].items():
            prod = (mono[0] + g[0], mono[1] + g[1])
            data[row_basis.index(prod)][c] += coeff
    return data


def test_koszul_multiplication_matrix_rank_and_kernel():
    rank, ker, _ = rref_kernel_data(QQ, brute_multiplication_matrix(), 6)
    assert rank == 4
    assert len(ker) == 2
    # kernel should span the two linear syzygies (X2, -X1, 0), (0, X2, -X1)
    # in the (component, monomial) coordinates used above
    syz1 = [0, 1, -1, 0, 0, 0]   # X2*f1 - X1*f2
    syz2 = [0, 0, 0, 1, -1, 0]   # X2*f2 - X1*f3
    for target in (syz1, syz2):
        assert scalar_rank(QQ, [list(r) for r in zip(*(ker + [target]))]) == 2


def test_kernel_vectors_annihilate_randomized():
    rng = random.Random(42)
    for field in (QQ, GF(65521)):
        for _ in range(25):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            data = [[field.random(rng) for _ in range(cols)] for _ in range(rows)]
            rank, ker, _ = rref_kernel_data(field, data, cols)
            assert rank + len(ker) == cols


def test_rank_invariance_random():
    rng = random.Random(7)
    field = GF(65521)
    for _ in range(20):
        n = rng.randint(2, 5)
        data = [[field.random(rng) for _ in range(n + 1)] for _ in range(n)]
        r0 = scalar_rank(field, data)
        perm = list(range(n))
        rng.shuffle(perm)
        assert scalar_rank(field, [data[i] for i in perm]) == r0
        # multiply by a random invertible matrix on the left
        while True:
            g = [[field.random(rng) for _ in range(n)] for _ in range(n)]
            if scalar_rank(field, g) == n:
                break
        prod = [[sum(g[i][k] * data[k][j] for k in range(n)) % 65521
                 for j in range(n + 1)] for i in range(n)]
        assert scalar_rank(field, prod) == r0


def fraction_rref(field, data, ncols):
    """Textbook Gauss-Jordan with field elements (Fractions over QQ)."""
    rows = [[field.canon(x) for x in r] for r in data]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        sel = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = field.invert(rows[r][c])
        rows[r] = [field.canon(x * inv) for x in rows[r]]
        for i in range(len(rows)):
            f = rows[i][c]
            if f and i != r:
                rows[i] = [field.canon(a - f * b) for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows[: len(pivots)], pivots


def small_entry(field, rng):
    """A draw from -3 .. 3 over QQ, of any residue over GF(p)."""
    return field.random(rng) if field.char else rng.randint(-3, 3)


def _random_matrix(rng, field, nrows, ncols, rank_cap, fractions):
    """Random matrix of rank at most rank_cap (a product through rank_cap)."""

    def entry():
        if fractions:
            return field.canon(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
        return small_entry(field, rng)

    left = [[entry() for _ in range(rank_cap)] for _ in range(nrows)]
    right = [[entry() for _ in range(ncols)] for _ in range(rank_cap)]
    return [
        [field.canon(sum(left[i][k] * right[k][j] for k in range(rank_cap))) for j in range(ncols)]
        for i in range(nrows)
    ]


def test_elimination_core_matches_fraction_gauss():
    from implicax.geometry import _span_kernel

    rng = random.Random(2002)
    pair_rng = random.Random(2020)
    cases = [(QQ, False), (QQ, True), (GF(65521), False)]
    for field, fractions in cases:
        p = field.char
        for trial in range(60):
            nrows, ncols = rng.randint(0, 6), rng.randint(0, 6)
            cap = rng.randint(0, min(nrows, ncols)) if trial % 3 == 0 else min(nrows, ncols)
            data = _random_matrix(rng, field, nrows, ncols, cap, fractions)
            want_rows, want_pivots = fraction_rref(field, data, ncols)
            rank = len(want_pivots)

            rows, pivots = _rref(p, data)
            assert pivots == want_pivots
            assert all(type(x) is int for row in rows for x in row)
            assert scalar_rank(field, data) == rank
            if not p:
                # reduced mod the specialization prime, small QQ data keeps its pivots
                assert _rref(_PRIMES[0], data)[1] == want_pivots

            got_rank, basis, free = rref_kernel_data(field, data, ncols)
            assert got_rank == rank and len(basis) == ncols - rank
            assert free == [c for c in range(ncols) if c not in want_pivots]
            for v, f in zip(basis, free):
                assert all(type(x) is int for x in v)
                assert all(field.is_zero(sum(a * b for a, b in zip(row, v))) for row in data)
                if p:
                    assert v[f] == 1
                else:
                    assert v[f] > 0 and math.gcd(*v) == 1
                want = [0] * ncols
                want[f] = 1
                for row, c in zip(want_rows, want_pivots):
                    want[c] = field.neg(row[f])
                assert [field.canon(Fraction(x, v[f])) for x in v] == want

            if not ncols:
                continue

            def residue(w):
                for row, c in zip(want_rows, want_pivots):
                    x = w[c]
                    w = [field.canon(a - x * b) for a, b in zip(w, row)]
                return w

            for _ in range(3):
                w = [small_entry(field, rng) for _ in range(ncols)]
                inside = scalar_rank(field, data + [w]) == rank
                assert bool(_span_kernel(field, [w], ncols, rows)) == inside
            # two blocks: the combinations whose blocks both lie in the span
            # are the kernel of the blocks' residues (drawn from their own rng,
            # so that the seeded matrices do not depend on this check)
            count = pair_rng.randint(1, 5)
            vectors = [[small_entry(field, pair_rng) for _ in range(2 * ncols)] for _ in range(count)]
            if data:
                vectors.append(data[0] + data[-1])
            residues = [residue(v[:ncols]) + residue(v[ncols:]) for v in vectors]
            want = rref_kernel_data(field, list(zip(*residues)), len(vectors))[1]
            got = _span_kernel(field, vectors, ncols, rows)
            assert all(type(x) is int for v in got for x in v)
            assert got == want


@pytest.mark.parametrize(
    "p, fractions", [(0, False), (0, True), (65521, False)], ids=["QQ-int", "QQ-fraction", "GF"]
)
def test_rref_equals_the_dense_reference(p, fractions):
    # the sparse core returns the dense elimination's rows, signs and pivots
    # and leaves its input as it was: on seeded sparse matrices up to 150 x 100
    # at 1-10% density (with a zero row and a zero column, every third one
    # rank-deficient) and on the shipped maps' Koszul matrices and transposes
    rng = random.Random(2014)

    def entry(x):
        if p:
            return x % p
        return Fraction(x, rng.randint(2, 6)) if fractions and rng.random() < 0.5 else x

    cases = []
    for trial in range(12):
        nrows, ncols = rng.randint(2, 150), rng.randint(2, 100)
        density = rng.uniform(0.01, 0.1)
        data = [[rng.randint(-9, 9) if rng.random() < density else 0 for _ in range(ncols)] for _ in range(nrows)]
        data[rng.randrange(nrows)] = [0] * ncols
        zero_col = rng.randrange(ncols)
        for row in data:
            row[zero_col] = 0
        if trial % 3 == 0:
            data += [[a - 2 * b for a, b in zip(*rng.sample(data, 2))] for _ in range(nrows // 4 + 1)]
        cases.append(data)
    problems = Path(__file__).resolve().parents[1] / "problems"
    for path in sorted(problems.glob("curve_*.txt")) + sorted(problems.glob("surface_*.txt")):
        param = load_problem(path).parameterization()
        for i in range(1, param.n + 1):
            for nu in range(3):
                data = koszul_differential_matrix(param, i, nu)
                cases += [data, [list(col) for col in zip(*data)]]
    for data in cases:
        data = [[entry(x) if x else 0 for x in row] for row in data]
        before, rows = copy.deepcopy(data), list(data)
        assert _rref(p, data) == dense_rref(p, data)
        assert data == before and all(a is b for a, b in zip(data, rows))


# ---------------------------------------------------------------------------
# determinants


def test_det_diag():
    m = pm([["T1", 0], [0, "T2"]])
    assert det_fraction_free(m) == T_RING.poly("T1*T2")


def test_det_2x2_generic():
    m = pm([["T1", "T2"], ["T3", "T4"]])
    assert det_fraction_free(m) == T_RING.poly("T1*T4 - T2*T3")


def test_det_moving_lines_matrix():
    ring = Ring(QQ, [], ["T1", "T2", "T3"])
    m = pm([["-T2", "-T3"], ["T1", "T2"]], ring)
    assert det_fraction_free(m) == ring.poly("T1*T3 - T2^2")


def cofactor_det(m):
    """Cofactor-expansion determinant of a PolyMatrix or of scalar rows;
    independent oracle for small sizes."""
    poly = isinstance(m, PolyMatrix)
    data = m.data if poly else m
    n = len(data)
    if n == 0:
        return m.ring.one if poly else 1
    if n == 1:
        return data[0][0]
    total = m.ring.zero if poly else 0
    for j in range(n):
        a = data[0][j]
        if not a:
            continue
        cols = [c for c in range(n) if c != j]
        if poly:
            rest = m.submatrix(range(1, n), cols)
        else:
            rest = [[data[i][c] for c in cols] for i in range(1, n)]
        sub = cofactor_det(rest)
        term = a * sub
        total = total + term if j % 2 == 0 else total - term
    return total


def test_det_matches_cofactor_randomized():
    rng = random.Random(13)
    for field in (QQ, GF(65521)):
        ring = Ring(field, [], ["T1", "T2", "T3"])
        for _ in range(100):
            n = rng.randint(1, 4)
            if rng.random() < 0.5:
                data = [[ring.const(field.random(rng)) for _ in range(n)] for _ in range(n)]
                m = PolyMatrix(ring, data)
                assert det_fraction_free(m) == cofactor_det(m)
            else:
                data = []
                for _ in range(n):
                    row = []
                    for _ in range(n):
                        terms = {}
                        for _ in range(rng.randint(0, 2)):
                            v = rng.randrange(3)
                            exps = [0, 0, 0]
                            exps[v] = 1
                            key = ring.pack(tuple(exps))
                            terms[key] = terms.get(key, 0) + random_nonzero(field, rng)
                        row.append(Poly(ring, field.reduce_terms(terms)))
                    data.append(row)
                m = PolyMatrix(ring, data)
                assert det_fraction_free(m) == cofactor_det(m)


def test_det_fraction_entries():
    m = pm([[Fraction(1, 2), 1], [1, Fraction(2, 3)]])
    assert det_fraction_free(m) == T_RING.const(Fraction(1, 3) - 1) == cofactor_det(m)


def test_det_poly_with_fraction_coeffs():
    ring = T_RING
    m = PolyMatrix(ring, [[ring.poly("1/2*T1"), ring.poly("T2")],
                          [ring.poly("T3"), ring.poly("2*T4")]])
    assert det_fraction_free(m) == ring.poly("T1*T4 - T2*T3")


def test_det_singular_poly_matrix():
    m = pm([["T1", "T2"], ["T1", "T2"]])
    assert det_fraction_free(m).is_zero()


# ---------------------------------------------------------------------------
# minor selection and specialization


def one_map_chain(m, seed):
    """(rows, cols) of the one link of `check_rank_profile` on the one-map
    strand of the square map m, which leaves no rows over."""
    strand = ZStrand(types.SimpleNamespace(ring=m.ring), 0, [m.rows, m.cols], [m])
    ((rows, cols),) = check_rank_profile(strand, seed)
    return rows, cols


def test_minor_select_full_rank():
    m = pm([[1, 0], [0, 1]])
    rows, cols = one_map_chain(m, 1)
    assert rows == cols == [0, 1]
    assert det_fraction_free(m.submatrix(rows, cols)) == T_RING.one


def test_minor_select_rank_deficient_errors():
    m = pm([["T1", "T1"], ["T1", "T1"]])
    with pytest.raises(HypothesisViolation, match="rank profile"):
        one_map_chain(m, 1)


def test_minor_select_seed_independent_property():
    m = pm([["T1", "T2", "T1"], ["T3", "T4", "T3"], [0, "T1", "T2"]])
    for seed in (1, 2, 20020101):
        rows, cols = one_map_chain(m, seed)
        det = det_fraction_free(m.submatrix(rows, cols))
        assert rows == [0, 1, 2] and det.terms
        assert det == det_fraction_free(m.submatrix([0, 1, 2], cols))


def test_specialize():
    m = pm([["T1", 0], [0, "T2"]])
    assert m.evaluate([2, 3, 0, 0]) == [[2, 0], [0, 3]]
    assert m.evaluate([2, 3, 0, 0], rows=[1]) == [[0, 3]]
    z = PolyMatrix(T_RING, [[T_RING.zero, T_RING.zero]])
    assert z.evaluate([0, 0, 0, 0]) == [[0, 0]]


def test_specialize_missing_variable_errors():
    m = pm([["T1 + T2", 0], [0, 1]])
    with pytest.raises(LinalgError):
        m.evaluate([1])


def test_specialize_commutes_with_det():
    rng = random.Random(99)
    ring = T_RING
    for _ in range(20):
        n = rng.randint(1, 3)
        data = []
        for _ in range(n):
            row = []
            for _ in range(n):
                terms = {}
                for _ in range(rng.randint(0, 3)):
                    exps = [0] * 4
                    exps[rng.randrange(4)] = 1
                    key = ring.pack(tuple(exps))
                    terms[key] = terms.get(key, 0) + rng.randint(-3, 3)
                row.append(Poly(ring, QQ.reduce_terms(terms)))
            data.append(row)
        m = PolyMatrix(ring, data)
        values = [rng.randint(-5, 5) for _ in ring.names]
        d1 = cofactor_det(m.evaluate(values))
        d2 = det_fraction_free(m).evaluate(dict(zip(ring.names, values)))
        assert d2.is_constant()
        assert d2.terms.get(ring.one_mono, 0) == d1


def test_generic_rank():
    m = pm([["T1", "T2"], ["2*T1", "2*T2"]])
    assert scalar_rank(QQ, m.evaluate([3, -5, 0, 0])) == 1


def test_require_t_linear():
    # the constructor keeps only entries affine in the T's
    ring = Ring(QQ, ["X1"], ["T1", "T2"])
    good = PolyMatrix(ring, [[ring.poly("T1 - 2*T2"), ring.poly("T1 + 1/3")], [ring.zero, ring.const(5)]])
    assert good.parts == [[[0, Fraction(1, 3)], [0, 5]], [[1, 1], [0, 0]], [[-2, 0], [0, 0]]]
    assert good.data == [[ring.poly("T1 - 2*T2"), ring.poly("T1 + 1/3")], [ring.zero, ring.const(5)]]
    for text in ("T1^2", "T1*T2", "T1^2 + T2"):
        with pytest.raises(LinalgError):
            PolyMatrix(ring, [[ring.poly(text), ring.zero]])
    with pytest.raises(LinalgError):
        PolyMatrix.from_parts(ring, [[[1]], [[0]]], 1)


@pytest.mark.parametrize("field", [QQ, GF(65521)], ids=["QQ", "GF"])
def test_evaluation_matches_the_entries_and_commutes_with_det(field):
    # the scalar matrix at a point is the matrix of the entries' values, and
    # its determinant is the value of the determinant, on both engines
    rng = random.Random(2004)
    for ring in (Ring(field, ["X1", "X2"], ["T1", "T2", "T3"]), Ring(field, [], ["T1", "T2", "T3", "T4"])):
        for _ in range(15):
            m = linear_form_matrix(ring, rng.randint(1, 4), rng, field is QQ, affine=True)
            values = [field.random(rng) for _ in range(ring.nv - ring.nx)]
            point = dict(zip(ring.names[ring.nx:], values))
            scalars = m.evaluate(values)
            assert scalars == [[e.evaluate(point).terms.get(ring.one_mono, 0) for e in row] for row in m.data]
            det = det_fraction_free(m).evaluate(point)
            assert det.is_constant()
            assert det.terms.get(ring.one_mono, 0) == field.canon(cofactor_det(scalars))


def test_kernel_check_raises_on_a_wrong_vector(monkeypatch):
    m = [[1, 1, 0], [0, 0, 1]]
    assert rref_kernel_data(QQ, m, 3) == (2, [[-1, 1, 0]], [1])
    monkeypatch.setattr(arith, "_echelon_kernel", lambda p, rows, ncols: ([[1, 1, 0]], [1]))
    with pytest.raises(ConsistencyError):
        rref_kernel_data(QQ, m, 3)


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "GF"])
def test_kernel_check_raises_when_one_row_fails(monkeypatch, field):
    # A*v is summed by columns over v's support; a vector that fails in the
    # last row only, reached through its last support column, still raises
    m = [[1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    good = [field.canon(-1), 1, 0, 0]
    assert rref_kernel_data(field, m, 4) == (3, [good], [1])
    monkeypatch.setattr(arith, "_echelon_kernel", lambda p, rows, ncols: ([good[:3] + [2]], [1]))
    with pytest.raises(ConsistencyError):
        rref_kernel_data(field, m, 4)


def test_bareiss_integer_guard_raises(monkeypatch):
    # the row scaling makes primitive integer rows and keeps their contents;
    # without it a Fraction would reach the elimination, which over QQ must
    # refuse it instead of carrying Fractions
    m = pm([["1/2*T1", 1, "2/3"], [1, "4*T2", "6*T3"], [1, 0, "T4"]])
    scale, parts = linalg._integer_parts(m)
    assert scale == Fraction(1, 6)
    assert [[P[i] for P in parts] for i in range(3)] == [
        [[0, 6, 4], [3, 0, 0], [0, 0, 0], [0, 0, 0], [0, 0, 0]],
        [[1, 0, 0], [0, 0, 0], [0, 4, 0], [0, 0, 6], [0, 0, 0]],
        [[1, 0, 0], [0, 0, 0], [0, 0, 0], [0, 0, 0], [0, 0, 1]],
    ]
    assert linalg._det_bareiss(m) == cofactor_det(m)
    monkeypatch.setattr(linalg, "_integer_parts", lambda m: (1, m.parts))
    with pytest.raises(LinalgError):
        linalg._det_bareiss(m)


# ---------------------------------------------------------------------------
# the grid engine against Bareiss


def linear_form_matrix(ring, n, rng, fractions=False, affine=False):
    """n x n matrix of random linear forms in the ring's T's (some zero);
    with `affine`, each entry gets a nonzero constant term too."""
    field = ring.field
    t_names = ring.names[ring.nx:]
    data = []
    for _ in range(n):
        row = []
        for _ in range(n):
            e = ring.zero
            for nm in ([None] if affine else []) + rng.sample(t_names, rng.randint(0, len(t_names))):
                c = random_nonzero(field, rng)
                if fractions and rng.random() < 0.4:
                    c = Fraction(c, rng.randint(2, 7))
                e = e + (ring.const(c) if nm is None else ring.poly(nm) * c)
            row.append(e)
        data.append(row)
    return PolyMatrix(ring, data)


@pytest.mark.parametrize(
    "field, fractions", [(QQ, False), (QQ, True), (GF(65521), False)], ids=["QQ-int", "QQ-fraction", "GF"]
)
def test_bareiss_on_polynomial_entries_matches_cofactor(field, fractions):
    # the elimination loop run on Poly entries, with 4 T's, against the
    # cofactor expansion; every second matrix has a row that is the sum of
    # two others (or a zero row), so its determinant is zero.  Then sparse
    # ones, at least 80% zero entries on a permutation pattern, where the loop
    # skips the zero terms of its updates; every second one repeats row 0
    rng = random.Random(2005)
    ring = Ring(field, [], ["T1", "T2", "T3", "T4"])
    for n in range(6):
        for trial in range(4):
            m = linear_form_matrix(ring, n, rng, fractions, affine=trial % 2 == 0)
            if n and trial % 2:
                rows = m.data
                rows[-1] = [a + b for a, b in zip(rows[0], rows[1])] if n > 2 else [ring.zero] * n
                m = PolyMatrix(ring, rows)
            want = cofactor_det(m)
            assert linalg._det_bareiss(m) == want
            assert det_fraction_free(m) == want
            assert (not want) == (n > 0 and trial % 2 == 1)
    for n in range(5, 9):
        for trial in range(4):
            perm = rng.sample(range(n), n)
            cells = {(i, perm[i]) for i in range(n)}
            cells |= set(rng.sample([(i, j) for i in range(1, n - 1) for j in range(n)], n * n // 5 - n))
            dense = linear_form_matrix(ring, n, rng, fractions, affine=True).data
            rows = [[e if (i, j) in cells else ring.zero for j, e in enumerate(row)] for i, row in enumerate(dense)]
            if trial % 2:
                rows[-1] = rows[0]
            m = PolyMatrix(ring, rows)
            assert sum(not e for row in rows for e in row) >= 0.8 * n * n
            want = cofactor_det(m)
            assert linalg._det_bareiss(m) == want
            assert (not want) == (trial % 2 == 1)


@pytest.mark.parametrize("field", [QQ, GF(65521)], ids=["QQ", "GF"])
@pytest.mark.parametrize("fractions", [False, True], ids=["int", "fraction"])
def test_grid_engine_equals_bareiss_on_linear_forms(field, fractions):
    rng = random.Random(2001)
    ring = Ring(field, ["X1", "X2"], ["T1", "T2", "T3"])
    for _ in range(25):
        m = linear_form_matrix(ring, rng.randint(1, 6), rng, fractions and field is QQ)
        grid = linalg._det_on_grid(m)
        assert grid is not None
        assert grid.terms == linalg._det_bareiss(m).terms
        assert det_fraction_free(m) == grid


@pytest.mark.parametrize("field", [QQ, GF(65521)], ids=["QQ", "GF"])
def test_grid_engine_equals_bareiss_on_resultant_matrices(field):
    from implicax.resultants import BinaryForm, kravitsky_pencil

    rng = random.Random(2002)
    ring = Ring(field, ["X1", "X2"], ["T1", "T2", "T3"])
    for d in (1, 2, 3, 4, 5):
        forms = [BinaryForm(ring, [random_nonzero(field, rng) for _ in range(d + 1)]) for _ in range(3)]
        for m in (t_affine_sylvester(*forms), kravitsky_pencil(*forms)):
            grid = linalg._det_on_grid(m)
            assert grid is not None
            assert grid.terms == linalg._det_bareiss(m).terms


@pytest.mark.parametrize("field", [QQ, GF(65521)], ids=["QQ", "GF"])
def test_grid_engine_equals_bareiss_on_constant_and_one_by_one(field):
    rng = random.Random(2003)
    ring = Ring(field, [], ["T1", "T2"])
    for n in (1, 2, 3, 4):
        for _ in range(5):
            m = PolyMatrix(ring, [[ring.const(field.random(rng)) for _ in range(n)] for _ in range(n)])
            assert linalg._det_on_grid(m).terms == linalg._det_bareiss(m).terms
    for text in ("3*T1 - 1/2*T2 + 5", "T1", "0", "5"):
        text = text if field is QQ else text.replace("1/2*", "")
        m = pm([[text]], ring)
        assert linalg._det_on_grid(m) == linalg._det_bareiss(m) == det_fraction_free(m) == m.data[0][0]


SURFACE_KINDS = [(QQ, False), (QQ, True), (GF(65521), False)]
SURFACE_IDS = ["QQ-int", "QQ-fraction", "GF"]


def nonzero_entries(m):
    return sum(1 for row in m.data for e in row if e)


@pytest.mark.parametrize("field, fractions", SURFACE_KINDS, ids=SURFACE_IDS)
def test_grid_engine_equals_bareiss_on_surface_linear_forms(field, fractions):
    # 4 T's: dense linear-form matrices (homogeneous, then affine) and
    # sparse ones, about a third of the entries on a permutation pattern
    # plus random cells, of order 1 .. 7
    rng = random.Random(2006)
    ring = Ring(field, ["X1", "X2", "X3"], ["T1", "T2", "T3", "T4"])
    for n in range(1, 8):
        for trial in range(3):
            m = linear_form_matrix(ring, n, rng, fractions, affine=trial == 1)
            if trial == 2:
                perm = rng.sample(range(n), n)
                cells = {(i, perm[i]) for i in range(n)} | set(
                    rng.sample([(i, j) for i in range(n) for j in range(n)], n * n // 4)
                )
                m = PolyMatrix(ring, [
                    [e if (i, j) in cells else ring.zero for j, e in enumerate(row)]
                    for i, row in enumerate(m.data)
                ])
            grid = linalg._det_on_grid(m)
            assert grid is not None
            assert grid.terms == linalg._det_bareiss(m).terms
            assert det_fraction_free(m) == grid


@pytest.mark.parametrize("field, fractions", SURFACE_KINDS, ids=SURFACE_IDS)
@pytest.mark.parametrize("name", ["surface_quadric", "surface_cubic", "surface_lci"])
def test_grid_engine_equals_bareiss_on_sign_recombinations(name, field, fractions):
    # the gcd-minors fold's m*S, S a seeded sign matrix, from the rightmost
    # map of each shipped surface; with `fractions`, S's columns are scaled
    # by 1/2 .. 1/5 so the entries carry denominators.  Every one is dense
    text = (PROBLEMS / (name + ".txt")).read_text()
    param = parse_problem(text.replace("field: QQ", "field: %s" % field.name)).parameterization()
    m = z_strand(param, analyze_parameterization(param).nu0).maps[0]
    rng = random.Random(name)
    z0, z1 = m.rows, m.cols
    signs = [[rng.choice((-1, 1)) for _ in range(z1)] for _ in range(z0)]
    if fractions:
        signs = [[Fraction(s, rng.randint(2, 5)) for s in col] for col in signs]
    canon = field.canon
    parts = [
        [[canon(sum(a * s for a, s in zip(row, col))) for col in signs] for row in part]
        for part in m.parts
    ]
    r = PolyMatrix.from_parts(m.ring, parts, z0)
    assert 2 * nonzero_entries(r) >= z0 * z0
    grid = linalg._det_on_grid(r)
    assert grid.terms
    assert grid.terms == linalg._det_bareiss(r).terms
    assert det_fraction_free(r) == grid


def test_gcd_minors_on_the_cubic_surface_sends_no_dense_matrix_to_bareiss(monkeypatch):
    param = load_problem(PROBLEMS / "surface_cubic.txt").parameterization()
    report = analyze_parameterization(param)
    st = z_strand(param, report.nu0)
    expected = complex_determinant(st).value
    calls = {"grid": 0, "bareiss": []}
    bareiss, grid = linalg._det_bareiss, linalg._det_on_grid

    def on_grid(m):
        calls["grid"] += 1
        return grid(m)

    def by_bareiss(m):
        calls["bareiss"].append((nonzero_entries(m), m.rows))
        return bareiss(m)

    monkeypatch.setattr(linalg, "_det_on_grid", on_grid)
    monkeypatch.setattr(linalg, "_det_bareiss", by_bareiss)
    g = gcd_of_maximal_minors(st, report.predicted_degree)
    assert g.terms == normalize(expected).terms
    assert calls["grid"]  # the fold's sign recombinations
    assert all(2 * nz < n * n for nz, n in calls["bareiss"])


@pytest.mark.parametrize("p", [3, 7])
def test_grid_engine_falls_back_when_a_degree_bound_reaches_p(p):
    ring = Ring(GF(p), [], ["T1", "T2"])
    # linear entries in two T's: T2 is set to 1 and T1 has degree up to p
    n = p
    m = PolyMatrix(ring, [
        [ring.poly("T1 + %d*T2" % ((i * j + 1) % p)) for j in range(n)] for i in range(n)
    ])
    assert linalg._det_on_grid(m) is None
    assert det_fraction_free(m) == linalg._det_bareiss(m)
    # below p the grid applies and agrees
    small = m.submatrix(range(p - 1), range(p - 1))
    assert linalg._det_on_grid(small).terms == linalg._det_bareiss(small).terms


@pytest.mark.parametrize("k", [3, 4], ids=["3T", "4T"])
def test_engine_dispatch_follows_the_entry_density(monkeypatch, k):
    # at least half of the entries nonzero: the grid, for any number of T's;
    # fewer: Bareiss.  Each time the other engine refuses
    ring = Ring(QQ, [], ["T%d" % i for i in range(1, k + 1)])
    t = "T%d" % k
    dense = pm([["T1", "T2", t], [t, "T1 + T2", 0], [1, 0, "T2 - " + t]], ring)  # 7 of 9
    half = pm([["T1", 0], [t, 0]], ring)  # 2 of 4
    diagonal = pm([["T1", 0, 0], [0, "T2", 0], [0, 0, t]], ring)  # 3 of 9
    sparse = pm([["T1", "T2", 0], [0, 0, t], [0, "T1 + 1", 0]], ring)  # 4 of 9

    def refuse(m):
        raise AssertionError("wrong engine")

    monkeypatch.setattr(linalg, "_det_bareiss", refuse)
    assert det_fraction_free(dense) == cofactor_det(dense)
    assert det_fraction_free(half) == ring.zero
    monkeypatch.undo()
    monkeypatch.setattr(linalg, "_det_on_grid", refuse)
    assert det_fraction_free(diagonal) == ring.poly("T1*T2*" + t)
    assert det_fraction_free(sparse) == cofactor_det(sparse)


def test_grid_engine_declines_entries_with_x_variables():
    # an entry with an X never reaches an engine: the constructor refuses it,
    # while T-affine entries over a ring with X's go through the grid
    ring = Ring(QQ, ["X1"], ["T1"])
    for rows in ([["X1", "T1"], ["1", "X1"]], [["T1*X1", "1"], ["1", "T1"]], [["T1 + X1"]]):
        with pytest.raises(LinalgError):
            pm(rows, ring)
    m = pm([["T1", "T1 + 2"], ["1", "T1"]], ring)
    assert linalg._det_on_grid(m) == linalg._det_bareiss(m) == ring.poly("T1^2 - T1 - 2")


def test_interpolation_raises_on_an_inexact_divided_difference():
    # x(3 - x)/2 takes the integer values 0, 1, 1 but is no integer polynomial
    with pytest.raises(LinalgError):
        linalg._interpolate({(0,): 0, (1,): 1, (2,): 1}, 1, 0)
    assert linalg._interpolate({(0,): 0, (1,): 1, (2,): 4}, 1, 0) == {(0,): 0, (1,): 0, (2,): 1}


# ---------------------------------------------------------------------------
# Kronecker lines and the gate


def dense_pencil(field, n, k, rng, lo, hi, affine=False):
    """n x n matrix A_0 + T_1*A_1 + ... + T_k*A_k with every entry of A_1 ..
    A_k (and of A_0 with `affine`, else A_0 = 0) of absolute value in lo .. hi."""
    def part():
        return [[field.canon(rng.choice((-1, 1)) * rng.randint(lo, hi)) for _ in range(n)] for _ in range(n)]

    ring = Ring(field, [], ["T%d" % i for i in range(1, k + 1)])
    parts = [part() if affine else [[0] * n for _ in range(n)]] + [part() for _ in range(k)]
    return PolyMatrix.from_parts(ring, parts, n)


def counted_dets(monkeypatch):
    """The p of every `_det_scalar` call from now on: 0 for a Kronecker line
    (and for a point over QQ), p for a point over GF(p)."""
    calls = []
    inner = linalg._det_scalar

    def counted(rows, p, size=None):
        calls.append(p)
        return inner(rows, p, size)

    monkeypatch.setattr(linalg, "_det_scalar", counted)
    return calls


P31 = 2147483647
# (field, n, k, entry sizes, affine, lines if Kronecker else None, points).
# Homogeneous in k T's, one T is set to 1 and one more is the digit axis, so
# the lines are the lower set in k - 2 axes of total n and the points the one
# in k - 1; affine, in k - 1 and k.  Entries near 2^50 over QQ, n = 10 over
# GF(65521) (B about 190) and n = 8 over GF(2^31 - 1) put the packed width
# n*B past the gate
GATE_CASES = {
    "QQ-small": (QQ, 5, 3, (1, 9), False, 6, 21),
    "QQ-2^50": (QQ, 7, 3, (2**50 - 2**10, 2**50), False, None, 36),
    "QQ-affine-three-axes": (QQ, 4, 3, (1, 9), True, 15, 35),
    "QQ-one-axis": (QQ, 5, 1, (1, 99), True, 1, 6),
    "QQ-homogeneous-one-axis": (QQ, 5, 2, (1, 99), False, 1, 6),
    "GF65521": (GF(65521), 6, 4, (1, 32760), False, 28, 84),
    "GF65521-affine": (GF(65521), 4, 2, (1, 32760), True, 5, 15),
    "GF65521-10x10": (GF(65521), 10, 3, (1, 32760), False, None, 66),
    "GF2^31-1": (GF(P31), 4, 3, (1, P31 // 2), False, 5, 15),
    "GF2^31-1-wide": (GF(P31), 8, 3, (1, P31 // 2), False, None, 45),
}


@pytest.mark.parametrize("case", list(GATE_CASES))
def test_kronecker_lines_equal_bareiss_on_both_sides_of_the_gate(monkeypatch, case):
    field, n, k, (lo, hi), affine, lines, points = GATE_CASES[case]
    rng = random.Random(case)
    p = field.char
    m = dense_pencil(field, n, k, rng, lo, hi, affine)
    want = linalg._det_bareiss(m)
    calls = counted_dets(monkeypatch)
    got = linalg._det_on_grid(m)
    assert got.terms == want.terms and got.terms
    assert calls == ([0] * lines if lines else [p] * points)
    # a singular matrix, the last row the sum of the first two: every line
    # (or point) determinant is zero
    parts = [part[:-1] + [[a + b for a, b in zip(part[0], part[1])]] for part in m.parts]
    singular = PolyMatrix.from_parts(m.ring, [[[field.canon(c) for c in row] for row in part] for part in parts], n)
    del calls[:]
    assert not linalg._det_on_grid(singular).terms
    assert len(calls) == (lines or points)


@pytest.mark.parametrize("field", [QQ, GF(65521)], ids=["QQ", "GF"])
def test_kronecker_lines_on_kravitsky_and_sylvester_matrices(monkeypatch, field):
    # the Kravitsky pencil is homogeneous in T1, T2, T3: one T set to 1 and
    # one digit axis leave d + 1 lines; the 2d x 2d Sylvester matrix of
    # f1 - T1*f3 and f2 - T2*f3 is affine, with T1 and T2 in d rows each:
    # d + 1 lines too
    from implicax.resultants import BinaryForm, kravitsky_pencil

    rng = random.Random(2024)
    ring = Ring(field, ["X1", "X2"], ["T1", "T2", "T3"])
    d = 4
    forms = [BinaryForm(ring, [random_nonzero(field, rng) for _ in range(d + 1)]) for _ in range(3)]
    for m in (kravitsky_pencil(*forms), t_affine_sylvester(*forms)):
        want = linalg._det_bareiss(m)
        calls = counted_dets(monkeypatch)
        assert linalg._det_on_grid(m).terms == want.terms
        assert calls == [0] * (d + 1)
        monkeypatch.undo()


def test_a_digit_past_the_degree_bound_raises(monkeypatch):
    # a digit width below the coefficients' size leaves digits past the
    # line's degree 2
    m = pm([["T1 + 100", 7], [5, "T1 - 50"]])
    assert linalg._det_on_grid(m) == T_RING.poly("T1^2 + 50*T1 - 5035")
    monkeypatch.setattr(linalg, "_digit_bits", lambda sizes: 3)
    with pytest.raises(LinalgError):
        linalg._det_on_grid(m)


class _Planned(Exception):
    pass


def grid_plan_counts(m, monkeypatch):
    """[lines, points]: the size of the grid `linalg._det_on_grid` takes on
    m with the gate open (points when no digit axis is left), then shut;
    no determinant is taken."""
    counts = []

    def planned(bounds, total, _inner=linalg._grid):
        counts.append(len(_inner(bounds, total)))
        raise _Planned

    monkeypatch.setattr(linalg, "_grid", planned)
    for width in (1 << 30, 0):
        monkeypatch.setattr(linalg, "_KRONECKER_WIDTH", width)
        with pytest.raises(_Planned):
            linalg._det_on_grid(m)
    monkeypatch.undo()
    return counts


def grid_matrices(monkeypatch, run):
    """The matrices that reach `linalg._det_on_grid` while `run()` runs."""
    seen = []
    inner = linalg._det_on_grid

    def recorded(m):
        seen.append(m)
        return inner(m)

    monkeypatch.setattr(linalg, "_det_on_grid", recorded)
    run()
    monkeypatch.undo()
    return seen


def test_grid_plan_rule_takes_the_fewest_lines_and_points(monkeypatch):
    # the T of largest degree bound set to 1 and the next the digit axis
    # leave as few lines, and as few points, as the best choice of
    # `grid_plan_search`, on the Kravitsky pencils of degree 6 .. 10, the
    # gcd-minors fold of the three shipped surfaces and the links of the
    # dense cubic's strand, over QQ and GF(65521)
    from implicax.resultants import BinaryForm, kravitsky_pencil

    for bounds, total in (([], 0), ([3], 2), ([2, 5], 4), ([4, 4, 4], 4), ([1, 0, 6], 9), ([6, 6], 0)):
        assert lower_set_size(bounds, total) == len(linalg._grid(bounds, total))
    rng = random.Random(2030)
    matrices = []
    for field in (QQ, GF(65521)):
        ring = Ring(field, ["X1", "X2"], ["T1", "T2", "T3"])
        for d in range(6, 11):
            forms = [BinaryForm(ring, [random_nonzero(field, rng) for _ in range(d + 1)]) for _ in range(3)]
            matrices.append(kravitsky_pencil(*forms))
        for name in ("surface_quadric", "surface_cubic", "surface_lci"):
            text = (PROBLEMS / (name + ".txt")).read_text()
            param = parse_problem(text.replace("field: QQ", "field: %s" % field.name)).parameterization()
            report = analyze_parameterization(param)
            st = z_strand(param, report.nu0, report)
            fold = grid_matrices(monkeypatch, lambda: gcd_of_maximal_minors(st, report.predicted_degree))
            assert fold
            matrices += fold
        param = dense_cubic(field, 1)
        st = z_strand(param, analyze_parameterization(param).nu0)
        matrices += [m.submatrix(rows, cols) for m, (rows, cols) in zip(st.maps, check_rank_profile(st)) if rows]
    for m in matrices:
        lines, points = grid_plan_search(m)
        assert grid_plan_counts(m, monkeypatch) == [lines or points, points]


# ---------------------------------------------------------------------------
# the symmetric branch of the elimination


def symmetric_matrix(rng, n, bits):
    """A seeded symmetric n x n integer matrix with entries below 2^bits in
    absolute value."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = rng.randint(-(2**bits), 2**bits)
    return rows


def general_loop_det(rows):
    """`_det_scalar` on a copy of rows through its general loop: a `size`
    keeps the symmetric branch out, and with every size equal the pivots are
    the general loop's own."""
    return linalg._det_scalar(copy.deepcopy(rows), 0, lambda e: 0)


def test_symmetric_branch_equals_the_general_loop():
    rng = random.Random("symmetric")
    cases = [[[0, 1], [1, 0]], [[0, 0], [0, 0]], [[1, 1, 0], [1, 1, 1], [0, 1, 1]], [[0]], []]
    for n in range(1, 13):
        for bits in (3, 60):
            rows = symmetric_matrix(rng, n, bits)
            cases.append(rows)
            if n >= 3:  # singular: row and column n-1 the sums of rows and columns 0 and 1
                sing = [row[:-1] + [row[0] + row[1]] for row in rows]
                sing[-1] = [a + b for a, b in zip(sing[0], sing[1])]
                cases.append(sing)
            # a zero pivot after k steps: the leading (k+1) x (k+1) block is
            # singular, its last row and column the sums of its first two
            k = rng.randrange(n)
            if k >= 2:
                pinched = copy.deepcopy(rows)
                for j in range(n):
                    pinched[k][j] = pinched[j][k] = pinched[0][j] + pinched[1][j] if j < k else pinched[k][j]
                pinched[k][k] = pinched[0][0] + 2 * pinched[0][1] + pinched[1][1]
                cases.append(pinched)
    zero_pivots = 0
    for rows in cases:
        assert linalg._symmetric(rows)
        want = general_loop_det(rows)
        assert linalg._det_scalar(copy.deepcopy(rows), 0) == want
        # the exact value, by Gaussian elimination over QQ
        m = [[Fraction(x) for x in row] for row in rows]
        det = Fraction(1)
        for k in range(len(m)):
            sel = next((i for i in range(k, len(m)) if m[i][k]), None)
            if sel is None:
                det = 0
                break
            if sel != k:
                m[k], m[sel], det = m[sel], m[k], -det
            det *= m[k][k]
            for i in range(k + 1, len(m)):
                f = m[i][k] / m[k][k]
                m[i] = [a - f * b for a, b in zip(m[i], m[k])]
        assert want == det
        zero_pivots += any(not general_loop_det([r[:k + 1] for r in rows[:k + 1]]) for k in range(len(rows)))
    assert zero_pivots >= 20


@pytest.mark.parametrize("field", [QQ, GF(65521)], ids=["QQ", "GF"])
def test_kronecker_lines_of_a_kravitsky_pencil_take_the_symmetric_branch(monkeypatch, field):
    # every line of the pencil is symmetric, and the elimination never reads
    # below the diagonal; the lines are d + 1 as before (at d = 10 the
    # GF(65521) pencil's digits are too wide for lines).  Over QQ the rows'
    # contents divide the rows first, so only a pencil whose rows' contents
    # agree keeps symmetric lines; at d = 2 they differ here
    from implicax.resultants import BinaryForm, kravitsky_pencil

    rng = random.Random(2032)
    ring = Ring(field, ["X1", "X2"], ["T1", "T2", "T3"])
    kept = []
    for d in (2, 5, 8):
        forms = [BinaryForm(ring, [random_nonzero(field, rng) for _ in range(d + 1)]) for _ in range(3)]
        m = kravitsky_pencil(*forms)
        want = linalg._det_bareiss(m)
        contents = {arith.rational_content(c for P in m.parts for c in P[i] if c) for i in range(d)}
        kept.append(bool(field.char) or len(contents) == 1)
        if kept[-1]:
            calls = upper_triangle_only(monkeypatch)
        assert linalg._det_on_grid(m) == want
        if kept[-1]:
            assert calls == [0] * (d + 1)
        monkeypatch.undo()
    print(kept)
    assert kept == [True] * 3 if field.char else kept == [False, True, True]
    # a non-symmetric line is refused by the check, so the check is live
    upper_triangle_only(monkeypatch)
    with pytest.raises(AssertionError, match="non-symmetric"):
        linalg._det_scalar([[1, 2], [3, 4]], 0)
