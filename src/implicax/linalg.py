"""Exact dense linear algebra over a field and over k[T].

Two matrix flavors: ScalarMatrix (field entries) and PolyMatrix, a matrix
affine in T stored as its scalar parts A_0 + sum_i T_i*A_i (strand maps,
Sylvester and Bezout matrices, Kravitsky pencils).  Rank, kernel, span
reduction and minor selection are read off one integer row reduction
(`_rref`); a PolyMatrix is reduced at a random point of T, where its value
is a combination of the parts' rows.  `det_fraction_free` has two engines,
chosen by the ring: with at most three T variables (plane curves) the
determinant is interpolated from integer determinants on a grid
(`_det_on_grid`); with more (surfaces) Bareiss elimination runs on the
entries as polynomials (`_det_bareiss`), through arith's multiplication and
exact-division loops, the same ones Poly uses.  Over QQ rows or columns are
rescaled to primitive integer vectors internally; the exact value is
restored at the end, so results are not "up to unit" here.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .arith import (
    _RECON_PRIME,
    ArithError,
    NotDivisibleError,
    Poly,
    _divide_terms,
    _mul_terms,
    rational_content,
)
from .errors import ConsistencyError

__all__ = [
    "ScalarMatrix",
    "PolyMatrix",
    "LinalgError",
    "rank_and_kernel",
    "det_fraction_free",
]

DEFAULT_SEED = 20020101
_QQ_SAMPLE = 997  # over QQ, `_sampled_pivots` draws T values from -997 .. 997


class LinalgError(ArithError):
    pass


# ---------------------------------------------------------------------------
# scalar matrices


class ScalarMatrix:
    """Dense field-entry matrix (row major)."""

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field, data, cols=None):
        self.field = field
        self.data = [list(r) for r in data]
        self.rows = len(self.data)
        if self.rows:
            self.cols = len(self.data[0])
            if any(len(r) != self.cols for r in self.data):
                raise LinalgError("ragged rows")
        else:
            self.cols = 0 if cols is None else cols

    def submatrix(self, row_idx, col_idx):
        return ScalarMatrix(
            self.field, [[self.data[i][j] for j in col_idx] for i in row_idx], len(col_idx)
        )

    def __repr__(self):
        return "ScalarMatrix(%dx%d over %s)" % (self.rows, self.cols, self.field)


def _int_rows(p, data):
    """Integer copies of the rows, reduced mod p when p > 0.

    A row with fractions is first multiplied by the lcm of its denominators;
    a nonzero scale keeps its span, so ranks and pivots are unchanged.
    """
    out = []
    for row in data:
        if any(type(x) is not int for x in row):
            den = math.lcm(*[x.denominator for x in row])
            row = [int(x * den) for x in row]
        out.append([x % p for x in row] if p else list(row))
    return out


def _primitive(row):
    """The integer row divided by the gcd of its entries."""
    g = math.gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _rref(p, data):
    """Reduced row echelon form of `data`: (nonzero rows, pivot columns).

    The one row reduction of the package; rank, kernel, span reduction and
    minor selection are read off its output.  Rows stay integer: over QQ
    (p = 0) they are eliminated fraction-free, cross-multiplying and then
    dividing by the content; mod p every pivot is 1.  Each row is zero at the
    other rows' pivot columns.
    """
    rows = _int_rows(p, data)
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        sel = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        if p:
            s = pow(rows[r][c], -1, p)
            prow = rows[r] = [x * s % p for x in rows[r]]
        else:
            prow = rows[r] = _primitive(rows[r])
        pc = prow[c]
        for i, row in enumerate(rows):
            ic = row[c]
            if not ic or i == r:
                continue
            if p:
                rows[i] = [(a - ic * b) % p for a, b in zip(row, prow)]
            else:
                rows[i] = _primitive([pc * a - ic * b for a, b in zip(row, prow)])
        pivots.append(c)
        if len(pivots) == len(rows):
            break
    return rows[: len(pivots)], pivots


def _kernel(p, data, ncols):
    """(rank, kernel basis, free columns) of the rows, read off their RREF.

    With L the lcm of the pivot entries, the vector of free column f has L at
    f and -(L / row[c]) * row[f] at the pivot column c of each row.  This is
    exact because the rows vanish at each other's pivots.  Over QQ the vector
    is then divided by its gcd, so it is primitive and positive at f; mod p
    the pivots are 1, so L is 1.
    """
    rows, pivots = _rref(p, data)
    taken = set(pivots)
    free = [c for c in range(ncols) if c not in taken]
    lcm = math.lcm(*[row[c] for row, c in zip(rows, pivots)])
    basis = []
    for f in free:
        vec = [0] * ncols
        vec[f] = lcm
        for row, c in zip(rows, pivots):
            if row[f]:
                vec[c] = -(lcm // row[c]) * row[f]
        basis.append([x % p for x in vec] if p else _primitive(vec))
    return len(pivots), basis, free


def rank_and_kernel(m):
    """(rank, kernel basis) with deterministic reduced-echelon kernel vectors.

    Over QQ kernel vectors are primitive integer vectors, positive at their
    own free coordinate; over GF(p) that coordinate is 1.
    """
    rank, basis, _ = rref_kernel_data(m)
    return rank, basis


def rref_kernel_data(m):
    """(rank, kernel basis, free columns) from one row-reduction pass."""
    rank, basis, free = _kernel(m.field.char, m.data, m.cols)
    if basis:
        is_zero = m.field.is_zero
        sparse = [[(j, a) for j, a in enumerate(row) if a] for row in m.data]
        for v in basis:
            for row in sparse:
                if not is_zero(sum([a * v[j] for j, a in row])):
                    raise ConsistencyError("kernel vector fails A*v = 0")
    return rank, basis, free


def scalar_rank(field, data):
    return len(_rref(field.char, data)[1])


# ---------------------------------------------------------------------------
# T-affine matrices


def _part_monos(ring):
    """The monomials 1, T_1 .. T_k that the parts A_0, A_1 .. A_k multiply."""
    return [ring.one_mono] + [ring.var_mono(i) for i in range(ring.nx, ring.nv)]


class PolyMatrix:
    """Matrix over k[T] with entries affine in T: A_0 + T_1*A_1 + ... + T_k*A_k.

    `parts` holds the scalar matrices A_0 .. A_k (row major), one per T of
    the ring in declared order; entries are canonical field elements.  The
    constructor takes rows of Poly entries and raises LinalgError on an
    entry that is not affine in T; `from_parts` takes the parts themselves.
    """

    __slots__ = ("ring", "rows", "cols", "parts")

    def __init__(self, ring, data, cols=None):
        data = [list(r) for r in data]
        rows = len(data)
        if rows:
            cols = len(data[0])
            if any(len(r) != cols for r in data):
                raise LinalgError("ragged rows")
        cols = cols or 0
        slot = {mono: t for t, mono in enumerate(_part_monos(ring))}
        parts = [[[0] * cols for _ in range(rows)] for _ in slot]
        for i, row in enumerate(data):
            for j, e in enumerate(row):
                for mono, c in e.terms.items():
                    t = slot.get(mono)
                    if t is None:
                        raise LinalgError("entry %r is not affine in T" % e)
                    parts[t][i][j] = c
        self.ring, self.rows, self.cols, self.parts = ring, rows, cols, parts

    @classmethod
    def from_parts(cls, ring, parts, cols):
        """The matrix with parts A_0 .. A_k, taken as they are (not copied)."""
        if len(parts) != ring.nv - ring.nx + 1:
            raise LinalgError("%d parts for %d T variables" % (len(parts), ring.nv - ring.nx))
        m = cls.__new__(cls)
        m.ring, m.rows, m.cols, m.parts = ring, len(parts[0]), cols, parts
        return m

    def submatrix(self, row_idx, col_idx):
        parts = [[[P[i][j] for j in col_idx] for i in row_idx] for P in self.parts]
        return PolyMatrix.from_parts(self.ring, parts, len(col_idx))

    def evaluate(self, values, rows=None):
        """Rows `rows` (default all) of A_0 + values[0]*A_1 + ... + values[k-1]*A_k."""
        if len(values) != len(self.parts) - 1:
            raise LinalgError("%d values for %d T variables" % (len(values), len(self.parts) - 1))
        canon = self.ring.field.canon
        out = []
        for i in range(self.rows) if rows is None else rows:
            acc = self.parts[0][i]
            for x, P in zip(values, self.parts[1:]):
                if x:
                    acc = [a + x * b for a, b in zip(acc, P[i])]
            out.append([canon(a) for a in acc])
        return out

    @property
    def data(self):
        """The entries as rows of Polys."""
        ring = self.ring
        monos = _part_monos(ring)
        return [
            [Poly(ring, {mono: P[i][j] for mono, P in zip(monos, self.parts) if P[i][j]})
             for j in range(self.cols)]
            for i in range(self.rows)
        ]

    def __repr__(self):
        return "PolyMatrix(%dx%d over %s)" % (self.rows, self.cols, self.ring)


def _column_primitive_scales(m):
    """Over QQ: per-column rational c_j with column*c_j primitive integer.

    Returns (scaled int-coefficient data as term dicts, product of the c_j).
    Over GF(p) it is the identity transform.
    """
    data = [[e.terms for e in row] for row in m.data]
    total = Fraction(1)
    if m.ring.field.char:
        return data, total
    for j in range(m.cols):
        content = rational_content(c for row in data for c in row[j].values())
        if not content:
            continue
        cj = 1 / content
        total *= cj
        for row in data:
            row[j] = {mm: int(c * cj) for mm, c in row[j].items()}
    return data, total


def _dict_sub(A, B):
    out = dict(A)
    for m, c in B.items():
        v = out.get(m, 0) - c
        if v:
            out[m] = v
        else:
            out.pop(m, None)
    return out


def _bareiss_divide(A, B, ring):
    """The exact quotient A / B of one Bareiss step.

    Sylvester's identity makes it exact, with integer coefficients over QQ
    (the columns were scaled to integers); anything else is a defect.
    """
    try:
        q = _divide_terms(A, B, ring)
    except NotDivisibleError:
        raise LinalgError("internal exact division failed (non-divisible)") from None
    if any(type(c) is not int for c in q.values()):
        raise LinalgError("internal exact division failed (coefficient)")
    return q


def det_fraction_free(m):
    """Exact determinant of a square PolyMatrix, by one of two engines.

    When the ring has at most three T variables (plane-curve maps: strand
    maps and their minors, Sylvester matrices, Kravitsky pencils), the
    determinant is interpolated from scalar determinants of the parts'
    combinations on an integer grid (`_det_on_grid`).  Otherwise, and over
    GF(p) when a degree bound reaches p, Bareiss elimination runs on the
    entries as polynomials (`_det_bareiss`).  Both give the same polynomial:
    over QQ each undoes its internal rescaling, so the result is exact, not
    up to a unit.
    """
    if m.rows != m.cols:
        raise LinalgError("determinant of non-square matrix")
    ring = m.ring
    if m.rows == 0:
        return ring.one
    if m.rows == 1:
        return m.data[0][0]
    if ring.nv - ring.nx <= _GRID_MAX_T:
        det = _det_on_grid(m)
        if det is not None:
            return det
    return _det_bareiss(m)


def _det_bareiss(m):
    """Determinant of a square PolyMatrix of size >= 1 by Bareiss elimination.

    Exact divisions keep the polynomial entries in the coefficient ring; the
    column rescaling over QQ is undone at the end.
    """
    ring = m.ring
    n = m.rows
    a, scale = _column_primitive_scales(m)
    sign = 1
    prev = None
    for k in range(n - 1):
        # sparsest nonzero pivot in column k (fewest terms, then lowest row)
        sel = None
        best = None
        for i in range(k, n):
            e = a[i][k]
            if e:
                key = (len(e), i)
                if best is None or key < best:
                    best = key
                    sel = i
        if sel is None:
            return ring.zero
        if sel != k:
            a[k], a[sel] = a[sel], a[k]
            sign = -sign
        akk = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            row_i = a[i]
            row_k = a[k]
            new_row = [{}] * (k + 1)
            for j in range(k + 1, n):
                t = _mul_terms(akk, row_i[j], ring)
                if aik:
                    t = _dict_sub(t, _mul_terms(aik, row_k[j], ring))
                if prev is not None and t:
                    t = _bareiss_divide(t, prev, ring)
                new_row.append(t)
            a[i] = new_row
        prev = akk
    final = a[n - 1][n - 1]
    if sign < 0:
        final = {mm: -c for mm, c in final.items()}
    det = Poly(ring, ring.field.reduce_terms(final))
    if scale == 1:
        return det
    return det * (1 / scale)


# ---------------------------------------------------------------------------
# determinants by evaluation and interpolation

_GRID_MAX_T = 3  # the grid engine takes rings with at most this many T's


def _det_on_grid(m):
    """Determinant of a square PolyMatrix of size >= 1 by evaluation and
    interpolation (Marco & Martinez, CAGD 18, 2001); None where it does not
    apply: over GF(p), when a degree bound reaches p.

    With m = A_0 + sum_i T_i*A_i, the determinant has degree at most the
    number of rows where A_i is nonzero in T_i, and total degree at most the
    number of rows where some A_i with i >= 1 is.  When A_0 = 0 it is
    homogeneous of degree n: one occurring T is set to 1 (the one leaving
    the smallest grid) and restored at the end.  The determinant is
    evaluated at the integer points within these bounds (`_grid`) and read
    back by Newton interpolation (`_interpolate`).  Over QQ each row is
    first made a primitive integer row, and the product of the scales is
    kept, so every value is an integer determinant.
    """
    ring = m.ring
    field = ring.field
    p = field.char
    n, parts = m.rows, m.parts
    live = [{t for t, part in enumerate(parts) if any(part[i])} for i in range(n)]
    if not all(live):
        return ring.zero

    def bounds(axes):
        return [sum(a in ts for ts in live) for a in axes], sum(not ts.isdisjoint(axes) for ts in live)

    used = sorted(set().union(*live) - {0})
    one = None  # the T set to 1 when the determinant is homogeneous
    if not any(0 in ts for ts in live):
        one = min(used, key=lambda t: len(_grid(*bounds([a for a in used if a != t]))))
    axes = [a for a in used if a != one]
    degs, total = bounds(axes)
    if p and any(b >= p for b in degs):
        return None
    scale = 1
    rows = []  # per row: (base row, [(axis position, coefficient row)])
    for i in range(n):
        vecs = [parts[0 if one is None else one][i]] + [parts[a][i] for a in axes]
        if not p:
            content = rational_content(c for vec in vecs for c in vec)
            scale *= content
            vecs = [[int(c / content) for c in vec] for vec in vecs]
        rows.append((vecs[0], [(k, vec) for k, vec in enumerate(vecs[1:]) if any(vec)]))
    values = {}
    for point in _grid(degs, total):
        mat = []
        for acc, terms in rows:
            for k, vec in terms:
                x = point[k]
                if x:
                    acc = [a + x * b for a, b in zip(acc, vec)]
            mat.append(acc)
        values[point] = _det_scalar(mat, p)
    terms = {}
    for point, c in _interpolate(values, len(axes), p).items():
        if c:
            exps = [0] * (ring.nv - ring.nx)
            for a, e in zip(axes, point):
                exps[a - 1] = e
            if one is not None:
                exps[one - 1] = n - sum(point)
            terms[ring.pack((0,) * ring.nx + tuple(exps))] = c if p else field.canon(c * scale)
    return Poly(ring, terms)


def _grid(bounds, total):
    """The integer points of the box [0, b_1] x ... x [0, b_k] with
    coordinate sum at most `total`, a lower set."""
    points = [()]
    for b in bounds:
        points = [pt + (x,) for pt in points for x in range(b + 1) if sum(pt) + x <= total]
    return points


def _det_scalar(rows, p):
    """Determinant of a square integer matrix (the rows are consumed): mod p
    by Gaussian elimination, over ZZ (p = 0) by fraction-free Bareiss
    elimination, whose divisions are exact by Sylvester's identity.

    Each step drops the pivot column, so row k holds columns k.. only.
    """
    if p:
        rows = [[x % p for x in r] for r in rows]
    n = len(rows)
    det = prev = 1
    for k in range(n):
        sel = next((i for i in range(k, n) if rows[i][0]), None)
        if sel is None:
            return 0
        if sel != k:
            rows[k], rows[sel] = rows[sel], rows[k]
            det = -det
        pivot = rows[k][0]
        rest = rows[k][1:]
        if p:
            det = det * pivot % p
            inv = pow(pivot, -1, p)
        for i in range(k + 1, n):
            row = rows[i]
            a = row[0] * inv % p if p else row[0]
            if not a:
                rows[i] = row[1:] if p else [pivot * x // prev for x in row[1:]]
            elif p:
                rows[i] = [(x - a * y) % p for x, y in zip(row[1:], rest)]
            else:
                rows[i] = [(pivot * x - a * y) // prev for x, y in zip(row[1:], rest)]
        prev = pivot
    return det if p else det * prev


def _interpolate(values, k, p):
    """Monomial coefficients {exponents: c} of the polynomial in k variables
    that takes `values` ({point: value}) on a lower set of integer points.

    The polynomial's support must lie in that set.  Newton divided
    differences run along each axis in turn at the nodes 0, 1, 2, ...; then
    each axis goes back from the Newton basis prod_{l<i} (x - l) to powers
    of x.  Over QQ (p = 0) the values are those of an integer polynomial, so
    every divided difference is an integer; a remainder is a defect and
    raises LinalgError.
    """
    c = dict(values)
    lines = []
    for axis in range(k):
        by_rest = {}
        for point in sorted(c):
            by_rest.setdefault(point[:axis] + point[axis + 1:], []).append(point)
        lines.append(list(by_rest.values()))
    for axis_lines in lines:
        for line in axis_lines:
            f = [c[pt] for pt in line]
            for j in range(1, len(f)):
                inv = pow(j, -1, p) if p else None
                for i in range(len(f) - 1, j - 1, -1):
                    d = f[i] - f[i - 1]
                    if p:
                        f[i] = d * inv % p
                    else:
                        f[i], r = divmod(d, j)
                        if r:
                            raise LinalgError("interpolation: inexact divided difference")
            c.update(zip(line, f))
    for axis_lines in lines:
        for line in axis_lines:
            f = [c[pt] for pt in line]
            poly = [f[-1]]
            for j in range(len(f) - 2, -1, -1):
                # poly * (x - j) + f[j]
                poly = [f[j] - j * poly[0]] + [
                    a - j * b for a, b in zip(poly, poly[1:] + [0])
                ]
            c.update(zip(line, [x % p for x in poly] if p else poly))
    return c


# ---------------------------------------------------------------------------
# minor selection


def _sample_size(p):
    """How many values `_sampled_pivots` draws each T from: 1 .. p-1 over GF(p)."""
    return p - 1 if p else 2 * _QQ_SAMPLE + 1


def _sampled_pivots(m, rng, rows):
    """Pivot columns of m's rows `rows` at a random point of the T variables.

    Over QQ the values are reduced mod one large prime, so no fractions
    enter the elimination.  The rank found this way can only fall short of
    the generic rank; callers retry, or check the minor exactly.
    """
    p = m.ring.field.char
    point = [rng.randrange(1, p) if p else rng.randint(-_QQ_SAMPLE, _QQ_SAMPLE) for _ in m.parts[1:]]
    return _rref(p or _RECON_PRIME, m.evaluate(point, rows))[1]
