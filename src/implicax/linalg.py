"""Exact linear algebra over a field and over k[T].

One matrix type, PolyMatrix, a matrix affine in T stored as its scalar parts
A_0 + sum_i T_i*A_i (strand maps, Sylvester and Bezout matrices, Kravitsky
pencils).  A matrix of field scalars is a plain list of rows.  Rank, kernel,
span membership and minor selection are read off the package's one integer
row reduction, `arith._rref` (with the checked kernel `rref_kernel_data`),
which lives in `arith` beside the one gcd that reads its cofactor kernels
off it: Gauss-Jordan elimination on sparse rows, each pivot updating only
the rows that hold its column.  A vector lies in the span of some rows
exactly when it is orthogonal to their kernel (the annihilator), so span
membership needs no loop of its own.  A PolyMatrix is reduced at a random
point of T, where its value is a combination of the parts' rows.
Determinants have one elimination loop, `_det_scalar` (fraction-free Bareiss
elimination; Gaussian mod p), and `det_fraction_free` feeds it by the
matrix's density: when at least half of the entries are nonzero, integer
matrices on a grid, whose values are interpolated (`_det_on_grid`);
otherwise the entries as polynomials, whose products and exact quotients are
Poly's (`_det_bareiss`).  On the grid, one axis is read off the digits of
one exact integer determinant per line of the grid (Kronecker substitution),
unless the digits would be too wide; then one determinant per point.  Over
QQ both engines first make every row a primitive integer row
(`_integer_parts`) and restore the product of the scales at the end, so
results are exact, not "up to unit".  On symmetric integer rows the
elimination updates only the upper triangle.  Every plane-curve
determinant (the Kravitsky pencil, and the strand's first map on the
Bezoutian lines) is symmetric, and so are its integer rows over GF(p), and
over QQ when its rows' contents agree.
"""

from __future__ import annotations

from math import prod

from .arith import _PRIMES, ArithError, Poly, _rref, rational_content

__all__ = [
    "PolyMatrix",
    "LinalgError",
    "det_fraction_free",
]

DEFAULT_SEED = 20020101
_QQ_SAMPLE = 997  # over QQ, `_sampled_pivots` draws T values from -997 .. 997


class LinalgError(ArithError):
    pass


def scalar_rank(field, data):
    """Rank of a matrix of field scalars, given as its list of rows."""
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


def _integer_parts(m):
    """(s, parts): m's parts with each row made a primitive integer row over
    QQ, and s the product of the rows' rational contents, so det m is s times
    the determinant of the new parts.  Over GF(p), (1, m.parts)."""
    if m.ring.field.char:
        return 1, m.parts
    scale = 1
    parts = [[] for _ in m.parts]
    for i in range(m.rows):
        vecs = [P[i] for P in m.parts]
        content = rational_content(c for vec in vecs for c in vec if c) or 1
        if content != 1:
            scale *= content
            num, den = content.numerator, content.denominator
            vecs = [[c * den // num for c in vec] for vec in vecs]
        for P, vec in zip(parts, vecs):
            P.append(vec)
    return scale, parts


def det_fraction_free(m):
    """Exact determinant of a square PolyMatrix.

    The one elimination loop, `_det_scalar`, is fed in one of two ways,
    chosen by the share of nonzero entries, for any number of T's.  When at
    least half of the n^2 entries are nonzero (curve matrices, dense surface
    pencils and their sign recombinations), it takes integer matrices on the
    lines (or points) of a grid and the determinant is interpolated from
    their values (`_det_on_grid`).  Otherwise (sparse strand minors, on which
    symbolic elimination fills in little), and over GF(p) when a degree
    bound reaches p, it takes the entries as polynomials (`_det_bareiss`).
    Both give the same polynomial: over QQ each undoes its row scaling, so
    the result is exact, not up to a unit.
    """
    if m.rows != m.cols:
        raise LinalgError("determinant of non-square matrix")
    n = m.rows
    nonzero = sum(sum(map(any, zip(*[P[i] for P in m.parts]))) for i in range(n))
    if 2 * nonzero >= n * n:
        det = _det_on_grid(m)
        if det is not None:
            return det
    return _det_bareiss(m)


def _det_bareiss(m):
    """Determinant of a square PolyMatrix by `_det_scalar` on its entries.

    Over QQ the rows are primitive integer rows first (`_integer_parts`), so
    every exact division stays in ZZ[T]; a non-integer coefficient there is a
    defect.  The rows' scale is restored at the end.
    """
    scale, parts = _integer_parts(m)
    rows = PolyMatrix.from_parts(m.ring, parts, m.cols).data
    if any(type(c) is not int for row in rows for e in row for c in e.terms.values()):
        raise LinalgError("a non-integer coefficient reached the elimination")
    return m.ring.const(scale) * _det_scalar(rows, 0, lambda e: len(e.terms))


# ---------------------------------------------------------------------------
# determinants by evaluation and interpolation

# Widest packed line, n*B bits for n rows and B-bit digits, that
# `_det_on_grid` reads off one determinant: Bareiss on the packed rows meets
# integers of about n*B bits.  Points -> lines on dense homogeneous n x n
# pencils in three T's (n*B in brackets; best of 3, Python 3.11.7, 2 vCPUs):
# GF(65521) n=6 [672] 2.61 -> 1.36 ms, n=8 [1208] 6.41 -> 4.74 ms, n=10
# [1910] 13.8 -> 15.7 ms, n=12 [2784] 26.4 -> 55.0 ms; QQ n=10 [1610] 15.2
# -> 12.8 ms, n=8 [2280] 8.2 -> 9.3 ms, n=10 [3600] 21.1 -> 41.0 ms.  A gate
# on B alone would send the GF(65521) 12 x 12 (B = 232) to lines.  These
# pencils were not symmetric, so the times are the general loop's; the
# symmetric branch of `_det_scalar` makes lines cheaper, and the gate was
# left where these times put it.
_KRONECKER_WIDTH = 1800


def _det_on_grid(m):
    """Determinant of a square PolyMatrix by evaluation and interpolation
    (Marco & Martinez, CAGD 18, 2001); None where it does not apply: over
    GF(p), when a degree bound reaches p.

    With m = A_0 + sum_i T_i*A_i, the determinant has degree at most the
    number of rows where A_i is nonzero in T_i, and total degree at most the
    number of rows where some A_i with i >= 1 is.  When A_0 = 0 it is
    homogeneous of degree n: one occurring T is set to 1 and restored at the
    end.  Over QQ each row is first made a primitive integer row
    (`_integer_parts`), and the product of the scales is kept, so every
    value is an integer determinant.  Symmetric parts stay symmetric under
    balanced residues over GF(p), and over QQ when the rows' contents agree;
    every line A + 2^B*C is then symmetric and takes `_det_scalar`'s
    upper-triangle branch.

    One axis x is read off Kronecker digits (von zur Gathen & Gerhard, MCA
    8.4): one exact integer determinant per line, not one per point.  At
    each point `head` of the grid over the other axes (`_grid`), the rows
    are a_i + x*c_i, over GF(p) lifted to balanced residues.  Expanded over
    permutations s, det(A + x*C) sums the products
    prod_i (a_i,s(i) + x*c_i,s(i)), each of coefficient 1-norm at most
    prod_i (|a_i,s(i)| + |c_i,s(i)|), and these are distinct terms of
    prod_i sum_j (|a_ij| + |c_ij|).  That product bounds every coefficient,
    so with B two bits longer (`_digit_bits`) the balanced base-2^B digits
    of the determinant at x = 2^B (`_det_scalar` with p = 0, exact in ZZ)
    are the coefficients; reduced mod p over GF(p).  A digit left past the
    degree bound raises LinalgError.  The coefficient of x^e has total
    degree at most total - e, so it is kept at heads of coordinate sum up
    to that, and the other axes are interpolated (`_interpolate`) with the
    exponent of x carried along.  The T of largest degree bound is set to 1
    (when A_0 = 0) and the T of the next-largest is the digit axis, ties
    going to the first T, so the lower set left has the smallest bounds.
    Any choice gives the same polynomial; the choice only sets the count.

    Gate: B is taken once per matrix, before any determinant, at the largest
    head coordinates, so it holds for every line.  When n*B exceeds
    `_KRONECKER_WIDTH`, or there is no axis, the matrix takes one
    determinant per point of the whole grid instead, with the same T set to
    1, and every axis is interpolated.
    """
    ring = m.ring
    field = ring.field
    p = field.char
    n = m.rows
    scale, parts = _integer_parts(m)
    live = [{t for t, part in enumerate(parts) if any(part[i])} for i in range(n)]
    if not all(live):
        return ring.zero
    used = sorted(set().union(*live) - {0})
    deg = {a: sum(a in ts for ts in live) for a in used}
    ranked = sorted(used, key=deg.get, reverse=True)
    one = ranked.pop(0) if ranked and not any(0 in ts for ts in live) else None
    kron = ranked[0] if ranked else None
    axes = [a for a in used if a not in (one, kron)] + ([kron] if kron else [])
    degs = [deg[a] for a in axes]
    total = sum(not ts.isdisjoint(axes) for ts in live)
    if kron:
        if p:  # balanced residues
            parts = [[[c - p if 2 * c > p else c for c in row] for row in part] for part in parts]
        base, digit = parts[0 if one is None else one], parts[kron]
        # |a_ij| at any head, whose coordinates reach min(bound, total)
        weighted = [(min(b, total), parts[a]) for b, a in zip(degs, axes[:-1])]
        sizes = []
        for i in range(n):
            size = 0
            for j in range(n):
                a = abs(base[i][j]) + sum(w * abs(part[i][j]) for w, part in weighted)
                size += (min(a, p // 2) if p else a) + abs(digit[i][j])
            sizes.append(size)
        bits = _digit_bits(sizes)
        if n * bits > _KRONECKER_WIDTH:
            kron = None
    if p and any(b >= p for b in degs):
        return None
    base = parts[0 if one is None else one]
    moving = axes[:-1] if kron else axes
    # per row: (base row, [(axis position, coefficient row)])
    rows = [
        (base[i], [(k, parts[a][i]) for k, a in enumerate(moving) if any(parts[a][i])])
        for i in range(n)
    ]

    def at(point):
        mat = []
        for acc, terms in rows:
            for k, vec in terms:
                x = point[k]
                if x:
                    acc = [a + x * b for a, b in zip(acc, vec)]
            mat.append(acc)
        return mat

    values = {}
    if kron is None:
        for point in _grid(degs, total):
            values[point] = _det_scalar(at(point), p)
    else:
        shifted = [[c << bits for c in row] for row in digit]
        mask, top, half = (1 << bits) - 1, 1 << (bits - 1), p // 2
        for head in _grid(degs[:-1], total):
            mat = at(head)
            if p:
                mat = [[(a + half) % p - half for a in row] for row in mat]
            v = _det_scalar([[a + c for a, c in zip(row, crow)] for row, crow in zip(mat, shifted)], 0)
            # the coefficient of x^e has total degree <= total - e in the
            # head axes, so it is read at heads up to that sum
            for e in range(min(degs[-1], total) + 1):
                d = ((v + top) & mask) - top  # balanced digit
                v = (v - d) >> bits
                if e <= total - sum(head):
                    values[head + (e,)] = d % p if p else d
            if v:
                raise LinalgError("a Kronecker line has digits past its degree bound")
    terms = {}
    for point, c in _interpolate(values, len(moving), p).items():
        if c:
            exps = [0] * (ring.nv - ring.nx)
            for a, e in zip(axes, point):
                exps[a - 1] = e
            if one is not None:
                exps[one - 1] = n - sum(point)
            terms[ring.pack((0,) * ring.nx + tuple(exps))] = c if p else field.canon(c * scale)
    return Poly(ring, terms)


def _digit_bits(sizes):
    """Bits B per Kronecker digit of det(A + x*C) when row i has
    sum_j (|a_ij| + |c_ij|) <= sizes[i]: 2^(B-2) exceeds the coefficient
    bound prod(sizes) (proof in `_det_on_grid`)."""
    return prod(sizes).bit_length() + 2


def _grid(bounds, total):
    """The integer points of the box [0, b_1] x ... x [0, b_k] with
    coordinate sum at most `total`, a lower set."""
    points = [()]
    for b in bounds:
        points = [pt + (x,) for pt in points for x in range(b + 1) if sum(pt) + x <= total]
    return points


def _det_scalar(rows, p, size=None):
    """Determinant of a square matrix (the rows are consumed): of integers
    mod p by Gaussian elimination; for p = 0 by fraction-free Bareiss
    elimination, whose divisions `//` are exact by Sylvester's identity.  The
    p = 0 loop is the package's one for exact determinants: it runs on
    integers and on Poly entries alike (`_det_bareiss`).

    The pivot is the first nonzero entry of its column, or with `size` the
    first of least size: on polynomial entries the sparsest pivot keeps the
    fill-in down.  Each step drops the pivot column, so row k holds columns
    k.. only.

    Symmetric integer rows (p = 0, no `size`) keep only their upper
    triangle, row i holding columns i.. .  By Sylvester's identity, while no
    rows are swapped, entry (i, j) after the steps on pivots 0..k-1 is the
    minor of M on rows 0..k-1, i and columns 0..k-1, j; for (j, i) that
    submatrix is transposed, so every step leaves the block symmetric.  Row
    i's entry in the pivot column is then row k's entry in column i, and
    only j >= i is updated: sum (n-k)(n-k+1)/2 updates in place of
    sum (n-k)^2.  A zero pivot would swap rows, so there the rows left are
    mirrored back to full rows and the general loop goes on from that step.
    """
    n = len(rows)
    det = prev = 1
    start = 0  # the general loop's first step
    if p:
        rows = [[x % p for x in r] for r in rows]
    elif size is None and _symmetric(rows):
        rows = [r[i:] for i, r in enumerate(rows)]
        for start in range(n):
            top = rows[start]
            pivot = top[0]
            if not pivot:
                rows[start:] = [
                    [rows[j][i - j] for j in range(start, i)] + rows[i] for i in range(start, n)
                ]
                break
            for i in range(start + 1, n):
                a = top[i - start]
                rows[i] = [(pivot * x - a * y) // prev for x, y in zip(rows[i], top[i - start:])]
            prev = pivot
        else:
            return prev
    for k in range(start, n):
        sel = next((i for i in range(k, n) if rows[i][0]), None)
        if sel is None:
            return 0
        if size:
            sel = min((i for i in range(sel, n) if rows[i][0]), key=lambda i: size(rows[i][0]))
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
            if p:
                rows[i] = [(x - a * y) % p for x, y in zip(row[1:], rest)] if a else row[1:]
            else:  # (pivot*x - a*y) // prev, skipping zero terms
                rows[i] = [
                    (pivot * x - a * y) // prev if a and y else pivot * x // prev if x else x
                    for x, y in zip(row[1:], rest)
                ]
        prev = pivot
    return det if p else det * prev


def _symmetric(rows):
    """Whether a square matrix, given as its list of rows, is symmetric."""
    return all(r == list(c) for r, c in zip(rows, zip(*rows)))


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

    Over QQ the values are reduced mod one large prime, `arith._PRIMES[0]`,
    so no fractions enter the elimination.  The rank found this way can only
    fall short of the generic rank; callers retry, or check the minor
    exactly.
    """
    p = m.ring.field.char
    point = [rng.randrange(1, p) if p else rng.randint(-_QQ_SAMPLE, _QQ_SAMPLE) for _ in m.parts[1:]]
    return _rref(p or _PRIMES[0], m.evaluate(point, rows))[1]
