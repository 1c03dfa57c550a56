"""Classical resultant matrices for binary forms: Sylvester, Bezout, and the
three-form Bezout pencil (Kravitsky).  A plane curve's implicit equation is
one determinant of the pencil.  A binary form's coefficients are field
scalars, so every Sylvester and Bezout matrix here is scalar and the pencil
is linear in T; the T-affine Sylvester matrix of f1 - T1*f3 and f2 - T2*f3,
an independent reference for the pencil's dehomogenized determinant, lives
in `tests/helpers.py`.

Cayley's closed form `_bezoutian` also serves the strand route on plane
curves: a nonsingular Bezoutian of two of the forms certifies an empty base
locus (`geometry`), and the columns of the three cyclic Bezoutians are the
basis of (Z_1)_(d-1) there (`strands.z_strand`), so on a curve without base
points the strand's first map is this pencil up to a row permutation.  The
independent reference for those curves is the kernel route, `z_strand`
without a report.
"""

from __future__ import annotations

from dataclasses import dataclass

# multivariate_gcd has no caller here; bench/tracer.py wraps it (ROADMAP item 5 removes it)
from .arith import Poly, multivariate_gcd, normalize
from .errors import HypothesisViolation, ImplicaxError, UsageError
from .linalg import PolyMatrix, det_fraction_free

__all__ = [
    "BinaryForm",
    "binary_form",
    "sylvester_matrix",
    "bezout_matrix",
    "kravitsky_pencil",
    "curve_implicitize_resultant",
    "CurveResultant",
]


class BinaryForm:
    """Homogeneous binary form: coefficients c_0..c_d of X1^(d-j) X2^j, as
    canonical field scalars.  The T-affine Sylvester reference for
    `CurveResultant.dehomogenized` lives in `tests/helpers.py`."""

    def __init__(self, ring, coeffs):
        self.ring = ring
        self.coeffs = [ring.field.canon(c) for c in coeffs]
        if not self.coeffs:
            raise ImplicaxError("empty coefficient list")
        self.degree = len(self.coeffs) - 1

    def is_zero(self):
        return not any(self.coeffs)

    def __repr__(self):
        return "BinaryForm(deg %d; %s)" % (
            self.degree,
            ", ".join(str(c) for c in self.coeffs),
        )


def binary_form(param_or_ring, p):
    """The coefficients of a binary X-form, read off the degree-d X monomials."""
    ring = getattr(param_or_ring, "ring", param_or_ring)
    if ring.nx != 2:
        raise ImplicaxError("binary forms need exactly two X variables")
    if not p.terms:
        raise ImplicaxError("zero form")
    if p.t_degree() > 0:
        raise ImplicaxError("form %r involves T-variables" % p)
    d = p.homogeneous_degree(0, 2)
    if d is None:
        raise ImplicaxError("form %r is not homogeneous" % p)
    return BinaryForm(ring, [p.terms.get(m, 0) for m in ring.x_monomials(d)])


def _scalar_matrix(ring, rows):
    """The square matrix of field scalars `rows` as a PolyMatrix: its parts
    at T_1 .. T_k are zero."""
    n = len(rows)
    zero = [[0] * n for _ in range(n)]
    return PolyMatrix.from_parts(ring, [rows] + [zero] * (ring.nv - ring.nx), n)


def sylvester_matrix(p, q):
    """The (dp+dq) x (dp+dq) Sylvester matrix of two binary forms."""
    if p.is_zero() or q.is_zero():
        raise ImplicaxError("Sylvester matrix of a zero form")
    dp, dq = p.degree, q.degree
    if dp < 1 or dq < 1:
        raise ImplicaxError("forms must have degree >= 1")
    rows = [[0] * i + p.coeffs + [0] * (dq - 1 - i) for i in range(dq)]
    rows += [[0] * i + q.coeffs + [0] * (dp - 1 - i) for i in range(dp)]
    return _scalar_matrix(p.ring, rows)


def _bezoutian(p, q):
    """Rows of the Bezout matrix of two forms of one degree d >= 1, in
    closed form (Cayley).

    With a_m, b_m the coefficients of S^m in p(S,1), q(S,1), the numerator
    p(S)q(T) - p(T)q(S) is the sum over m > l of w (S^m T^l - S^l T^m), with
    w = a_m b_l - a_l b_m, and (S^m T^l - S^l T^m) / (S - T) is the sum of
    S^(l+r) T^(m-1-r) for r = 0 .. m-l-1.
    """
    d = p.degree
    if d < 1:
        raise ImplicaxError("forms must have degree >= 1")
    a = p.coeffs[::-1]
    b = q.coeffs[::-1]
    rows = [[0] * d for _ in range(d)]
    for m in range(1, d + 1):
        for l in range(m):
            w = a[m] * b[l] - a[l] * b[m]
            if w:
                for r in range(m - l):
                    rows[l + r][m - 1 - r] += w
    canon = p.ring.field.canon
    return [[canon(x) for x in row] for row in rows]


def bezout_matrix(p, q):
    """Bezout matrix (c_ij) from (p(S,1)q(T,1) - p(T,1)q(S,1)) / (S - T).

    Rows are indexed by the S exponent, columns by the T exponent; the
    matrix is symmetric.
    """
    if p.degree != q.degree:
        raise ImplicaxError(
            "Bezout matrix needs equal degrees, got %d and %d" % (p.degree, q.degree)
        )
    return _scalar_matrix(p.ring, _bezoutian(p, q))


def kravitsky_pencil(f1, f2, f3):
    """T1*Bez(f2,f3) + T2*Bez(f3,f1) + T3*Bez(f1,f2) as a d x d pencil."""
    if not (f1.degree == f2.degree == f3.degree):
        raise ImplicaxError("pencil needs three forms of one degree")
    ring = f1.ring
    k = ring.nv - ring.nx
    if k < 3:
        raise ImplicaxError("ring carries fewer than three T variables")
    d = f1.degree
    zero = [[0] * d for _ in range(d)]
    return PolyMatrix.from_parts(ring, [zero] + _cyclic_bezoutians(f1, f2, f3) + [zero] * (k - 3), d)


def _cyclic_bezoutians(f1, f2, f3):
    """[Bez(f2, f3), Bez(f3, f1), Bez(f1, f2)] as scalar rows: the pencil's
    parts at T1, T2, T3."""
    return [_bezoutian(a, b) for a, b in ((f2, f3), (f3, f1), (f1, f2))]


@dataclass
class CurveResultant:
    """The Kravitsky pencil of a plane curve and what its determinant gives."""

    pencil: PolyMatrix  # T1*Bez(f2,f3) + T2*Bez(f3,f1) + T3*Bez(f1,f2)
    determinant: Poly  # det of the pencil, before normalization
    homogeneous: Poly  # the normalized determinant, in T1, T2, T3
    dehomogenized: Poly  # Res(f1 - T1 f3, f2 - T2 f3) in T1, T2, normalized


def curve_implicitize_resultant(param):
    """Implicit power of a plane curve as one Kravitsky pencil determinant.

    Requires three polynomials with no common factor (no base points): one
    would be a common root of f1 - T1 f3 and f2 - T2 f3 for every T, so the
    determinant would vanish, which raises HypothesisViolation.  The
    dehomogenized equation is read off the same determinant at T3 = 1: by
    bilinearity and antisymmetry Bez(T3 f1 - T1 f3, T3 f2 - T2 f3) =
    T3 * pencil, and det Bez = +-Res for two forms of one formal degree, so
    the pencil determinant at T3 = 1 is +-Res(f1 - T1 f3, f2 - T2 f3);
    normalization removes the sign.
    """
    if param.n != 3:
        raise UsageError("resultant implicitization needs exactly 3 polynomials")
    param.require_map_shape()
    pencil = kravitsky_pencil(*[binary_form(param, p) for p in param.polys])
    det = det_fraction_free(pencil)
    if not det.terms:
        raise HypothesisViolation("resultant vanished identically: f1, f2, f3 share a factor")
    dehom = det.evaluate({param.t_names()[2]: 1})
    return CurveResultant(pencil, det, normalize(det), normalize(dehom))
