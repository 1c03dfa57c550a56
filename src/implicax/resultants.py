"""Classical resultant matrices for binary forms: Sylvester, Bezout, and the
three-form Bezout pencil (Kravitsky).  A plane curve's implicit equation is
one determinant of the pencil, which also serves as an independent
cross-check on the strand determinant.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """Homogeneous binary form: coefficients c_0..c_d of X1^(d-j) X2^j.

    Coefficients are polynomials in the T bank (constants for plain forms),
    so combinations like f1 - T1*f3 stay in one type.
    """

    def __init__(self, ring, coeffs):
        self.ring = ring
        self.coeffs = list(coeffs)
        if not self.coeffs:
            raise ImplicaxError("empty coefficient list")
        self.degree = len(self.coeffs) - 1

    def is_zero(self):
        return all(not c.terms for c in self.coeffs)

    def __repr__(self):
        return "BinaryForm(deg %d; %s)" % (
            self.degree,
            ", ".join(str(c) for c in self.coeffs),
        )


def binary_form(param_or_ring, p):
    """Extract the coefficient list of a binary X-form as a BinaryForm."""
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
    coeffs = []
    for j in range(d + 1):
        mono = ring.pack(tuple([d - j, j] + [0] * (ring.nv - 2)))
        c = p.terms.get(mono, 0)
        coeffs.append(ring.const(c))
    return BinaryForm(ring, coeffs)


def sylvester_matrix(p, q):
    """The (dp+dq) x (dp+dq) Sylvester matrix of two binary forms."""
    if p.is_zero() or q.is_zero():
        raise ImplicaxError("Sylvester matrix of a zero form")
    dp, dq = p.degree, q.degree
    if dp < 1 or dq < 1:
        raise ImplicaxError("forms must have degree >= 1")
    ring = p.ring
    n = dp + dq
    zero = ring.zero
    rows = []
    for i in range(dq):
        rows.append([zero] * i + list(p.coeffs) + [zero] * (n - dp - 1 - i))
    for i in range(dp):
        rows.append([zero] * i + list(q.coeffs) + [zero] * (n - dq - 1 - i))
    return PolyMatrix(ring, rows, n)


def bezout_matrix(p, q):
    """Bezout matrix (c_ij) from (p(S,1)q(T,1) - p(T,1)q(S,1)) / (S - T).

    Rows are indexed by the S exponent, columns by the T exponent; the
    matrix is symmetric.
    """
    if p.degree != q.degree:
        raise ImplicaxError(
            "Bezout matrix needs equal degrees, got %d and %d" % (p.degree, q.degree)
        )
    d = p.degree
    if d < 1:
        raise ImplicaxError("forms must have degree >= 1")
    ring = p.ring
    # a_m, b_m = coefficients of S^m
    a = [p.coeffs[d - m] for m in range(d + 1)]
    b = [q.coeffs[d - m] for m in range(d + 1)]
    num = {}
    for i in range(d + 1):
        for j in range(d + 1):
            if i == j:
                continue
            c = a[i] * b[j]
            if c.terms:
                key = (i, j)
                num[key] = num.get(key, ring.zero) + c
                key2 = (j, i)
                num[key2] = num.get(key2, ring.zero) - c
    num = {k: v for k, v in num.items() if v.terms}
    # divide by S - T, leading term S under lex S > T
    quot = [[ring.zero] * d for _ in range(d)]
    while num:
        i, j = max(num)
        c = num.pop((i, j))
        if not c.terms:
            continue
        if i == 0:
            raise ImplicaxError("Bezout numerator not divisible by S - T")
        quot[i - 1][j] = quot[i - 1][j] + c
        key = (i - 1, j + 1)
        prev = num.get(key, ring.zero)
        nv = prev + c
        if nv.terms:
            num[key] = nv
        else:
            num.pop(key, None)
    return PolyMatrix(ring, quot, d)


def kravitsky_pencil(f1, f2, f3):
    """T1*Bez(f2,f3) + T2*Bez(f3,f1) + T3*Bez(f1,f2) as a d x d pencil."""
    if not (f1.degree == f2.degree == f3.degree):
        raise ImplicaxError("pencil needs three forms of one degree")
    if not all(c.is_constant() for f in (f1, f2, f3) for c in f.coeffs):
        raise ImplicaxError("pencil needs forms with constant coefficients")
    ring = f1.ring
    k = ring.nv - ring.nx
    if k < 3:
        raise ImplicaxError("ring carries fewer than three T variables")
    d = f1.degree
    zero = [[0] * d for _ in range(d)]
    bez = [bezout_matrix(a, b).parts[0] for a, b in ((f2, f3), (f3, f1), (f1, f2))]
    return PolyMatrix.from_parts(ring, [zero] + bez + [zero] * (k - 3), d)


@dataclass
class CurveResultant:
    """The Kravitsky pencil of a plane curve and what its determinant gives."""

    pencil: PolyMatrix  # T1*Bez(f2,f3) + T2*Bez(f3,f1) + T3*Bez(f1,f2)
    determinant: Poly  # det of the pencil, before normalization
    homogeneous: Poly  # the normalized determinant, in T1, T2, T3
    dehomogenized: Poly  # Res(f1 - T1 f3, f2 - T2 f3) in T1, T2, normalized


def curve_implicitize_resultant(param):
    """Implicit power of a plane curve as one Kravitsky pencil determinant.

    Requires three polynomials with trivial gcd (resultant methods need no
    base points).  The dehomogenized equation is read off the same
    determinant at T3 = 1: by bilinearity and antisymmetry
    Bez(T3 f1 - T1 f3, T3 f2 - T2 f3) = T3 * pencil, and det Bez = +-Res for
    two forms of one formal degree, so the pencil determinant at T3 = 1 is
    +-Res(f1 - T1 f3, f2 - T2 f3); normalization removes the sign.
    """
    if param.n != 3:
        raise UsageError("resultant implicitization needs exactly 3 polynomials")
    param.require_map_shape()
    if any(not p.terms for p in param.polys):
        raise ImplicaxError("zero entry in the parameterization")
    g = multivariate_gcd(multivariate_gcd(param.polys[0], param.polys[1]), param.polys[2])
    if not g.is_constant():
        raise HypothesisViolation(
            "common factor %s present; divide it out before using resultants" % g
        )
    pencil = kravitsky_pencil(*[binary_form(param, p) for p in param.polys])
    det = det_fraction_free(pencil)
    if not det.terms:
        raise HypothesisViolation("resultant vanished identically")
    dehom = det.evaluate({param.t_names()[2]: 1})
    return CurveResultant(pencil, det, normalize(det), normalize(dehom))
