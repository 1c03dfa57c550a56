"""Base-point analysis and degree prediction.

Everything here is exact linear algebra on graded pieces: Hilbert values of
A/I, the eventual (stable) value as the total multiplicity of the base
locus (proven stable from one or two values past the regularity bound
unless it exceeds that bound), the predicted implicit degree d^(n-2) - e,
degreewise saturation, and the Koszul-syzygy comparison B_1 vs Z_1
intersected with the (saturated) ideal times A^n.

Each graded piece I_nu has one route, the echelon basis of `ideal_piece`;
a Hilbert value is |A_nu| minus its size.  Saturation and the restriction of
Z_1 to the (saturated) ideal share one kernel step, `_span_kernel`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arith import Poly, gcd_many
from .errors import ConsistencyError, HypothesisViolation, ImplicaxError
from .linalg import ScalarMatrix, _rref, rank_and_kernel, scalar_rank
from .strands import (
    _koszul_image,
    boundary_basis,
    cycle_basis,
    vector_to_polys,
)

__all__ = [
    "hilbert_value",
    "base_locus_profile",
    "predicted_degree",
    "nu_bound",
    "saturation_piece",
    "ideal_piece",
    "syzygetic_test",
    "SyzygeticReport",
    "BasePointReport",
]


def hilbert_value(param, nu):
    """dim of (A/I)_nu: monomial count minus dim I_nu (`ideal_piece`)."""
    if nu < 0:
        return 0
    return len(param.ring.x_monomials(nu)) - len(ideal_piece(param, nu))


def _regularity_bound(param):
    """t = nx(d-1)+1 for forms of degree d in nx variables (n-1 on a map):
    from degree t on, I agrees with its saturation."""
    return param.ring.nx * (param.d - 1) + 1


def _certified_profile(param):
    """(dim, e, certificate, {degree: Hilbert value read}); see base_locus_profile.

    The certificate names what decided: "empty" (H(t) = 0), "persistence"
    (Gotzmann) or "window" (two values differ, or a plateau e > t).
    """
    n, d = param.n, param.d
    t = _regularity_bound(param)
    e = hilbert_value(param, t)
    values = {t: e}
    if e == 0:
        return -1, 0, "empty", values
    values[t + 1] = hilbert_value(param, t + 1)
    if values[t + 1] == e:
        if e <= t:
            return 0, e, "persistence", values
        for nu in range(t + 2, t + max(n, d) + 1):
            values[nu] = hilbert_value(param, nu)
        if all(v == e for v in values.values()):
            return 0, e, "window", values
    return 1, None, "window", values


def base_locus_profile(param):
    """(dim flag, total multiplicity): -1 empty, 0 finite, 1 positive-dimensional.

    Reads H, the Hilbert function of A/I, from t = nx(d-1)+1, the classical
    regularity bound ((n-1)(d-1)+1 on a map), on, and stops as soon as a
    proof decides:

    * H(t) = 0: I_t = A_t, and I_(nu+1) contains A_1 * I_nu, so I_nu = A_nu
      for every nu >= t and the base locus is empty: (-1, 0).
    * H(t+1) = H(t) = e with 0 < e <= t: I is generated in degree d <= t,
      and e <= t makes the Macaulay bound e^<t> equal to e, so by Gotzmann's
      persistence theorem (Math. Z. 158, 1978; Bruns-Herzog, Cohen-Macaulay
      Rings, Thm 4.3.3) H stays at e for good; e is the total multiplicity of
      the finite base locus: (0, e).
    * H(t+1) != H(t): H has no plateau at t, which signals a base locus of
      dimension >= 1: (1, None).

    Only when H(t+1) = H(t) > t does a window of max(n, d) + 1 values from t
    decide: a constant plateau is e, anything else signals dimension >= 1.
    """
    dim, e, _, _ = _certified_profile(param)
    return dim, e


def predicted_degree(param):
    """d^(n-2) - e; zero means the map is not generically finite."""
    dim, e = base_locus_profile(param)
    if dim > 0:
        raise HypothesisViolation(
            "positive-dimensional base locus: Hilbert values keep growing"
        )
    return param.d ** (param.n - 2) - e


def nu_bound(n, d):
    """Smallest strand degree the implicitization theorems guarantee."""
    if n < 3 or d < 1:
        raise ImplicaxError("need n >= 3 and d >= 1")
    return (n - 2) * (d - 1)


# ---------------------------------------------------------------------------
# graded pieces and reduction helpers


class _SpanReducer:
    """Reduce integer vectors modulo the row span of a set of vectors."""

    def __init__(self, field, vectors):
        self.p = field.char
        self.rows, self.pivots = _rref(self.p, vectors)
        self.lcm = math.lcm(*[row[c] for row, c in zip(self.rows, self.pivots)])

    def reduce(self, vec):
        """L times the residue of vec, with L the lcm of the pivot entries.

        Every vector is scaled by the same L, which callers never see: they
        only take kernels of the reduced vectors or test them for zero.
        """
        p = self.p
        v = [self.lcm * x for x in vec]
        for row, c in zip(self.rows, self.pivots):
            if v[c]:
                f = v[c] // row[c]
                v = [a - f * b for a, b in zip(v, row)]
                if p:
                    v = [a % p for a in v]
        return v

    def contains(self, vec):
        return all(not x for x in self.reduce(vec))


def _span_kernel(field, vectors, width, piece_rows):
    """Echelon kernel basis: coefficient vectors c such that every width-long
    block of sum_k c[k] * vectors[k] lies in the span of `piece_rows`."""
    red = _SpanReducer(field, piece_rows)
    residues = [
        [x for b in range(0, len(vec), width) for x in red.reduce(vec[b : b + width])]
        for vec in vectors
    ]
    constraints = [row for row in zip(*residues) if any(row)]
    return rank_and_kernel(ScalarMatrix(field, constraints, len(vectors)))[1]


def ideal_piece(param, nu):
    """Echelon basis (coefficient rows over the A_nu monomials) of I_nu."""
    return _koszul_image(param, 1, nu)


def saturation_piece(param, nu):
    """Basis of the degree-nu piece of the saturation of I.

    {g in A_nu : g * A_s is contained in I_(nu+s)} for the one shift
    s = max(1, t - nu) with t = `_regularity_bound`, past which I agrees with
    its saturation, so no larger shift adds anything; always contains I_nu.
    """
    ring = param.ring
    s = max(1, _regularity_bound(param) - nu)
    target = {m: k for k, m in enumerate(ring.x_monomials(nu + s))}
    width = len(target)
    shifts = ring.x_monomials(s)
    products = []  # per monomial g of A_nu: the blocks g*u, u in A_s
    for g in ring.x_monomials(nu):
        vec = [0] * (len(shifts) * width)
        for b, u in enumerate(shifts):
            vec[b * width + target[ring.mono_mul(g, u)]] = 1
        products.append(vec)
    kernel = _span_kernel(ring.field, products, width, ideal_piece(param, nu + s))
    return _rref(ring.field.char, kernel)[0]


# ---------------------------------------------------------------------------
# the Koszul-syzygy comparison


@dataclass
class SyzygeticDegree:
    nu: int
    boundary_dim: int
    saturated_dim: int
    plain_dim: int

    @property
    def saturated_equal(self):
        return self.boundary_dim == self.saturated_dim

    @property
    def plain_equal(self):
        return self.boundary_dim == self.plain_dim


@dataclass
class SyzygeticReport:
    nu_max: int
    degrees: list
    witness: tuple | None  # (nu, component polys) for the first saturated failure

    @property
    def verdict(self):
        return "pass" if all(d.saturated_equal for d in self.degrees) else "fail"

    @property
    def plain_verdict(self):
        return "pass" if all(d.plain_equal for d in self.degrees) else "fail"

    def summary(self):
        return "%s (tested degrees 1..%d)" % (self.verdict, self.nu_max)


def _restricted_syzygies(param, nu, z1_vectors, piece_rows):
    """Basis of Z_1 vectors whose components all lie in the given piece."""
    field = param.ring.field
    width = len(param.ring.x_monomials(nu))
    out = []
    for coeffs in _span_kernel(field, z1_vectors, width, piece_rows):
        vec = [0] * (param.n * width)
        for c, zv in zip(coeffs, z1_vectors):
            if c:
                for k, x in enumerate(zv):
                    if x:
                        vec[k] += c * x
        if field.char:
            vec = [x % field.char for x in vec]
        out.append(vec)
    return out


def syzygetic_test(param, nu_max=None):
    """Compare Koszul boundaries with syzygies landing in the (saturated) ideal.

    For each degree nu <= nu_max checks B_1 = Z_1 n (TF(I).A^n) and reports
    the plain-I variant alongside; the verdict is the saturated comparison.
    """
    if nu_max is None:
        nu_max = 2 * param.d
    if nu_max < param.d:
        raise ImplicaxError("nu_max %d below generator degree %d" % (nu_max, param.d))
    field = param.ring.field
    degrees = []
    witness = None
    for nu in range(1, nu_max + 1):
        z1 = cycle_basis(param, 1, nu)
        b1 = boundary_basis(param, nu)
        sat_rows = saturation_piece(param, nu)
        ideal_rows = ideal_piece(param, nu)
        inter_sat = _restricted_syzygies(param, nu, z1, sat_rows)
        inter_plain = _restricted_syzygies(param, nu, z1, ideal_rows)
        entry = SyzygeticDegree(
            nu=nu,
            boundary_dim=len(b1),
            saturated_dim=len(inter_sat),
            plain_dim=len(inter_plain),
        )
        # sanity: boundaries always sit inside both intersections
        for inter in (inter_sat, inter_plain):
            if b1 and scalar_rank(field, inter + b1) != len(inter):
                raise ConsistencyError(
                    "degree %d: a Koszul boundary lies outside Z_1 n (ideal) A^n" % nu
                )
        if witness is None and not entry.saturated_equal:
            bred = _SpanReducer(field, b1)
            for vec in inter_sat:
                if not bred.contains(vec):
                    witness = (nu, vector_to_polys(param, nu, vec))
                    break
        degrees.append(entry)
    return SyzygeticReport(nu_max=nu_max, degrees=degrees, witness=witness)


# ---------------------------------------------------------------------------
# the analysis report


@dataclass
class BasePointReport:
    """Diagnostics bundle for a parameterization."""

    content_gcd: Poly
    base_locus_dim: int
    e_total: int | None
    predicted_degree: int | None
    generically_finite: bool | None
    nu_bound: int
    base_locus_certificate: str  # "empty", "persistence" or "window"
    hilbert_values: dict  # {degree: Hilbert value of A/I} read by the profile
    syzygetic: SyzygeticReport | None = None

    @property
    def syzygetic_verdict(self):
        if self.syzygetic is None:
            return "not-run"
        return self.syzygetic.summary()

    def to_dict(self):
        return {
            "content_gcd": str(self.content_gcd),
            "base_locus_dim": self.base_locus_dim,
            "e_total": self.e_total,
            "predicted_degree": self.predicted_degree,
            "generically_finite": self.generically_finite,
            "nu_bound": self.nu_bound,
            "base_locus_certificate": self.base_locus_certificate,
            "hilbert_values": {str(nu): h for nu, h in self.hilbert_values.items()},
            "syzygetic_verdict": self.syzygetic_verdict,
            "syzygetic_plain_verdict": (
                None if self.syzygetic is None else self.syzygetic.plain_verdict
            ),
        }


def analyze_parameterization(param, run_syzygetic=None):
    """Assemble the BasePointReport; never raises on degenerate input."""
    content = gcd_many(list(param.polys))
    dim, e, certificate, values = _certified_profile(param)
    if dim > 0:
        pdeg = None
        genfin = None
    else:
        pdeg = param.d ** (param.n - 2) - e
        genfin = pdeg > 0
    if run_syzygetic is None:
        # the comparison theorems live in >= 3 ambient variables; the square
        # (n = 4) surface case is the one worth reporting by default
        run_syzygetic = param.ring.nx >= 3 and param.n <= 4
    syz = None
    if run_syzygetic:
        syz = syzygetic_test(param)
    return BasePointReport(
        content_gcd=content,
        base_locus_dim=dim,
        e_total=e,
        predicted_degree=pdeg,
        generically_finite=genfin,
        nu_bound=nu_bound(param.n, param.d),
        base_locus_certificate=certificate,
        hilbert_values=values,
        syzygetic=syz,
    )
