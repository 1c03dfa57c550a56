"""Base-point analysis and degree prediction.

Everything here is exact linear algebra on graded pieces: Hilbert values of
A/I, the eventual (stable) value as the total multiplicity of the base
locus (proven stable from one or two values past the regularity bound
unless it exceeds that bound), the predicted implicit degree d^(n-2) - e,
degreewise saturation, and the Koszul-syzygy comparison B_1 vs Z_1
intersected with the (saturated) ideal times A^n.

Each graded piece I_nu is an echelon basis, from `ideal_piece` or, at t =
`_regularity_bound`, from the reduction whose kernel is (Z_1)_(t-d), which
the report hands to the strand; on a plane curve a nonsingular Bezoutian
of two of the three forms (Cayley's closed form, `resultants._bezoutian`)
proves I_t full with no reduction.  A Hilbert value is |A_nu| minus its
size, and above a full piece (I_(nu+1) contains A_1 * I_nu) every piece is
full.
The content gcd is read off the certificate where it can be.  Saturation
descends one chain from I_t: below t a piece holds the g with every x_i*g
in the piece above, so below a full piece every piece is full.  Z_1 n
J.A^n is the kernel of (g_j) -> sum g_j f_j on J^n, so its dimension is
n * dim J minus one rank; an intersection basis is built only for the
witness.  Where a proven fact fixes a dimension, no rank is taken: a
full J_nu maps onto I_(nu+d); I_nu inside I^sat_nu of the same size is
equal to it; and on an empty base locus with n <= nx + 1 the Koszul
homology H_i vanishes for i >= 2 (Bruns-Herzog, Cohen-Macaulay Rings, Thm
1.6.17), so dim B_1 is an alternating sum of monomial counts.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from itertools import compress

from .arith import Poly, _echelon_kernel, _rref, gcd_many, rref_kernel_data
from .errors import ConsistencyError, ImplicaxError
from .linalg import scalar_rank
from .resultants import _cyclic_bezoutians, binary_form
from .strands import (
    _acyclic_above,
    _koszul_image,
    boundary_basis,
    cycle_basis,
    koszul_differential_matrix,
    vector_to_polys,
)

__all__ = [
    "hilbert_value",
    "nu_bound",
    "saturation_piece",
    "ideal_piece",
    "syzygetic_test",
    "SyzygeticReport",
    "BasePointReport",
]


def hilbert_value(param, nu, pieces=None):
    """dim of (A/I)_nu: monomial count minus dim I_nu, read from `pieces`
    (`_Pieces`) when one analysis shares them."""
    if nu < 0:
        return 0
    if pieces is None:
        pieces = _Pieces(param)
    return len(param.ring.x_monomials(nu)) - len(pieces[nu])


def _regularity_bound(param):
    """t = nx(d-1)+1 for forms of degree d in nx variables (n-1 on a map):
    from degree t on, I agrees with its saturation."""
    return param.ring.nx * (param.d - 1) + 1


def _certified_profile(param, pieces=None):
    """(dim flag, total multiplicity, certificate, {degree: Hilbert value read}).

    The dim flag is -1 for an empty base locus, 0 for a finite one and 1 for
    one of positive dimension.  Reads H, the Hilbert function of A/I, from
    t = nx(d-1)+1, the classical regularity bound ((n-1)(d-1)+1 on a map),
    on, and stops as soon as a proof decides; the certificate names what
    decided:

    * "empty", H(t) = 0: I_t = A_t, and I_(nu+1) contains A_1 * I_nu, so
      I_nu = A_nu for every nu >= t and the base locus is empty: (-1, 0).
    * "persistence", H(t+1) = H(t) = e with 0 < e <= t: I is generated in
      degree d <= t, and e <= t makes the Macaulay bound e^<t> equal to e,
      so by Gotzmann's persistence theorem (Math. Z. 158, 1978;
      Bruns-Herzog, Cohen-Macaulay Rings, Thm 4.3.3) H stays at e for good;
      e is the total multiplicity of the finite base locus: (0, e).
    * "window", H(t+1) != H(t): H has no plateau at t, which signals a base
      locus of dimension >= 1: (1, None).  Only when H(t+1) = H(t) > t does
      a window of max(n, d) + 1 values from t decide: a constant plateau is
      e, anything else signals dimension >= 1.
    """
    n, d = param.n, param.d
    t = _regularity_bound(param)
    e = hilbert_value(param, t, pieces)
    values = {t: e}
    if e == 0:
        return -1, 0, "empty", values
    values[t + 1] = hilbert_value(param, t + 1, pieces)
    if values[t + 1] == e:
        if e <= t:
            return 0, e, "persistence", values
        for nu in range(t + 2, t + max(n, d) + 1):
            values[nu] = hilbert_value(param, nu, pieces)
        if all(v == e for v in values.values()):
            return 0, e, "window", values
    return 1, None, "window", values


def nu_bound(n, d):
    """(n-2)(d-1), the strand degree the implicitization theorems guarantee
    for a map without base points; see `BasePointReport.nu0` for the sharp
    degree when base points are isolated."""
    if n < 3 or d < 1:
        raise ImplicaxError("need n >= 3 and d >= 1")
    return (n - 2) * (d - 1)


# ---------------------------------------------------------------------------
# graded pieces; span membership is read off the annihilator, the kernel
# that the one row reduction gives


def _span_kernel(field, vectors, width, piece_rows):
    """Echelon kernel basis: coefficient vectors c such that every width-long
    block of sum_k c[k] * vectors[k] lies in the span of `piece_rows`, which
    must be in reduced echelon form (`_rref` output or identity rows).

    Over any field the row space is the orthogonal complement of the kernel,
    so a block lies in the span exactly when it annihilates every kernel
    vector of the rows, read straight off the echelon rows: each constraint
    is one block's product with one such vector, taken over the block's
    nonzero entries.
    """
    annihilator = _echelon_kernel(field.char, piece_rows, width)[0]
    entries = list(zip(*annihilator)) or [()] * width  # coordinate -> its value in each vector
    columns = []
    for vec in vectors:
        blocks = [[0] * len(annihilator) for _ in range(len(vec) // width)]
        for j, x in compress(enumerate(vec), vec):
            b, j = divmod(j, width)
            blocks[b] = [s + x * a for s, a in zip(blocks[b], entries[j])]
        columns.append([field.canon(s) for block in blocks for s in block])
    constraints = [row for row in zip(*columns) if any(row)]
    return rref_kernel_data(field, constraints, len(vectors))[1]


def ideal_piece(param, nu):
    """Echelon basis (coefficient rows over the A_nu monomials) of I_nu."""
    return _koszul_image(param, 1, nu)


def _identity(size):
    """The echelon basis of a full piece: the identity rows."""
    return [[int(j == k) for j in range(size)] for k in range(size)]


def _coprime_pair(param):
    """Whether two of three forms in two X variables have a nonsingular
    Bezoutian (`resultants._cyclic_bezoutians`, Cayley's closed form).

    det Bez(f_i, f_j) = +-Res(f_i, f_j), so such a pair has no common zero
    on P^1, and by Sylvester (g, h) -> g f_i + h f_j maps A_(d-1)^2 onto
    A_(2d-1): I_t = A_t at t = 2d - 1, `_regularity_bound` for nx = 2.
    """
    if param.ring.nx != 2 or param.n != 3:
        return False
    forms = [binary_form(param, f) for f in param.polys]
    return any(scalar_rank(param.ring.field, bez) == param.d for bez in _cyclic_bezoutians(*forms))


class _Pieces(dict):
    """{nu: echelon basis of I_nu}, each built on first use, so that one
    analysis builds each I_nu once.  I_(nu+1) contains A_1 * I_nu, so every
    piece above a full piece held here is full: it takes the identity rows,
    not the rows of `ideal_piece`, whose signs may differ over QQ.

    I_t, t = `_regularity_bound`, is the column span of K =
    `koszul_differential_matrix(param, 1, t - d)`.  On a plane curve a
    coprime pair of forms proves it full (`_coprime_pair`), with no
    reduction.  Otherwise it is read off `_rref` of K's rows, the reduction
    whose kernel is (Z_1)_(t-d): a full rank gives the identity rows, and a
    short one reduces only K's pivot columns, a basis of the span.
    `reduction` keeps (t - d, K, that `_rref`) for the strand
    (`z_strand`)."""

    def __init__(self, param):
        super().__init__()
        self.param = param
        self.reduction = None

    def __missing__(self, nu):
        param = self.param
        monos = param.ring.x_monomials
        above_full = any(m < nu and len(rows) == len(monos(m)) for m, rows in self.items())
        at_t = nu == _regularity_bound(param)
        if above_full or at_t and _coprime_pair(param):
            rows = _identity(len(monos(nu)))
        elif at_t:
            p = param.ring.field.char
            matrix = koszul_differential_matrix(param, 1, nu - param.d)
            echelon = _rref(p, matrix)
            self.reduction = (nu - param.d, matrix, echelon)
            pivots = echelon[1]
            if len(pivots) == len(monos(nu)):
                rows = _identity(len(pivots))
            else:
                rows = _rref(p, [[row[c] for row in matrix] for c in pivots])[0]
        else:
            rows = ideal_piece(param, nu)
        self[nu] = rows
        return rows


def _saturation_pieces(param, low, high, ideal):
    """{nu: `saturation_piece(param, nu)`} from low to high, and on to t - 1;
    `ideal` is the analysis's `_Pieces`.

    Below a full piece the piece is full, since every x_i * g lies in the
    piece above: it takes the identity rows, the echelon basis of A_nu,
    without a kernel.  On an empty base locus (I_t = A_t) that is every piece.
    """
    ring = param.ring
    t = _regularity_bound(param)
    pieces = {}
    for nu in range(max(high, t - 1), low - 1, -1):
        above = ideal[nu + 1] if nu >= t - 1 else pieces[nu + 1]
        monos = ring.x_monomials(nu)
        if len(above) == len(ring.x_monomials(nu + 1)):
            pieces[nu] = _identity(len(monos))
            continue
        target = {m: k for k, m in enumerate(ring.x_monomials(nu + 1))}
        width = len(target)
        products = [[0] * (ring.nx * width) for _ in monos]  # per g in A_nu: blocks g*x_i
        for vec, g in zip(products, monos):
            for b, u in enumerate(ring.x_monomials(1)):
                vec[b * width + target[ring.mono_mul(g, u)]] = 1
        pieces[nu] = _rref(ring.field.char, _span_kernel(ring.field, products, width, above))[0]
    return pieces


def saturation_piece(param, nu):
    """Basis of the degree-nu piece of the saturation of I.

    From t = `_regularity_bound` on, where I agrees with its saturation, it
    is I_(nu+1) : A_1.  Below t the pieces descend one chain from K_t = I_t:
    K_nu = {g in A_nu : x_i * g in K_(nu+1) for every i} = I_t : A_(t-nu).
    Always contains I_nu.
    """
    return _saturation_pieces(param, nu, nu, _Pieces(param))[nu]


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
        return "pass" if all(d.boundary_dim == d.plain_dim for d in self.degrees) else "fail"

    def summary(self):
        return "%s (tested degrees 1..%d)" % (self.verdict, self.nu_max)


def _syzygy_dim(param, nu, rows, ideal):
    """dim of Z_1 n J.A^n in degree nu, for the piece J_nu spanned by `rows`:
    n * dim J_nu minus the rank of (g_j) -> sum_j g_j f_j on J_nu^n.

    When J_nu = A_nu the images g * f_j are the products that span
    I_(nu+d), so that rank is dim I_(nu+d), read from `ideal` (`_Pieces`).
    """
    ring = param.ring
    monos = ring.x_monomials(nu)
    if len(rows) == len(monos):
        return param.n * len(monos) - len(ideal[nu + param.d])
    target = {m: k for k, m in enumerate(ring.x_monomials(nu + param.d))}
    images = []
    for f in param.polys:
        # the terms of m * f, per monomial m of A_nu
        shifted = [[(target[ring.mono_mul(m, u)], a) for u, a in f.terms.items()] for m in monos]
        for g in rows:
            vec = [0] * len(target)
            for c, terms in zip(g, shifted):
                if c:
                    for k, a in terms:
                        vec[k] += c * a
            images.append(vec)
    return len(images) - scalar_rank(ring.field, images)


def _koszul_tail(param, nu):
    """dim B_1 in degree nu when H_i(f; A) = 0 for every i >= 2: then
    0 -> K_n -> .. -> K_2 -> B_1 -> 0 is exact, with K_i = A(-(i-1)d)^C(n,i)
    in the grading where K_1 = A^n, so dim B_1 is its alternating sum."""
    ring, n, d = param.ring, param.n, param.d
    return sum(
        (-1) ** i * math.comb(n, i) * len(ring.x_monomials(nu - (i - 1) * d)) for i in range(2, n + 1)
    )


def syzygetic_test(param, nu_max=None, ideal=None, saturated=None):
    """Compare Koszul boundaries with syzygies landing in the (saturated) ideal.

    For each degree nu <= nu_max checks B_1 = Z_1 n (TF(I).A^n) and reports
    the plain-I variant alongside; the verdict is the saturated comparison.
    Both intersections are counted by `_syzygy_dim`, the saturated pieces
    come off one descending chain, and an intersection basis is built only
    for the witness, at the first degree where the saturated comparison fails.
    An analysis passes its `_Pieces` as `ideal` and its chain, reaching from
    nu_max down to 1, as `saturated`; otherwise both are built here.

    Where each dimension comes from:

    * boundary: on an empty base locus (I_t = A_t, certificate "empty") I is
      m-primary of grade nx, so H_i(f; A) = 0 for i > n - nx
      (`_acyclic_above`); with n <= nx + 1 that is every i >= 2 and dim B_1
      is `_koszul_tail`.  Otherwise, and at the witness degree, whose
      search needs its rows, `boundary_basis` is built.  The
      guard n <= nx + 1 is needed: on X1^2, X2^2, X3^2, X1*X2, X1*X3 the sum
      is 30 in degree 3 but B_1 has dimension 29;
    * saturated: `_syzygy_dim`, one rank, or none where I^sat_nu = A_nu;
    * plain: I_nu lies in I^sat_nu, so pieces of equal size are equal and
      the plain dimension is the saturated one, with no second rank.
    """
    if nu_max is None:
        nu_max = 2 * param.d
    if nu_max < param.d:
        raise ImplicaxError("nu_max %d below generator degree %d" % (nu_max, param.d))
    ring = param.ring
    field = ring.field
    if ideal is None:
        ideal = _Pieces(param)
    if saturated is None:
        saturated = _saturation_pieces(param, 1, nu_max, ideal)
    t = _regularity_bound(param)
    tail = _acyclic_above(param, -1) <= 1 and len(ideal[t]) == len(ring.x_monomials(t))
    degrees = []
    witness = None
    for nu in range(1, nu_max + 1):
        b1 = None if tail else boundary_basis(param, nu)
        b_dim = _koszul_tail(param, nu) if tail else len(b1)
        sat_dim = _syzygy_dim(param, nu, saturated[nu], ideal)
        plain_dim = sat_dim
        if len(ideal[nu]) != len(saturated[nu]):
            plain_dim = _syzygy_dim(param, nu, ideal[nu], ideal)
        # boundaries sit in Z_1 n I.A^n, which sits in Z_1 n I^sat.A^n
        if not b_dim <= plain_dim <= sat_dim:
            raise ConsistencyError(
                "degree %d: dimensions boundary %d, plain %d, saturated %d are not"
                " increasing" % (nu, b_dim, plain_dim, sat_dim)
            )
        if witness is None and sat_dim > b_dim:
            # the first vector of the echelon basis of Z_1 n (I^sat_nu)^n
            # outside the span of the boundaries
            if b1 is None:
                b1 = boundary_basis(param, nu)
            z1 = cycle_basis(param, 1, nu)
            for coeffs in _span_kernel(field, z1, len(ring.x_monomials(nu)), saturated[nu]):
                scaled = [[c * x for x in zv] for c, zv in zip(coeffs, z1)]
                vec = [field.canon(sum(col)) for col in zip(*scaled)]
                if scalar_rank(field, b1 + [vec]) > len(b1):
                    witness = (nu, vector_to_polys(param, nu, vec))
                    break
        degrees.append(SyzygeticDegree(nu, b_dim, sat_dim, plain_dim))
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
    nu0: int  # the strand degree implicitize uses by default
    base_locus_certificate: str  # "empty", "persistence" or "window"
    hilbert_values: dict  # {degree: Hilbert value of A/I} read by the profile
    syzygetic: SyzygeticReport | None = None
    # (t - d, K, `_rref` of K) from the profile's piece I_t, for `z_strand`
    _koszul_reduction: tuple | None = dataclasses.field(default=None, repr=False, compare=False)

    def to_dict(self):
        return {
            "content_gcd": str(self.content_gcd),
            "base_locus_dim": self.base_locus_dim,
            "e_total": self.e_total,
            "predicted_degree": self.predicted_degree,
            "generically_finite": self.generically_finite,
            "nu_bound": self.nu_bound,
            "nu0": self.nu0,
            "base_locus_certificate": self.base_locus_certificate,
            "hilbert_values": {str(nu): h for nu, h in self.hilbert_values.items()},
            "syzygetic_verdict": (
                "not-run" if self.syzygetic is None else self.syzygetic.summary()
            ),
            "syzygetic_plain_verdict": (
                None if self.syzygetic is None else self.syzygetic.plain_verdict
            ),
        }


def analyze_parameterization(param, run_syzygetic=None):
    """Assemble the BasePointReport; never raises on degenerate input.

    nu0 = (n-2)(d-1) - indeg(I^sat) is the sharp strand degree for isolated
    base points; without base points I^sat = A and nu0 = (n-2)(d-1).  Every
    I_nu is built once, and the saturation chain at most once, shared by
    nu0 and the syzygetic test.  The report carries the reduction behind
    I_t (`_Pieces`) to `z_strand`: on a map t - d = nu_bound.

    The content gcd is read off the certificate where it can be: a
    nonconstant common factor h of forms in nx >= 2 variables has zeros,
    and V(h), of dimension nx - 2, lies in the base locus.  So "empty"
    proves the content is 1, and so does "persistence" (a finite base
    locus) when nx >= 3.  Otherwise it is `gcd_many` of the forms.
    """
    ideal = _Pieces(param)
    dim, e, certificate, values = _certified_profile(param, ideal)
    nx = param.ring.nx
    if (certificate == "empty" and nx >= 2) or (certificate == "persistence" and nx >= 3):
        content = param.ring.one
    else:
        content = gcd_many(list(param.polys))
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
    bound = nu_bound(param.n, param.d)
    nu_max = 2 * param.d
    saturated = None
    if run_syzygetic or dim == 0:
        saturated = _saturation_pieces(param, 1, nu_max if run_syzygetic else 1, ideal)
    nu0 = bound
    if dim == 0:
        # base points leave I^sat without constants, so indeg >= 1, where the
        # chain ends; only maps that are not generically finite reach nu0 < 0
        nu0 = max(bound - min(nu for nu, rows in saturated.items() if rows), 0)
    syz = None
    if run_syzygetic:
        syz = syzygetic_test(param, nu_max, ideal, saturated)
    return BasePointReport(
        content_gcd=content,
        base_locus_dim=dim,
        e_total=e,
        predicted_degree=pdeg,
        generically_finite=genfin,
        nu_bound=bound,
        nu0=nu0,
        base_locus_certificate=certificate,
        hilbert_values=values,
        syzygetic=syz,
        _koszul_reduction=ideal.reduction,
    )
