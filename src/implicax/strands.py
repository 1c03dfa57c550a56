"""Graded strands of the Koszul syzygy complex and their determinants.

For a parameterization f = (f_1 .. f_n) of degree d, the degree-nu strand is
the finite complex of free k[T]-modules

    0 -> (Z_{n-1})_nu -> ... -> (Z_1)_nu -> A_nu[T]

where (Z_i)_nu is the kernel of the contraction against f on the i-th
exterior power (coefficients in A_nu), and the maps contract against the
T variables.  The strand determinant (alternating product of nested minors)
yields the implicit equation of the closed image raised to the degree of the
map; the same polynomial arises as the gcd of the maximal minors of the
rightmost map.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field as dc_field

from .arith import (
    NotDivisibleError,
    Poly,
    exact_divide,
    gcd_homogeneous_by_lines,
    multivariate_gcd,
    normalize,
)
from .errors import HypothesisViolation, ImplicaxError, UsageError
from .linalg import (
    DEFAULT_SEED,
    PolyMatrix,
    ScalarMatrix,
    _rref,
    _sample_size,
    _sampled_pivots,
    det_fraction_free,
    rref_kernel_data,
)

__all__ = [
    "KoszulBasis",
    "ZStrand",
    "ComplexDet",
    "koszul_differential_matrix",
    "cycle_basis",
    "boundary_basis",
    "z_strand",
    "complex_determinant",
    "gcd_of_maximal_minors",
]


class KoszulBasis:
    """Ordered basis of the i-th exterior power with A_nu coefficients.

    Basis vectors are pairs (index subset J, monomial m), subsets in
    lexicographic order, monomials grevlex-descending; the flat index is
    subset-major.
    """

    def __init__(self, param, i, nu):
        self.param = param
        self.i = i
        self.nu = nu
        self.subsets = list(itertools.combinations(range(param.n), i))
        self.monos = param.ring.x_monomials(nu)
        self.sub_index = {s: k for k, s in enumerate(self.subsets)}
        self.mono_index = {m: k for k, m in enumerate(self.monos)}
        self.dim = len(self.subsets) * len(self.monos)

    def index(self, subset, mono):
        return self.sub_index[subset] * len(self.monos) + self.mono_index[mono]


def koszul_differential_matrix(param, i, nu):
    """Matrix of contraction against f from exterior degree i to i-1.

    Source has A_nu coefficients, target A_{nu+d}; the usual alternating
    signs apply: e_J -> sum_l (-1)^l f_{J[l]} e_{J minus J[l]}.
    """
    if not 1 <= i <= param.n:
        raise ImplicaxError("exterior degree %d out of range" % i)
    ring = param.ring
    src = KoszulBasis(param, i, nu)
    dst = KoszulBasis(param, i - 1, nu + param.d)
    data = [[0] * src.dim for _ in range(dst.dim)]
    nm_dst = len(dst.monos)
    for sj, J in enumerate(src.subsets):
        for l, j in enumerate(J):
            sign = 1 if l % 2 == 0 else -1
            tgt_sub = dst.sub_index[J[:l] + J[l + 1 :]] * nm_dst
            fpoly = param.polys[j]
            for mi, m in enumerate(src.monos):
                col = sj * len(src.monos) + mi
                for fm, fc in fpoly.terms.items():
                    r = tgt_sub + dst.mono_index[ring.mono_mul(fm, m)]
                    data[r][col] = data[r][col] + (fc if sign > 0 else -fc)
    if ring.field.char:
        p = ring.field.char
        data = [[x % p for x in row] for row in data]
    return ScalarMatrix(ring.field, data, src.dim)


def _cycle_data(param, i, nu):
    """(kernel vectors, free column positions) of the degree-nu cycles."""
    m = koszul_differential_matrix(param, i, nu)
    _, basis, frees = rref_kernel_data(m)
    return basis, frees


def cycle_basis(param, i, nu):
    """Deterministic basis of (Z_i)_nu as coefficient vectors."""
    if not 1 <= i <= param.n - 1:
        raise ImplicaxError("cycle degree %d out of range" % i)
    vectors, _ = _cycle_data(param, i, nu)
    return vectors


def _koszul_image(param, i, nu):
    """Echelon basis of the degree-nu image of the Koszul differential from
    exterior degree i (coefficient rows over the degree-nu basis of exterior
    degree i-1); empty below degree d."""
    if nu < param.d:
        return []
    m = koszul_differential_matrix(param, i, nu - param.d)
    return _rref(param.ring.field.char, [list(col) for col in zip(*m.data)])[0]


def boundary_basis(param, nu):
    """Echelon basis of the degree-nu span of the Koszul syzygies.

    Monomial multiples of f_j e_l - f_l e_j with multiplier degree nu - d;
    empty below degree d.
    """
    return _koszul_image(param, 2, nu)


def vector_to_polys(param, nu, vec):
    """Split a flat exterior-degree-1 vector into an n-tuple of A_nu polys."""
    ring = param.ring
    nm = ring.x_monomials(nu)
    out = []
    for j in range(param.n):
        terms = {}
        for k, m in enumerate(nm):
            c = vec[j * len(nm) + k]
            if c:
                terms[m] = c
        out.append(Poly(ring, ring.field.reduce_terms(terms)))
    return tuple(out)


@dataclass
class ZStrand:
    """The degree-nu strand: dims [z_0 .. z_{n-1}] and the T-contraction maps.

    maps[i] sends the chosen basis of (Z_{i+1})_nu into that of (Z_i)_nu
    (with (Z_0)_nu read as A_nu); entries are linear forms in T.
    """

    param: object
    nu: int
    dims: list
    maps: list
    cycle_bases: list = dc_field(default_factory=list)

    @property
    def n(self):
        return self.param.n


def _dT_components(param, kb_src, kb_dst, vec):
    """Per-T-variable component vectors of the T-contraction of vec."""
    n = param.n
    nm = len(kb_src.monos)
    comps = [[0] * kb_dst.dim for _ in range(n)]
    for sj, J in enumerate(kb_src.subsets):
        base = sj * nm
        for mi in range(nm):
            c = vec[base + mi]
            if not c:
                continue
            for l, j in enumerate(J):
                tgt = kb_dst.sub_index[J[:l] + J[l + 1 :]] * nm + mi
                if l % 2 == 0:
                    comps[j][tgt] += c
                else:
                    comps[j][tgt] -= c
    return comps


def z_strand(param, nu):
    """Assemble the degree-nu strand with verified differentials."""
    if nu < 0:
        raise UsageError("strand degree must be nonnegative")
    ring = param.ring
    field = ring.field
    n = param.n
    kbs = [KoszulBasis(param, i, nu) for i in range(n)]
    z0 = len(kbs[0].monos)
    bases = []
    frees = []
    for i in range(1, n):
        vecs, fr = _cycle_data(param, i, nu)
        bases.append(vecs)
        frees.append(fr)
    dims = [z0] + [len(b) for b in bases]

    def zero_parts(rows, cols):
        """Parts A_0 .. A_k of a rows x cols zero matrix; T_j's part is j + 1."""
        return [[[0] * cols for _ in range(rows)] for _ in range(ring.nv - ring.nx + 1)]

    maps = []
    # rightmost map: (Z_1)_nu -> A_nu[T], expressed on the monomial basis
    parts = zero_parts(z0, dims[1])
    for s, vec in enumerate(bases[0]):
        for j in range(n):
            for r in range(z0):
                parts[j + 1][r][s] = vec[j * z0 + r]
    maps.append(PolyMatrix.from_parts(ring, parts, dims[1]))
    # deeper maps: re-express T-contractions in the next cycle basis
    for i in range(1, n - 1):
        src_vecs = bases[i]
        dst_vecs = bases[i - 1]
        dst_free = frees[i - 1]
        inverses = [field.invert(v[f]) for v, f in zip(dst_vecs, dst_free)]
        rows = len(dst_vecs)
        cols = len(src_vecs)
        parts = zero_parts(rows, cols)
        for s, vec in enumerate(src_vecs):
            comps = _dT_components(param, kbs[i + 1], kbs[i], vec)
            for j in range(n):
                w = comps[j]
                xs = [field.canon(w[dst_free[r]] * inverses[r]) for r in range(rows)]
                if not _combination_matches(dst_vecs, xs, w, field):
                    raise ImplicaxError(
                        "strand grading error: contraction image left the cycle space"
                    )
                for r in range(rows):
                    parts[j + 1][r][s] = xs[r]
        maps.append(PolyMatrix.from_parts(ring, parts, cols))
    for a, b in zip(maps, maps[1:]):
        if a.cols and b.cols and not _composes_to_zero(a, b, field):
            raise ImplicaxError("strand differentials do not compose to zero")
    return ZStrand(param, nu, dims, maps, bases)


def _composes_to_zero(a, b, field):
    """Whether the product of the T-affine matrices a and b is zero.

    With T_0 = 1, the coefficient of T_s*T_t in the product is
    A_s*B_t + A_t*B_s for s < t and A_s*B_s for s = t; each must vanish.  A
    row of the product is summed over the nonzero entries of a's row only.
    """
    b_rows = [[(t, B[c]) for t, B in enumerate(b.parts) if any(B[c])] for c in range(b.rows)]
    for r in range(a.rows):
        coeffs = {}
        for s, A in enumerate(a.parts):
            for c, x in enumerate(A[r]):
                if not x:
                    continue
                for t, row in b_rows[c]:
                    key = (s, t) if s <= t else (t, s)
                    acc = coeffs.get(key)
                    if acc is None:
                        coeffs[key] = [x * y for y in row]
                    else:
                        coeffs[key] = [u + x * y for u, y in zip(acc, row)]
        if not all(field.is_zero(u) for acc in coeffs.values() for u in acc):
            return False
    return True


def _combination_matches(vectors, xs, target, field):
    acc = [0] * len(target)
    for x, v in zip(xs, vectors):
        if x:
            for k, c in enumerate(v):
                if c:
                    acc[k] += x * c
    return all(field.is_zero(a - b) for a, b in zip(acc, target))


# ---------------------------------------------------------------------------
# determinants of strands


@dataclass
class ComplexDet:
    """Strand determinant with the nested minor chain that produced it.

    chain entries: (map index, row indices, col indices, minor det, sign)
    where sign +1 contributes to the numerator, -1 to the denominator.
    """

    value: Poly
    chain: list

    def minor_sizes(self):
        return [len(rows) for (_, rows, _, _, _) in self.chain]


def _rank_profile(strand, rng):
    ranks = []
    for m in strand.maps:
        if m.rows == 0 or m.cols == 0:
            ranks.append(0)
            continue
        ranks.append(len(_sampled_pivots(m, rng, range(m.rows))))
    return ranks


def _profile_ok(strand, ranks):
    dims = strand.dims
    n = strand.n
    if ranks[0] != dims[0]:
        return False
    for spot in range(1, n - 1):
        r_in = ranks[spot - 1]
        r_out = ranks[spot] if spot < len(ranks) else 0
        if r_in + r_out != dims[spot]:
            return False
    if ranks[n - 2] != dims[n - 1]:
        return False
    return True


def _profile_draws(strand):
    """Draws after which an inconsistent rank profile is declared a violation.

    Entries are affine in T, so a map of rank r has a nonzero r x r minor of
    degree <= r.  By Schwartz-Zippel that minor vanishes at a draw of
    `_sampled_pivots`, which takes each T from N values (p - 1 over GF(p),
    1995 over QQ), with probability <= r/N; only then can the draw miss the
    map's rank.  (Over QQ the draw is reduced mod a 62-bit prime; the bound
    holds unless that prime divides every coefficient of the minor.)  With
    r at most the map's smaller side, k independent draws all miss some
    map's rank with probability <= sum over maps of (r/N)^k.  This returns
    the least k that makes that sum <= 2^-40.  When some r >= N no k bounds
    it, and two draws are taken.
    """
    size = _sample_size(strand.param.ring.field.char)
    sides = [min(m.rows, m.cols) for m in strand.maps]
    if max(sides) >= size:
        return 2
    k = 1
    while sum((r / size) ** k for r in sides) > 2.0**-40:
        k += 1
    return k


def check_rank_profile(strand, seed=DEFAULT_SEED):
    """Verify generic exactness off the zeroth spot; raise otherwise.

    A sampled rank never exceeds the generic rank, and the maps compose to
    zero, so a sampled profile that is consistent with exactness proves it.
    Each further draw keeps every map's largest rank so far; a violation is
    declared only after `_profile_draws` draws all leave it inconsistent.
    """
    rng = random.Random(seed)
    ranks = [0] * len(strand.maps)
    for _ in range(_profile_draws(strand)):
        ranks = [max(a, b) for a, b in zip(ranks, _rank_profile(strand, rng))]
        if _profile_ok(strand, ranks):
            return ranks
    raise HypothesisViolation(
        "rank profile %s inconsistent with exactness for dims %s "
        "(base locus not finite / not a local complete intersection / "
        "map not generically finite, or the strand degree is too small)"
        % (ranks, strand.dims)
    )


_CHAIN_MINOR_TRIES = 8  # random points tried per minor before giving up


def _select_chain_minor(m, row_subset, rng):
    """Columns making m[row_subset, cols] nonsingular; returns (cols, det).

    When the rows need every column, those are the columns: no point is
    drawn, and a zero determinant is final.
    """
    target = len(row_subset)
    if target == 0:
        return [], m.ring.one
    every = target == m.cols
    last = "no candidate"
    for _ in range(1 if every else _CHAIN_MINOR_TRIES):
        cols = list(range(m.cols)) if every else _sampled_pivots(m, rng, row_subset)
        if len(cols) < target:
            last = "specialized rank below %d" % target
            continue
        det = det_fraction_free(m.submatrix(row_subset, cols))
        if det.terms:
            return cols, det
        last = "singular symbolic minor"
    raise HypothesisViolation(
        "could not complete the minor chain (%s); hypotheses likely violated" % last
    )


def complex_determinant(strand, seed=DEFAULT_SEED):
    """Determinant of the strand: alternating product of nested minors.

    Row indices at each level are forced to the complement of the previous
    column choice; numerator and denominator products are divided once at
    the end, exactly.
    """
    ranks = check_rank_profile(strand, seed)
    ring = strand.param.ring
    for attempt in range(3):
        rng = random.Random("%s:chain:%d" % (seed, attempt))
        try:
            chain = []
            rows = list(range(strand.dims[0]))
            for idx, m in enumerate(strand.maps):
                cols, det = _select_chain_minor(m, rows, rng)
                sign = 1 if idx % 2 == 0 else -1
                chain.append((idx, list(rows), list(cols), det, sign))
                taken = set(cols)
                rows = [c for c in range(m.cols) if c not in taken]
            if rows:
                raise HypothesisViolation(
                    "minor chain left %d unmatched basis elements" % len(rows)
                )
            num = ring.one
            den = ring.one
            for (_, _, _, det, sign) in chain:
                if sign > 0:
                    num = num * det
                else:
                    den = den * det
            try:
                value = exact_divide(num, den, verify=True)
            except NotDivisibleError:
                raise HypothesisViolation(
                    "minor quotient is not exact; the strand is not a "
                    "resolution (hypotheses violated)"
                ) from None
            if not value.terms:
                raise HypothesisViolation("strand determinant vanished")
            return ComplexDet(value, chain)
        except HypothesisViolation:
            if attempt == 2:
                raise
    raise AssertionError("unreachable")


# ---------------------------------------------------------------------------
# gcd of maximal minors


_RECOMBINATIONS = 12  # most sign recombinations folded into the gcd


def _gcd_pair(a, b, seed):
    if a.total_degree() >= 6 and b.total_degree() >= 6 and len(a.terms) * len(b.terms) > 900:
        return gcd_homogeneous_by_lines(a, b, seed=seed)
    return multivariate_gcd(a, b)


def gcd_of_maximal_minors(strand, degree, seed=DEFAULT_SEED):
    """gcd of the z_0 x z_0 minors of the rightmost strand map.

    `degree` is the predicted degree of the answer, d^(n-2) - e(I) for
    isolated base points; the pipeline passes `report.predicted_degree`.
    Determinants are folded into a running gcd g, and the fold stops as
    soon as deg g <= degree.  Why that is exact: under the hypotheses the
    strand is acyclic and its determinant divides every maximal minor, so
    the gcd of any set of minors, or of combinations of them, is a multiple
    of the gcd G of all of them, and deg G >= degree.  Once
    deg g = degree = deg G, g is a unit times G.

    g starts as one nonsingular minor, found at a seeded point.  Then come
    determinants of the map times seeded +-1 sign matrices S, which by
    Cauchy-Binet are sums of all the maximal minors, each times the matching
    minor of S.  A determinant that g divides leaves g as it is, and no gcd
    is taken.  The fold also stops once two determinants in a row leave g
    unchanged, or after _RECOMBINATIONS of them.  A scalar multiple of g
    does not count toward the two: with few columns the minors of S often
    vanish (5/8 of the 3 x 3 sign matrices are singular), and the sum then
    collapses onto g's own minor.  That g divides the determinants does not
    prove that g divides every minor.  Only the degree equality does.

    When the target is never reached, the result is the gcd of what was
    folded; its degree is then above the target, and the pipeline's degree
    check raises ConsistencyError.
    """
    m = strand.maps[0]
    ring = m.ring
    canon = ring.field.canon
    z0, z1 = m.rows, m.cols
    if z1 < z0:
        raise HypothesisViolation(
            "rightmost map is %dx%d; need at least as many syzygies as monomials" % (z0, z1)
        )
    rng = random.Random("%s:minors" % (seed,))
    g = _select_chain_minor(m, list(range(z0)), rng)[1]
    clean = 0
    for _ in range(_RECOMBINATIONS):
        if g.total_degree() <= degree or clean >= 2:
            break
        signs = [[rng.choice((-1, 1)) for _ in range(z1)] for _ in range(z0)]
        parts = [
            [[canon(sum(a * s for a, s in zip(row, col))) for col in signs] for row in part]
            for part in m.parts
        ]
        det = det_fraction_free(PolyMatrix.from_parts(ring, parts, z0))
        if not det.terms:
            continue
        try:
            exact_divide(det, g, verify=False)
        except NotDivisibleError:
            g = _gcd_pair(g, det, seed)
            clean = 0
        else:
            clean += det.total_degree() > g.total_degree()  # not a scalar multiple
    return normalize(g)
