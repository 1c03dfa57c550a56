"""Graded strands of the Koszul syzygy complex and their determinants.

For a parameterization f = (f_1 .. f_n) of degree d, the degree-nu strand is
the finite complex of free k[T]-modules

    0 -> (Z_{n-1})_nu -> ... -> (Z_1)_nu -> A_nu[T]

where (Z_i)_nu is the kernel of the contraction against f on the i-th
exterior power (coefficients in A_nu), and the maps contract against the
T variables.  Z_1, and every Z_i when nothing more is proven, takes the
echelon kernel basis of its Koszul matrix.  Where the base-locus report
proves the grade of I, the Koszul homology H_i vanishes for i > n - grade
(Bruns-Herzog, Thm 1.6.17); there, below degree 2d, Z_i is spanned freely
by the Koszul images of the exterior degree i + 1, a basis in closed form
(`z_strand`).  On a plane curve without base points (Z_1)_(d-1) is spanned
freely by the d Bezoutian moving lines, read off Cayley's closed form
(`resultants._bezoutian`), so the strand's first map is the Kravitsky
pencil.  The strand determinant (alternating product of nested minors)
yields the implicit equation of the closed image raised to the degree of the
map; the same polynomial arises as the gcd of the maximal minors of the
rightmost map.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

from .arith import (
    NotDivisibleError,
    Poly,
    _rref,
    check_kernel,
    exact_divide,
    multivariate_gcd,
    normalize,
    rref_kernel_data,
)
from .errors import HypothesisViolation, ImplicaxError, SmallCharacteristicError, UsageError
from .linalg import (
    DEFAULT_SEED,
    PolyMatrix,
    _sample_size,
    _sampled_pivots,
    det_fraction_free,
)
from .resultants import _cyclic_bezoutians, binary_form

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

# A traced name only, with no caller: bench/tracer.py still wraps it.  ROADMAP
# item 5, which moves the trace into the package, removes it.
gcd_homogeneous_by_lines = multivariate_gcd


class KoszulBasis:
    """Ordered basis of the i-th exterior power with A_nu coefficients.

    Basis vectors are pairs (index subset J, monomial m), subsets in
    lexicographic order, monomials grevlex-descending; the flat index is
    subset-major.
    """

    def __init__(self, param, i, nu):
        self.subsets = list(itertools.combinations(range(param.n), i))
        self.monos = param.ring.x_monomials(nu)
        self.sub_index = {s: k for k, s in enumerate(self.subsets)}
        self.mono_index = {m: k for k, m in enumerate(self.monos)}
        self.dim = len(self.subsets) * len(self.monos)


def koszul_differential_matrix(param, i, nu):
    """Rows of the matrix of contraction against f from exterior degree i to i-1.

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
    p = ring.field.char
    return [[x % p for x in row] for row in data] if p else data


def _cycle_data(param, i, nu, reduced=None):
    """(kernel vectors, free column positions) of the degree-nu cycles.
    `reduced`, when given, is (matrix, `_rref` of it) of this same Koszul
    matrix, and neither is taken again."""
    width = math.comb(param.n, i) * len(param.ring.x_monomials(nu))
    matrix, echelon = reduced or (koszul_differential_matrix(param, i, nu), None)
    return rref_kernel_data(param.ring.field, matrix, width, echelon)[1:]


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
    rows = koszul_differential_matrix(param, i, nu - param.d)
    return _rref(param.ring.field.char, list(zip(*rows)))[0]


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


def _acyclic_above(param, locus_dim):
    """n - grade(I) for a base locus of proven dimension `locus_dim` (-1 when
    empty): H_i(f; A) = 0 for every i above it.

    A is Cohen-Macaulay, so grade(I) is the height nx - 1 - locus_dim, and
    H_i(f; A) = 0 exactly for i > n - grade(I) (Bruns-Herzog, Cohen-Macaulay
    Rings, Thm 1.6.17).
    """
    return param.n - (param.ring.nx - 1 - locus_dim)


def _bezout_lines(param, matrix):
    """The d vectors w_b = (Bez(f2,f3)[:,b], Bez(f3,f1)[:,b], Bez(f1,f2)[:,b])
    in A_(d-1)^3 of a plane curve, in the order w_(d-1) .. w_0, each checked
    against the Koszul matrix `matrix` of degree d - 1 (ConsistencyError
    unless K*w = 0); see `z_strand` for why they are a basis of
    (Z_1)_(d-1).  Row a of a Bezoutian is the coefficient of
    X1^a X2^(d-1-a), the A_(d-1) monomial at index d - 1 - a, so with the
    basis reversed too, the strand's first map is J*M*J (J the reversal),
    symmetric as the Bezoutians are."""
    d = param.d
    bez = _cyclic_bezoutians(*(binary_form(param, f) for f in param.polys))
    lines = [[0] * (3 * d) for _ in range(d)]
    for i, part in enumerate(bez):
        for a, row in enumerate(part):
            for b, x in enumerate(row):
                lines[d - 1 - b][i * d + d - 1 - a] = x
    check_kernel(param.ring.field, matrix, 3 * d, lines)
    return lines


def z_strand(param, nu, report=None):
    """Assemble the degree-nu strand with verified differentials.

    maps[0] is the T-contraction sum_j T_j iota_j of (Z_1)_nu into A_nu.  A
    level i below `image` takes the echelon kernel basis of the Koszul
    matrix.  A map into such a level writes each iota_j of a source basis
    vector in that kernel basis, checked exactly by `_combination_matches`,
    so it is the T-contraction on the chosen bases too.

    When `report` gives the base locus as empty or finite (base_locus_dim
    -1 or 0, each proven by `geometry._certified_profile`) and nu < 2d, I
    has grade g = nx - 1 - base_locus_dim, and H_i(f; A) = 0 for i > n - g
    (`_acyclic_above`).  There Z_i = B_i, so every level i >= image =
    max(2, n - g + 1) takes the Koszul images d_f(e_J m), |J| = i + 1,
    m in A_(nu-d): the columns of `koszul_differential_matrix(param, i + 1,
    nu - d)`, none when nu < d.  They span (B_i)_nu.  Their relations are
    (Z_(i+1))_(nu-d) = (B_(i+1))_(nu-d), which is 0 as B starts in degree d
    > nu - d, so they are a basis.  Between two image levels d_T and d_f
    anticommute, d_T(d_f(e_K m)) = -d_f(d_T(e_K m)), so the map is minus the
    T-contraction on the exterior powers over A_(nu-d): entries +-T_j, with
    no kernel and no check.

    Level 1's kernel reuses the analysis's reduction of its Koszul matrix
    when `report` carries one of degree nu (`BasePointReport`: the Hilbert
    value at t = nx(d-1)+1 reads the rank of `koszul_differential_matrix(
    param, 1, t - d)`, and t - d = nu_bound on a map).  Only the `_rref` is
    shared: the kernel is finished from it and every vector is checked,
    A*v = 0, as from a fresh reduction, so the bases are the same.

    On a plane curve (n = 3, nx = 2) with an empty base locus and nu = d - 1
    (then image = 2), level 1 takes no kernel: its basis is the d Bezoutian
    moving lines w_b = (Bez(f2,f3)[:,b], Bez(f3,f1)[:,b], Bez(f1,f2)[:,b]),
    b < d, read in S = X1/X2 (`_bezout_lines`; Sederberg, Goldman & Du,
    J. Symbolic Comput. 23, 1997).  They are a basis of (Z_1)_(d-1):

    * syzygies: sum over cyclic (i, j, k) of f_i(S) Bez(f_j,f_k)(S,T) is a
      determinant with two rows (f1, f2, f3)(S), divided by S - T, so it is
      0, and its T^b coefficient is sum_i f_i w_b,i;
    * count: dim (Z_1)_(d-1) = 3d - rank K = 3d - dim I_(2d-1) = d, as
      I_(2d-1) = A_(2d-1) on an empty base locus;
    * independence: sum_b c_b w_b = 0 makes the pencil T1 Bez(f2,f3) +
      T2 Bez(f3,f1) + T3 Bez(f1,f2) singular at every T, but its
      determinant at T3 = 1 is +-Res(f1 - T1 f3, f2 - T2 f3), nonzero as
      the forms share no factor.
    Each line is still checked exactly, K*w = 0, against the report's K
    when it carries one.  The basis is ordered w_(d-1) .. w_0, so maps[0]
    is the Kravitsky pencil M read as J*M*J, its rows in monomial order and
    J the reversal: symmetric, as M is, for the determinant's symmetric
    elimination.  Every other degree, a curve with base points, and a call
    without a report keep the kernel, the tests' reference.

    Every map is thus the T-contraction on its bases, and two maps compose
    to sum_(j,l) T_j T_l iota_j iota_l = 0, as the iota_j anticommute: no
    further check.
    """
    if nu < 0:
        raise UsageError("strand degree must be nonnegative")
    ring = param.ring
    field = ring.field
    n, d = param.n, param.d
    image = n
    if report is not None and report.base_locus_dim <= 0 and nu < 2 * d:
        image = max(2, _acyclic_above(param, report.base_locus_dim) + 1)
    kbs = [KoszulBasis(param, i, nu) for i in range(n)]
    z0 = len(kbs[0].monos)
    bases = []
    frees = []
    shared = report and report._koszul_reduction  # (degree, K, `_rref` of K) of level 1
    level_one = shared[1:] if shared and shared[0] == nu else None
    bezout = image == 2 and ring.nx == 2 and nu == d - 1 and report.base_locus_dim == -1
    for i in range(1, n):
        if i == 1 and bezout:
            # Z_2 is 0 below degree d: no map writes into these lines
            matrix = level_one[0] if level_one else koszul_differential_matrix(param, 1, nu)
            vecs, fr = _bezout_lines(param, matrix), []
        elif i < image:
            vecs, fr = _cycle_data(param, i, nu, level_one if i == 1 else None)
        else:
            vecs, fr = list(zip(*koszul_differential_matrix(param, i + 1, nu - d))), None
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
    # deeper maps: T-contractions, re-expressed in a kernel basis or, between
    # image levels, minus the contraction of the unit vectors over A_(nu-d)
    for i in range(1, n - 1):
        rows, cols = dims[i], dims[i + 1]
        explicit = i >= image
        if explicit:
            src_kb, dst_kb = KoszulBasis(param, i + 2, nu - d), KoszulBasis(param, i + 1, nu - d)
            src_vecs = [[int(k == s) for k in range(cols)] for s in range(cols)]
        else:
            src_kb, dst_kb = kbs[i + 1], kbs[i]
            src_vecs, dst_vecs, dst_free = bases[i], bases[i - 1], frees[i - 1]
            dividers = [field._divider(v[f]) for v, f in zip(dst_vecs, dst_free)]
        parts = zero_parts(rows, cols)
        for s, vec in enumerate(src_vecs):
            comps = _dT_components(param, src_kb, dst_kb, vec)
            for j in range(n):
                w = comps[j]
                if explicit:
                    xs = [field.canon(-c) for c in w]
                else:
                    xs = [div(w[f]) for div, f in zip(dividers, dst_free)]
                    if not _combination_matches(dst_vecs, xs, w, field):
                        raise ImplicaxError(
                            "strand grading error: contraction image left the cycle space"
                        )
                for r in range(rows):
                    parts[j + 1][r][s] = xs[r]
        maps.append(PolyMatrix.from_parts(ring, parts, cols))
    return ZStrand(param, nu, dims, maps)


def _combination_matches(vectors, xs, target, field):
    """Whether sum_r xs[r] * vectors[r] equals target.  Over QQ the vectors
    are integer and xs is scaled by the lcm of its denominators, so the sums
    run in integers; a Koszul-image target carries f's coefficients, which
    may be fractions, and is compared exactly."""
    if not field.char and (den := _denominators([xs])) > 1:
        xs = [_times(x, den) for x in xs]
        target = [b * den for b in target]
    acc = [0] * len(target)
    for x, v in zip(xs, vectors):
        if x:
            for k, c in enumerate(v):
                if c:
                    acc[k] += x * c
    return all(field.is_zero(a - b) for a, b in zip(acc, target))


def _denominators(vectors):
    """The lcm of the denominators of the vectors' entries."""
    return math.lcm(
        *[x.denominator for v in vectors if not all(map(int.__instancecheck__, v)) for x in v]
    )


def _times(x, den):
    """x * den as an int, for den a multiple of x's denominator."""
    return x.numerator * (den // x.denominator)


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


def _profile_draws(strand):
    """Draws per level of `check_rank_profile` before a short rank is declared a
    violation.

    On an exact strand the rows of a level have full rank r over k(T).
    Entries are affine in T, so some r x r minor of those rows is nonzero
    of degree <= r.  By Schwartz-Zippel it vanishes at a draw of
    `_sampled_pivots`, which takes each T from N values (p - 1 over GF(p),
    1995 over QQ), with probability <= r/N; only then can the draw fall
    short.  (Over QQ the draw is reduced mod a 62-bit prime; the bound holds
    unless that prime divides every coefficient of the minor.)  With r at
    most the map's smaller side, k draws at every level all fall short at
    some level with probability <= sum over maps of (r/N)^k.  This returns
    the least k that makes that sum <= 2^-40.  When some r >= N no k bounds
    it: this returns None, two draws are taken, and a short one raises
    SmallCharacteristicError, since it proves nothing.
    """
    size = _sample_size(strand.param.ring.field.char)
    sides = [min(m.rows, m.cols) for m in strand.maps]
    if max(sides) >= size:
        return None
    k = 1
    while sum((r / size) ** k for r in sides) > 2.0**-40:
        k += 1
    return k


def check_rank_profile(strand, seed=DEFAULT_SEED):
    """Nested nonsingular minors of the strand maps: one (rows, cols) per map.

    A level takes the rows outside the columns chosen at the level before
    (every row of the first map) and draws `_sampled_pivots` on them, up to
    `_profile_draws` times, until they reach full rank.  On an exact strand
    they do over k(T), since the kernel of the map before projects
    injectively onto those coordinates.  Conversely a minor that is
    nonsingular at a point is nonsingular over k(T), and the maps compose
    to zero (`z_strand`), so a chain through every map that leaves no rows
    over proves the strand exact over k(T) off the zeroth spot.  Raises
    HypothesisViolation otherwise, or SmallCharacteristicError when a level
    stays short and the field is too small for `_profile_draws` to bound
    the draws.  The draws are seeded "<seed>:chain:0".
    """
    rng = random.Random("%s:chain:0" % seed)
    draws = _profile_draws(strand)
    links = []
    rows = list(range(strand.dims[0]))
    for m in strand.maps:
        cols = []
        for _ in range(draws or 2):
            if len(cols) == len(rows):
                break
            cols = _sampled_pivots(m, rng, rows)
        links.append((rows, cols))
        if len(cols) < len(rows):
            if draws is None:
                field = strand.param.ring.field
                side = max(min(m.rows, m.cols) for m in strand.maps)
                raise SmallCharacteristicError(
                    "too few values (%d) to draw each T from in %s for a strand map of side %d, "
                    "so a rank of %d on %d rows proves nothing"
                    % (_sample_size(field.char), field, side, len(cols), len(rows))
                )
            break
        taken = set(cols)
        rows = [c for c in range(m.cols) if c not in taken]
    else:
        if not rows:
            return links
    raise HypothesisViolation(
        "rank profile %s inconsistent with exactness for dims %s "
        "(base locus not finite / not a local complete intersection / "
        "map not generically finite, or the strand degree is too small)"
        % ([len(cols) for _, cols in links], strand.dims)
    )


def complex_determinant(strand, seed=DEFAULT_SEED):
    """Determinant of the strand: alternating product of nested minors.

    The minors are the links of `check_rank_profile`, which also proves the
    strand exact; their numerator and denominator products are divided
    once at the end, exactly.
    """
    ring = strand.param.ring
    links = check_rank_profile(strand, seed)
    chain = []
    num = den = ring.one
    for idx, (m, (rows, cols)) in enumerate(zip(strand.maps, links)):
        det = det_fraction_free(m.submatrix(rows, cols)) if rows else ring.one
        sign = 1 if idx % 2 == 0 else -1
        if sign > 0:
            num = num * det
        else:
            den = den * det
        chain.append((idx, rows, cols, det, sign))
    try:
        value = exact_divide(num, den)
    except NotDivisibleError:
        raise HypothesisViolation(
            "minor quotient is not exact; the strand is not a "
            "resolution (hypotheses violated)"
        ) from None
    if not value.terms:
        raise HypothesisViolation("strand determinant vanished")
    return ComplexDet(value, chain)


# ---------------------------------------------------------------------------
# gcd of maximal minors


_RECOMBINATIONS = 12  # most sign recombinations folded into the gcd


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

    g starts as the first link of `check_rank_profile`, a nonsingular minor
    (the chain also proves the strand exact).  Then come determinants of
    the map times seeded +-1 sign matrices S, which by Cauchy-Binet are sums
    of all the maximal minors, each times the matching minor of S.  A
    determinant that g divides leaves g as it is, and no gcd is taken.  The
    fold also stops once two determinants in a row leave g
    unchanged, or after _RECOMBINATIONS of them.  A scalar multiple of g
    does not count toward the two: with few columns the minors of S often
    vanish (5/8 of the 3 x 3 sign matrices are singular), and the sum then
    collapses onto g's own minor.  That g divides the determinants does not
    prove that g divides every minor.  Only the degree equality does.

    Each gcd is `multivariate_gcd` with `degree` as its proven lower bound:
    the dimension of a cofactor kernel (over QQ, modulo word-size primes)
    gives the pair's gcd degree, and exact division proves the gcd.  A pair
    whose gcd falls below `degree` contradicts the theorem and raises
    ConsistencyError.  A target above the truth is caught that way only
    when some pair's gcd falls below it; a common divisor of the folded
    determinants that meets it first ends the fold, and the pipeline's
    degree check then passes.

    When the target is never reached, the result is the gcd of what was
    folded; its degree is then above the target, and the pipeline's degree
    check raises ConsistencyError.
    """
    m = strand.maps[0]
    ring = m.ring
    canon = ring.field.canon
    z0, z1 = m.rows, m.cols
    rows, cols = check_rank_profile(strand, seed)[0]
    g = det_fraction_free(m.submatrix(rows, cols))
    rng = random.Random("%s:minors" % (seed,))
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
            exact_divide(det, g)
        except NotDivisibleError:
            g = multivariate_gcd(g, det, degree, seed)
            clean = 0
        else:
            clean += det.total_degree() > g.total_degree()  # not a scalar multiple
    return normalize(g)
