"""Helpers shared by several test modules."""

import math
import random

from implicax.arith import (
    _EXP_BITS,
    _MAXE,
    GF,
    QQ,
    ArithError,
    Parameterization,
    Poly,
    Ring,
    _check_same_ring,
    _rref,
    exact_divide,
    make_parameterization,
    monomial_content,
    normalize,
)
from implicax.geometry import _regularity_bound, _span_kernel, ideal_piece, saturation_piece
from implicax.linalg import PolyMatrix, det_fraction_free
from implicax.resultants import binary_form, sylvester_matrix
from implicax import strands
from implicax.strands import boundary_basis, cycle_basis


def polys_to_vector(param, nu, polys):
    """Inverse of `strands.vector_to_polys`: an n-tuple of A_nu polys as one
    coefficient vector, subset-major over the degree-nu monomials."""
    nm = param.ring.x_monomials(nu)
    mono_index = {m: k for k, m in enumerate(nm)}
    vec = [0] * (param.n * len(nm))
    for j, p in enumerate(polys):
        for m, c in p.terms.items():
            vec[j * len(nm) + mono_index[m]] = c
    return vec


def random_nonzero(field, rng):
    """A seeded nonzero scalar: from -9 .. 9 over QQ, from 1 .. p-1 over GF(p)."""
    if field.char:
        return rng.randrange(1, field.char)
    while True:
        c = rng.randint(-9, 9)
        if c:
            return c


def _dense_surface(field, monos, seed):
    """Four forms in three variables with every monomial of `monos`, seeded
    coefficients 1..5."""
    rng = random.Random(seed)
    forms = [" + ".join("%d*%s" % (rng.randint(1, 5), m) for m in monos) for _ in range(4)]
    return make_parameterization(field, ["X1", "X2", "X3"], forms)


def dense_quadric(field, seed):
    """Four dense quadrics in three variables, seeded coefficients 1..5."""
    return _dense_surface(field, ["X1^2", "X2^2", "X3^2", "X1*X2", "X1*X3", "X2*X3"], seed)


def dense_cubic(field, seed):
    """Four dense cubics in three variables, seeded coefficients 1..5."""
    monos = ["X1^%d*X2^%d*X3^%d" % (a, b, 3 - a - b) for a in range(4) for b in range(4 - a)]
    return _dense_surface(field, monos, seed)


def dense_curve_text(d, rng):
    """Three dense binary forms of degree d with random integer coefficients."""
    monos = ["X1^%d*X2^%d" % (d - j, j) for j in range(d + 1)]
    return [
        " ".join("%+d*%s" % (rng.randint(-9, 9) or 1, m) for m in monos) for _ in range(3)
    ]


def over_field(param, field):
    """The map with the same forms, read over `field`."""
    ring = param.ring
    return make_parameterization(field, list(ring.names[: ring.nx]), [str(f) for f in param.polys])


def count_cycle_kernels(monkeypatch):
    """The exterior degrees of the cycle kernels `strands` takes from now on,
    in order; a level-1 kernel finished from the analysis's reduction counts
    too."""
    calls = []

    def counted(param, i, nu, reduced=None, _inner=strands._cycle_data):
        calls.append(i)
        return _inner(param, i, nu, reduced)

    monkeypatch.setattr(strands, "_cycle_data", counted)
    return calls


def sylvester_resultant(p, q):
    """Resultant of two binary forms as the Sylvester determinant."""
    return det_fraction_free(sylvester_matrix(p, q))


def t_affine_sylvester(f1, f2, f3):
    """The 2d x 2d Sylvester matrix of f1 - T1*f3 and f2 - T2*f3, for binary
    forms of one degree d >= 1 with scalar coefficients (T1, T2 the ring's
    first two T variables).  Its entries are Polys a - T_i*c, split into
    parts by the PolyMatrix constructor; it shares no code with
    `resultants.sylvester_matrix`, which builds scalar parts."""
    ring, d = f1.ring, f1.degree
    t1, t2 = (ring.poly(name) for name in ring.names[ring.nx : ring.nx + 2])
    p = [ring.const(a) - t1 * c for a, c in zip(f1.coeffs, f3.coeffs)]
    q = [ring.const(b) - t2 * c for b, c in zip(f2.coeffs, f3.coeffs)]
    zero = [ring.zero] * (d - 1)
    return PolyMatrix(ring, [zero[:i] + coeffs + zero[i:] for coeffs in (p, q) for i in range(d)], 2 * d)


def sylvester_dehomogenized(param):
    """normalize(Res(f1 - T1*f3, f2 - T2*f3)) of a plane curve map, by the
    T-affine Sylvester determinant: an independent reference for
    `CurveResultant.dehomogenized`, which is read off the Kravitsky pencil."""
    forms = (binary_form(param, p) for p in param.polys)
    return normalize(det_fraction_free(t_affine_sylvester(*forms)))


def one_shift_saturation(param, nu):
    """Echelon basis of {g in A_nu : g * A_s lies in I_(nu+s)} for the one
    shift s = max(1, t - nu), t = the regularity bound: a reference for
    `saturation_piece`, which descends a chain one degree at a time."""
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


def intersection_triples(param, nu_max):
    """(boundary, saturated, plain) dimensions for nu = 1..nu_max by
    intersecting: a basis of Z_1 (`cycle_basis`), then the combinations of it
    whose components lie in the saturated, or the plain, piece of I.  A
    reference for `syzygetic_test`, which counts them by ranks."""
    field = param.ring.field
    out = []
    for nu in range(1, nu_max + 1):
        z1 = cycle_basis(param, 1, nu)
        width = len(param.ring.x_monomials(nu))
        sat, plain = (
            len(_span_kernel(field, z1, width, piece))
            for piece in (saturation_piece(param, nu), ideal_piece(param, nu))
        )
        out.append((len(boundary_basis(param, nu)), sat, plain))
    return out


def random_surface(field, d, rng, base):
    """Four random sparse ternary forms of degree d, nonzero coefficients in
    -2..2, each term kept with probability 1/2.  With base "line" all four share the
    factor X1 + 2*X2 - X3, so I^sat contains it and differs from I in low
    degrees; with base "point" none has the term X3^d, so all vanish at
    (0:0:1)."""
    ring = Ring(field, ("X1", "X2", "X3"), ("T1", "T2", "T3", "T4"))
    line = ring.poly("X1 + 2*X2 - X3") if base == "line" else ring.one
    deg = d - 1 if base == "line" else d
    monos = [
        "X1^%d*X2^%d*X3^%d" % (a, b, deg - a - b)
        for a in range(deg + 1)
        for b in range(deg + 1 - a)
    ]
    if base == "point":
        monos.remove("X1^0*X2^0*X3^%d" % deg)
    forms = []
    while len(forms) < 4:
        terms = ["%+d*%s" % (rng.choice((-2, -1, 1, 2)), m) for m in monos if rng.random() < 0.5]
        if terms:
            forms.append(" ".join(terms))
    return Parameterization(ring, [line * ring.poly(form) for form in forms])


def seeded_surfaces():
    rng = random.Random("seeded-surfaces")
    for field in (QQ, GF(101)):
        for d in (2, 3):
            for base in (None, "line", "point"):
                yield random_surface(field, d, rng, base)


def dense_rref(p, data):
    """Gauss-Jordan elimination on dense integer rows: the reference for
    `arith._rref`, which must return the same rows, signs and pivots.

    Rows with fractions are scaled by the lcm of their denominators and
    reduced mod p when p > 0; over QQ the elimination is fraction-free,
    each updated row divided by the gcd of its entries.
    """

    def primitive(row):
        g = math.gcd(*row)
        return [x // g for x in row] if g > 1 else row

    rows = []
    for row in data:
        if not all(map(int.__instancecheck__, row)):
            den = math.lcm(*[x.denominator for x in row])
            row = [int(x * den) for x in row]
        rows.append([x % p for x in row] if p else list(row))
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
            prow = rows[r] = primitive(rows[r])
        pc = prow[c]
        for i, row in enumerate(rows):
            ic = row[c]
            if not ic or i == r:
                continue
            if p:
                rows[i] = [(a - ic * b) % p for a, b in zip(row, prow)]
            else:
                rows[i] = primitive([pc * a - ic * b for a, b in zip(row, prow)])
        pivots.append(c)
        if len(pivots) == len(rows):
            break
    return rows[: len(pivots)], pivots


# ---------------------------------------------------------------------------
# the subresultant gcd: a reference independent of the cofactor kernel


def _as_univariate(p, v):
    """Coefficient list [c_0 .. c_deg] of p seen in variable v; entries are
    polynomials not involving v."""
    ring = p.ring
    deg = p.degree_in_var(v)
    coeffs = [dict() for _ in range(deg + 1)]
    off = _EXP_BITS * v
    for m, c in p.terms.items():
        e = _MAXE - ((m >> off) & _MAXE)
        drop = ring.pack(tuple(e if j == v else 0 for j in range(ring.nv)))
        coeffs[e][ring.mono_div(m, drop)] = c
    return [Poly(ring, t) for t in coeffs]


def _from_univariate(coeffs, v):
    ring = coeffs[0].ring
    out = {}
    for e, ce in enumerate(coeffs):
        if not ce.terms:
            continue
        shift = ring.pack(tuple(e if j == v else 0 for j in range(ring.nv)))
        for m, c in ce.terms.items():
            out[ring.mono_mul(m, shift)] = c
    return Poly(ring, out)


def _uni_deg(coeffs):
    d = len(coeffs) - 1
    while d >= 0 and not coeffs[d].terms:
        d -= 1
    return d


def _uni_pseudo_rem(a, b, ring):
    """Pseudo-remainder of coefficient lists a by b (lc(b)^(da-db+1) * a mod b)."""
    da, db = _uni_deg(a), _uni_deg(b)
    lc_b = b[db]
    r = list(a[: da + 1])
    for k in range(da, db - 1, -1):
        lead = r[k]
        r = [ci * lc_b for ci in r[:k]]
        if lead.terms:
            for j in range(db):
                r[k - db + j] = r[k - db + j] - lead * b[j]
    while r and not r[-1].terms:
        r.pop()
    return r


def subresultant_gcd(a, b):
    """gcd via content/primitive-part recursion + subresultant remainders.

    Result is normalized (primitive, positive leading coefficient over QQ;
    monic over GF(p)).  The tests' reference for `arith.multivariate_gcd`,
    which reads every gcd off a cofactor kernel instead.
    """
    _check_same_ring(a, b)
    ring = a.ring
    if not a.terms and not b.terms:
        raise ArithError("gcd(0, 0) undefined")
    if not a.terms:
        return normalize(b)
    if not b.terms:
        return normalize(a)
    mono = ring.mono_gcd(monomial_content(a), monomial_content(b))
    a = exact_divide(a, Poly(ring, {monomial_content(a): 1}))
    b = exact_divide(b, Poly(ring, {monomial_content(b): 1}))
    g = _gcd_primitive(a, b)
    return normalize(g * Poly(ring, {mono: 1}))


def subresultant_gcd_many(polys):
    """Iterated pairwise `subresultant_gcd` of a non-empty sequence."""
    polys = [p for p in polys if p.terms]
    if not polys:
        raise ArithError("gcd of all-zero collection")
    g = polys[0]
    for p in polys[1:]:
        g = subresultant_gcd(g, p)
        if g.is_constant():
            break
    return normalize(g)


def _gcd_primitive(a, b):
    ring = a.ring
    if a.is_constant() or b.is_constant():
        return ring.one
    avars = set(a.variables())
    bvars = set(b.variables())
    common = avars | bvars
    v = max(common)
    ua = _as_univariate(a, v)
    ub = _as_univariate(b, v)
    if len(ua) == 1 or len(ub) == 1:
        # one input does not involve v after all (can't happen with v chosen
        # from the union unless the poly is v-free): gcd with its content
        if len(ua) == 1:
            return subresultant_gcd_many([ua[0]] + ub)
        return subresultant_gcd_many([ub[0]] + ua)
    cont_a = subresultant_gcd_many(ua)
    cont_b = subresultant_gcd_many(ub)
    cont = subresultant_gcd(cont_a, cont_b) if not (cont_a.is_constant() and cont_b.is_constant()) else ring.one
    pa = [exact_divide(c, cont_a) for c in ua]
    pb = [exact_divide(c, cont_b) for c in ub]
    if _uni_deg(pa) < _uni_deg(pb):
        pa, pb = pb, pa
    g = ring.one
    h = ring.one
    r0, r1 = pa, pb
    while True:
        d0, d1 = _uni_deg(r0), _uni_deg(r1)
        delta = d0 - d1
        rem = _uni_pseudo_rem(r0, r1, ring)
        if _uni_deg(rem) < 0:
            pp = r1
            break
        if _uni_deg(rem) == 0:
            return cont
        divisor = g * h**delta
        r0 = r1
        r1 = [exact_divide(c, divisor) for c in rem]
        g = r0[_uni_deg(r0)]
        if delta == 0:
            pass
        elif delta == 1:
            h = g
        else:
            h = exact_divide(g**delta, h ** (delta - 1))
    pp_cont = subresultant_gcd_many(pp)
    pp = [exact_divide(c, pp_cont) for c in pp]
    return cont * _from_univariate(pp, v)
