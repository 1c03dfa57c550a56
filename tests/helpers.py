"""Helpers shared by several test modules."""

import math
import random

from implicax.arith import GF, QQ, Parameterization, Ring, make_parameterization, normalize
from implicax.geometry import _regularity_bound, _span_kernel, ideal_piece, saturation_piece
from implicax.linalg import _rref, det_fraction_free
from implicax.resultants import BinaryForm, binary_form, sylvester_matrix
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


def dense_quadric(field, seed):
    """Four dense quadrics in three variables, seeded coefficients 1..5."""
    rng = random.Random(seed)
    monos = ["X1^2", "X2^2", "X3^2", "X1*X2", "X1*X3", "X2*X3"]
    forms = [" + ".join("%d*%s" % (rng.randint(1, 5), m) for m in monos) for _ in range(4)]
    return make_parameterization(field, ["X1", "X2", "X3"], forms)


def sylvester_resultant(p, q):
    """Resultant of two binary forms as the Sylvester determinant."""
    return det_fraction_free(sylvester_matrix(p, q))


def sylvester_dehomogenized(param):
    """normalize(Res(f1 - T1*f3, f2 - T2*f3)) of a plane curve map, by the
    T-affine Sylvester determinant: an independent reference for
    `CurveResultant.dehomogenized`, which is read off the Kravitsky pencil."""
    ring = param.ring
    t1, t2 = (ring.poly(t) for t in param.t_names()[:2])
    f1, f2, f3 = (binary_form(param, p) for p in param.polys)
    p = BinaryForm(ring, [a - t1 * c for a, c in zip(f1.coeffs, f3.coeffs)])
    q = BinaryForm(ring, [b - t2 * c for b, c in zip(f2.coeffs, f3.coeffs)])
    return normalize(sylvester_resultant(p, q))


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
    `linalg._rref`, which must return the same rows, signs and pivots.

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
