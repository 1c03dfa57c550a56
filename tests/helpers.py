"""Helpers shared by several test modules."""

import random

from implicax.arith import make_parameterization, normalize
from implicax.linalg import det_fraction_free
from implicax.resultants import BinaryForm, binary_form, sylvester_matrix


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
