"""Helpers shared by several test modules."""

import random

from implicax.arith import make_parameterization


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
