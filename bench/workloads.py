"""Seeded inputs for the implicitization benchmark and the check of answers.

Every input is problem text in the format of `problems/*.txt`, built here
without help from implicax, so the program receives only the generated
inputs.  An input is a seeded coordinate change of a base problem: the X
variables are scaled and, on the sparse maps, permuted, and there the f's
are permuted too, which permutes the T's.  The closed image does not depend
on the X coordinates, so the answer of every input is the base problem's
answer with the T's permuted back; `references.json` holds a digest of each
base answer.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import re
from dataclasses import dataclass, replace
from fractions import Fraction

P = 65521
QQ = "QQ"
GF = "GF(%d)" % P

# The five map problems shipped in problems/, copied so that the inputs and
# their references stay fixed when those files change.
SHIPPED = {
    "curve_conic": ["X1^2", "X1*X2", "X2^2"],
    "curve_with_base_point": ["X1^3", "X1^2*X2", "X1*X2^2"],
    "surface_quadric": ["X1^2", "X2^2", "X3^2", "X1^2 + X2^2 + X3^2"],
    "surface_cubic": ["X1^2*X2", "X2^2*X3", "X1*X3^2", "X1^3 + X2^3 + X3^3"],
    "surface_lci": [
        "X1*X3^2",
        "X1*X2^2 + X2^2*X3",
        "X1^2*X2 + X1*X2*X3",
        "X1*X2*X3 + X2*X3^2",
    ],
}

# Dense bases: one fixed problem per kind and field.  A run's seed changes
# only the coordinate changes, which leave the work of a solve nearly
# unchanged, so runs with different seeds do the same work on different
# inputs.  ("surface3", field) is the dense cubic surface of the baseline.
QUADRICS = [("quadric", QQ), ("quadric", GF)]
CURVES = [("curve%d" % d, f) for d in (6, 8, 10) for f in (QQ, GF)]
ROUTES = ("det-complex", "gcd-minors", "resultant")

# QQ scale factors: sign changes keep coefficient sizes, and so the cost of a
# dense input, fixed; the sparse maps also take small integer scalings.
DENSE_SCALES = (-1, 1)
SPARSE_SCALES = (-3, -2, -1, 1, 2, 3)

WORKLOADS = ("sparse-maps", "curves", "gcd-minors")

_TERM_RE = re.compile(r"([+-]?)\s*([^+-]+)")


def parse_terms(text):
    """{(name, exponent) tuple: Fraction} of a polynomial in the text format."""
    terms = {}
    for sign, body in _TERM_RE.findall(text.replace(" ", "")):
        coeff = Fraction(-1 if sign == "-" else 1)
        mono = {}
        for factor in body.split("*"):
            if factor[0].isdigit():
                coeff *= Fraction(factor)
            else:
                name, _, exp = factor.partition("^")
                mono[name] = mono.get(name, 0) + int(exp or 1)
        key = tuple(sorted(mono.items()))
        terms[key] = terms.get(key, 0) + coeff
    return {k: c for k, c in terms.items() if c}


def _format_terms(terms):
    out = []
    for mono, c in sorted(terms.items()):
        factors = ["%s^%d" % (v, e) if e > 1 else v for v, e in mono]
        out.append("%s*%s" % (c, "*".join(factors)) if factors else str(c))
    return " + ".join(out).replace("+ -", "- ")


def _dense_form(rng, nx, d):
    names = ["X%d" % (i + 1) for i in range(nx)]
    terms = {}
    for combo in itertools.combinations_with_replacement(names, d):
        mono = tuple(sorted((v, combo.count(v)) for v in set(combo)))
        terms[mono] = Fraction(rng.randint(1, 5))
    return terms


def base_problem(key):
    """(field, nx, [terms of f_1 .. f_n]) of a shipped problem or a dense base."""
    if isinstance(key, str):
        polys = [parse_terms(t) for t in SHIPPED[key]]
        nx = len(polys) - 1
        return QQ, nx, polys
    kind, field = key
    rng = random.Random("%s:%s" % key)
    nx, d = (2, int(kind[5:])) if kind.startswith("curve") else (3, 3 if kind == "surface3" else 2)
    return field, nx, [_dense_form(rng, nx, d) for _ in range(nx + 1)]


@dataclass(frozen=True)
class Input:
    """One solve: problem text, route, and how to undo the T permutation."""

    base: object  # a SHIPPED name or a dense (kind, field) key
    field: str
    text: str
    method: str
    syzygetic: bool
    t_perm: tuple  # T_j of this input is T_{t_perm[j]} of the base problem

    @property
    def tag(self):
        """The class of the input, for the per-class timing lines."""
        kind = self.base if isinstance(self.base, str) else self.base[0]
        tag = "%s-%s" % (kind, "QQ" if self.field == QQ else "GF")
        return tag if self.method == "det-complex" else "%s:%s" % (tag, self.method)


def transformed(key, rng=None, method="det-complex", syzygetic=False):
    """A seeded coordinate change of a base problem; the base itself when rng is None.

    The shipped (sparse) maps get the full change.  Dense bases only change
    signs: the order of the X's and of the f's moves the cost of a resultant
    or gcd-minors solve by a fifth, and dense runs should repeat the same work.
    """
    sparse = isinstance(key, str)
    field, nx, polys = base_problem(key)
    n = len(polys)
    x_perm, scale, t_perm = list(range(nx)), [1] * nx, tuple(range(n))
    if rng is not None:
        scale = [rng.choice(SPARSE_SCALES if sparse else DENSE_SCALES) for _ in range(nx)]
        if sparse:
            x_perm = rng.sample(range(nx), nx)
            t_perm = tuple(rng.sample(range(n), n))
    lines = ["field: %s" % field, "x_vars: %s" % " ".join("X%d" % (i + 1) for i in range(nx))]
    for j in range(n):
        terms = {}
        for mono, c in polys[t_perm[j]].items():
            new = []
            for v, e in mono:
                i = int(v[1:]) - 1
                c *= Fraction(scale[i]) ** e
                new.append(("X%d" % (x_perm[i] + 1), e))
            terms[tuple(sorted(new))] = c
        lines.append("f%d = %s" % (j + 1, _format_terms(terms)))
    return Input(key, field, "\n".join(lines) + "\n", method, syzygetic, t_perm)


def round_inputs(workload, seed, index):
    """The inputs of round `index` of a run with `seed`; one list per seed and index."""
    rng = random.Random("%s:%d:%d" % (workload, seed, index))
    if workload == "sparse-maps":
        return [transformed(name, rng, syzygetic=name.startswith("surface")) for name in SHIPPED]
    if workload == "curves":
        out = []
        for key in CURVES:
            inp = transformed(key, rng)
            out += [replace(inp, method=m) for m in ROUTES]
        return out
    if workload == "gcd-minors":
        out = [transformed(key, rng, "gcd-minors") for key in QUADRICS]
        out.append(transformed("surface_quadric", rng, "gcd-minors"))
        return out
    raise ValueError("unknown workload %r" % workload)


def ref_key(key):
    return key if isinstance(key, str) else ":".join(key)


def all_bases():
    return list(SHIPPED) + QUADRICS + CURVES


def answer(inp, reduced_text):
    """Digest of the reduced equation in the base problem's T's, made monic."""
    terms = {}
    for mono, c in parse_terms(reduced_text).items():
        exps = [0] * len(inp.t_perm)
        for v, e in mono:
            if not v.startswith("T"):
                raise ValueError("reduced equation has the variable %s" % v)
            exps[inp.t_perm[int(v[1:]) - 1]] = e
        terms[tuple(exps)] = c
    lead = terms[max(terms)]
    if inp.field == QQ:
        terms = {e: c / lead for e, c in terms.items()}
    else:
        inv = pow(int(lead) % P, P - 2, P)
        terms = {e: int(c) * inv % P for e, c in terms.items()}
    text = ";".join("%s:%s" % (e, terms[e]) for e in sorted(terms))
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def load_references():
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
