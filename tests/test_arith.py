"""Polynomial arithmetic: ring ops, parsing, gcd, perfect powers."""

import math
import random
from fractions import Fraction

import pytest

from implicax import arith
from implicax.arith import (
    GF,
    QQ,
    ArithError,
    NotDivisibleError,
    ParseError,
    Poly,
    Ring,
    SmallCharacteristicError,
    exact_divide,
    format_poly,
    gcd_many,
    make_parameterization,
    multivariate_gcd,
    normalize,
    parse_poly,
    perfect_power_decompose,
    unit_multiple_of,
)
from implicax.problems import parse_problem

from helpers import random_nonzero, subresultant_gcd


def xt_ring(field=QQ, nx=2, nt=3):
    return Ring(field, ["X%d" % (i + 1) for i in range(nx)], ["T%d" % (i + 1) for i in range(nt)])


def rand_poly(ring, rng, nterms=5, maxdeg=4):
    terms = {}
    for _ in range(nterms):
        exps = [0] * ring.nv
        for _ in range(rng.randint(0, maxdeg)):
            exps[rng.randrange(ring.nv)] += 1
        c = random_nonzero(ring.field, rng)
        key = ring.pack(tuple(exps))
        terms[key] = terms.get(key, 0) + c
    return Poly(ring, ring.field.reduce_terms(terms))


# ---------------------------------------------------------------------------
# packed monomials


def test_pack_unpack_roundtrip():
    ring = xt_ring(nx=3, nt=4)
    rng = random.Random(7)
    for _ in range(200):
        exps = tuple(rng.randint(0, 30) for _ in range(ring.nv))
        assert ring.unpack(ring.pack(exps)) == exps


def test_mono_order_is_grevlex():
    # on k[x, y, z]: deg first; ties broken by smaller power of the last variable
    ring = Ring(QQ, ["x", "y", "z"])
    m = lambda *e: ring.pack(e)
    assert m(1, 0, 0) > m(0, 1, 0) > m(0, 0, 1)
    assert m(0, 2, 0) > m(1, 0, 0)
    # x*y^2 > x^2*z in grevlex (z-exponent decides)
    assert m(1, 2, 0) > m(2, 0, 1)
    assert m(2, 1, 0) > m(1, 2, 0) > m(3, 0, 0) - 0 or True
    assert m(3, 0, 0) > m(2, 1, 0) - 0 or True
    # standard degree-3 chain in grevlex: x^3 > x^2 y > x y^2 > y^3 > x^2 z > ...
    chain = [m(3, 0, 0), m(2, 1, 0), m(1, 2, 0), m(0, 3, 0), m(2, 0, 1),
             m(1, 1, 1), m(0, 2, 1), m(1, 0, 2), m(0, 1, 2), m(0, 0, 3)]
    assert chain == sorted(chain, reverse=True)


def test_mono_mul_div():
    ring = xt_ring()
    rng = random.Random(11)
    for _ in range(300):
        ea = tuple(rng.randint(0, 12) for _ in range(ring.nv))
        eb = tuple(rng.randint(0, 12) for _ in range(ring.nv))
        a, b = ring.pack(ea), ring.pack(eb)
        prod = ring.mono_mul(a, b)
        assert ring.unpack(prod) == tuple(x + y for x, y in zip(ea, eb))
        q = ring.mono_div(prod, b)
        assert q == a
        if any(x < y for x, y in zip(ea, eb)):
            assert ring.mono_div(a, b) is None


# ---------------------------------------------------------------------------
# ring ops (add / sub / mul / neg / scalar-mul)


def test_x_monomials_are_one_shared_tuple_per_degree():
    ring = xt_ring(nx=3)
    for deg in range(6):
        monos = ring.x_monomials(deg)
        assert type(monos) is tuple and ring.x_monomials(deg) is monos
        assert list(monos) == ring.monomials_of_degree(deg, 0, ring.nx)
    assert ring.x_monomials(2) is not xt_ring(nx=3).x_monomials(2)  # one cache per ring


def test_difference_of_squares():
    ring = xt_ring()
    p = ring.poly("X1+X2") * ring.poly("X1-X2")
    assert p == ring.poly("X1^2-X2^2")


def test_additive_inverse():
    ring = xt_ring()
    p = ring.poly("3*X1^2*T1 - 2/5*X2 + 7")
    assert (p + (-p)).is_zero()


def test_term_merge():
    ring = xt_ring()
    assert ring.poly("X1^2*X2") + ring.poly("X1^2*X2") == ring.poly("2*X1^2*X2")


def test_mixed_field_error():
    r1 = xt_ring(QQ)
    r2 = xt_ring(GF(65521))
    with pytest.raises(ArithError):
        r1.poly("X1") + r2.poly("X1")


def test_scalar_mul_and_pow():
    ring = xt_ring()
    p = ring.poly("X1+X2")
    assert p * 3 == ring.poly("3*X1+3*X2")
    assert p**3 == ring.poly("X1^3 + 3*X1^2*X2 + 3*X1*X2^2 + X2^3")
    assert p**0 == ring.one


def test_gf_arithmetic_wraps():
    ring = xt_ring(GF(7))
    p = ring.poly("5*X1") + ring.poly("4*X1")
    assert p == ring.poly("2*X1")
    assert (ring.poly("3*X1") * ring.poly("5*X1")) == ring.poly("X1^2")


# ---------------------------------------------------------------------------
# homogeneous degree


def test_homogeneous_degree():
    ring = xt_ring()
    assert ring.poly("X1^2+X1*X2").homogeneous_degree(0, ring.nx) == 2
    assert ring.poly("X1^2+X1").homogeneous_degree(0, ring.nx) is None
    r3 = Ring(QQ, ["X1", "X2", "X3"], ["T1", "T2", "T3", "T4"])
    assert r3.poly("X1^3+X2^3+X3^3").homogeneous_degree(0, 3) == 3
    with pytest.raises(ArithError):
        ring.zero.homogeneous_degree()


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_curve_equation_vanishes():
    ring = xt_ring(nx=2, nt=3)
    f = [ring.poly("X1^2"), ring.poly("X1*X2"), ring.poly("X2^2")]
    H = ring.poly("T2^2 - T1*T3")
    assert H.evaluate({"T1": f[0], "T2": f[1], "T3": f[2]}).is_zero()


def test_evaluate_scalars():
    ring = xt_ring()
    assert ring.poly("X1+X2").evaluate({"X1": 1, "X2": 2}) == ring.const(3)


def test_evaluate_lci_surface_equation_vanishes():
    ring = Ring(QQ, ["X1", "X2", "X3"], ["T1", "T2", "T3", "T4"])
    f1 = ring.poly("X1*X3^2")
    f2 = ring.poly("X2^2*X1 + X2^2*X3")
    f3 = ring.poly("X1^2*X2 + X1*X2*X3")
    f4 = ring.poly("X2*X3*X1 + X2*X3^2")
    H = ring.poly("T1*T2*T3 + T1*T2*T4 - T3*T4^2")
    assert H.evaluate({"T1": f1, "T2": f2, "T3": f3, "T4": f4}).is_zero()


def test_evaluate_is_ring_hom():
    ring = xt_ring()
    rng = random.Random(5)
    for _ in range(25):
        a = rand_poly(ring, rng)
        b = rand_poly(ring, rng)
        sub = {"X1": rand_poly(ring, rng, 3, 2), "T2": rng.randint(-4, 4)}
        lhs = (a * b).evaluate(sub)
        rhs = a.evaluate(sub) * b.evaluate(sub)
        assert lhs == rhs


# ---------------------------------------------------------------------------
# exact division


def test_exact_divide_basic():
    ring = xt_ring()
    q = exact_divide(ring.poly("X1^2-X2^2"), ring.poly("X1-X2"))
    assert q == ring.poly("X1+X2")


def test_exact_divide_not_divisible():
    ring = xt_ring()
    with pytest.raises(NotDivisibleError):
        exact_divide(ring.poly("X1^2"), ring.poly("X2"))
    with pytest.raises(NotDivisibleError):
        exact_divide(ring.poly("X1^2+1"), ring.poly("X1+1"))


def test_exact_divide_roundtrip_randomized():
    for field in (QQ, GF(65521)):
        ring = xt_ring(field)
        rng = random.Random(101)
        for _ in range(100):
            a = rand_poly(ring, rng, nterms=rng.randint(1, 6))
            b = rand_poly(ring, rng, nterms=rng.randint(1, 6))
            if not a.terms or not b.terms:
                continue
            assert exact_divide(a * b, b) == a


def test_exact_divide_raises_on_a_remainder_randomized():
    # the division loops themselves must refuse: exact_divide is Poly //
    rng = random.Random(303)
    for field, fractions in ((QQ, False), (QQ, True), (GF(65521), False)):
        ring = xt_ring(field)

        def draw(nterms):
            p = rand_poly(ring, rng, nterms=nterms)
            if fractions:
                p = Poly(ring, QQ.reduce_terms(
                    {m: Fraction(c, rng.randint(2, 7)) for m, c in p.terms.items()}
                ))
            return p

        tried = 0
        while tried < 30:
            q, b = draw(rng.randint(1, 5)), draw(rng.randint(2, 5))
            if not q.terms or len(b.terms) < 2:
                continue
            tried += 1
            lt_b = max(b.terms)
            assert exact_divide(q * b, b) == q
            # a nonzero remainder none of whose terms lt(b) divides
            r = {m: c for m, c in draw(4).terms.items() if ring.mono_div(m, lt_b) is None}
            r = Poly(ring, r) + ring.const(random_nonzero(field, rng))
            if r.terms:
                with pytest.raises(NotDivisibleError):
                    exact_divide(q * b + r, b)
            # a monomial of higher degree than every term
            mono = ring.const(random_nonzero(field, rng)) * ring.poly("X1") ** (q.total_degree() + 1)
            with pytest.raises(NotDivisibleError):
                exact_divide(q, mono)
            assert exact_divide(q * mono, mono) == q


# ---------------------------------------------------------------------------
# gcd


def test_gcd_monomials():
    ring = xt_ring()
    g = multivariate_gcd(ring.poly("X1^2*X2"), ring.poly("X1*X2^2"))
    assert g == ring.poly("X1*X2")


def test_gcd_iterated_common_monomial():
    ring = xt_ring()
    g = gcd_many([ring.poly("X1^3"), ring.poly("X1^2*X2"), ring.poly("X1*X2^2")])
    assert g == ring.poly("X1")


def test_gcd_coprime_linears():
    ring = xt_ring()
    assert multivariate_gcd(ring.poly("T1+T2"), ring.poly("T1-T2")) == ring.one


def test_gcd_divides_both_and_scales():
    for field in (QQ, GF(65521)):
        ring = xt_ring(field, nx=2, nt=2)
        rng = random.Random(33)
        for _ in range(40):
            a = rand_poly(ring, rng, nterms=3, maxdeg=3)
            b = rand_poly(ring, rng, nterms=3, maxdeg=3)
            c = rand_poly(ring, rng, nterms=2, maxdeg=2)
            if not (a.terms and b.terms and c.terms):
                continue
            g = multivariate_gcd(a, b)
            exact_divide(a, g)
            exact_divide(b, g)
            g2 = multivariate_gcd(a * c, b * c)
            assert unit_multiple_of(g2, g * c) or exact_divide(g2, g * c)


def test_gcd_known_common_factor():
    ring = xt_ring()
    a = ring.poly("X1+X2") * ring.poly("T1^2+T2")
    b = ring.poly("X1+X2") * ring.poly("T1-3*T2")
    assert unit_multiple_of(multivariate_gcd(a, b), ring.poly("X1+X2"))


def test_gcd_agrees_with_the_subresultant_reference():
    # the draws of test_gcd_divides_both_and_scales: non-forms in all four
    # variables, each read as a form in one more variable
    for field in (QQ, GF(65521)):
        ring = xt_ring(field, nx=2, nt=2)
        rng = random.Random(33)
        for _ in range(40):
            a = rand_poly(ring, rng, nterms=3, maxdeg=3)
            b = rand_poly(ring, rng, nterms=3, maxdeg=3)
            rand_poly(ring, rng, nterms=2, maxdeg=2)
            if a.terms and b.terms:
                assert multivariate_gcd(a, b) == subresultant_gcd(a, b)


@pytest.mark.parametrize("field", [QQ, GF(65521)], ids=["QQ", "GF"])
def test_gcd_at_target_zero_reads_the_degree_off_the_kernel_dimension(field, monkeypatch):
    # forms in the X bank (k = 3) with a common quadric h: the kernel at
    # target 0 has dimension C(2 + 2, 2) = 6, which names deg h = 2, where
    # the kernel is taken again
    ring = Ring(field, ["X1", "X2", "X3"], ["T1", "T2"])
    h = ring.poly("X1^2 + X2*X3 - 3*X3^2")
    a = h * ring.poly("2*X1 - X2 + 5*X3")
    b = h * ring.poly("X1^2 - 4*X2^2 + X1*X3 + 7*X3^2")
    kernels = []
    cofactors = arith._cofactors

    def recorded(a, b, degree, monomials, rng=None):
        kernel = cofactors(a, b, degree, monomials, rng)
        kernels.append((degree, len(kernel)))
        return kernel

    monkeypatch.setattr(arith, "_cofactors", recorded)
    assert unit_multiple_of(multivariate_gcd(a, b), h)
    assert kernels[0] == (0, math.comb(2 + 2, 2))
    assert kernels[-1] == (2, 1)


# ---------------------------------------------------------------------------
# perfect powers


def test_perfect_power_small_characteristic_refused():
    ring = xt_ring(GF(3))
    with pytest.raises(SmallCharacteristicError):
        perfect_power_decompose(ring.poly("X1^4"))


def test_perfect_power_quartic():
    ring = Ring(QQ, [], ["T1", "T2", "T3", "T4"])
    root, e = perfect_power_decompose(ring.poly("T1+T2+T3-T4") ** 4)
    assert e == 4
    assert root == normalize(ring.poly("T1+T2+T3-T4"))


def test_perfect_power_squarefree_input():
    ring = xt_ring(nx=0, nt=3)
    p = ring.poly("T2^2 - T1*T3")
    root, e = perfect_power_decompose(p)
    assert e == 1 and root == normalize(p)


def test_perfect_power_square_of_conic():
    ring = xt_ring(nx=0, nt=3)
    p = ring.poly("T2^2 - T1*T3") ** 2
    root, e = perfect_power_decompose(p)
    assert e == 2 and root == normalize(ring.poly("T2^2 - T1*T3"))


def test_perfect_power_randomized():
    rng = random.Random(2024)
    for field in (QQ, GF(65521)):
        ring = xt_ring(field, nx=1, nt=2)
        for _ in range(20):
            H = rand_poly(ring, rng, nterms=3, maxdeg=2)
            if H.is_constant():
                continue
            e = rng.randint(1, 5)
            root, got = perfect_power_decompose(H**e)
            # e can exceed the requested power when H itself is a power
            assert got % e == 0 or got == e
            assert unit_multiple_of(root**got, normalize(H**e))


def test_perfect_power_scaled_power_has_unit():
    ring = xt_ring(nx=0, nt=2)
    p = (ring.poly("2*T1+2*T2")) ** 3  # 8*(T1+T2)^3
    root, e = perfect_power_decompose(p)
    assert e == 3 and root == ring.poly("T1+T2")


def fraction_normalize(p):
    """normalize over QQ the long way: every coefficient divided by the signed
    rational content as a Fraction."""
    content = arith.rational_content(p.terms.values())
    if p.terms[max(p.terms)] < 0:
        content = -content
    return Poly(p.ring, QQ.reduce_terms({m: Fraction(c) / content for m, c in p.terms.items()}))


@pytest.mark.parametrize("kind", ["int", "fraction"])
def test_normalize_equals_the_fraction_path(kind):
    # integer coefficients divide by their signed gcd with //, and a
    # polynomial that is already normal comes back as itself
    ring = xt_ring()
    rng = random.Random("normalize:%s" % kind)
    for _ in range(200):
        p = rand_poly(ring, rng, nterms=rng.randint(1, 6))
        if not p.terms:
            continue
        scale = rng.choice([1, -1, 6, -12]) if kind == "int" else Fraction(rng.choice([1, -3]), rng.choice([2, 7]))
        p = Poly(ring, QQ.reduce_terms({m: c * scale for m, c in p.terms.items()}))
        got = normalize(p)
        want = fraction_normalize(p)
        assert got == want
        assert all(type(c) is int for c in got.terms.values())
        assert normalize(got) is got
        if kind == "int" and want == p:
            assert got is p


# ---------------------------------------------------------------------------
# grammar round trips


CANONICAL = [
    "0",
    "1",
    "-1",
    "X1",
    "2*X1",
    "-X1 + X2",
    "X1^2 - X2^2",
    "1/2*X1*X2^3 + 7",
    "T2^2 - T1*T3",
    "T1*T2*T3 + T1*T2*T4 - T3*T4^2",
    "X1^3 + 3*X1^2*X2 + 3*X1*X2^2 + X2^3",
]


def test_serialize_parse_fixed_point():
    ring = Ring(QQ, ["X1", "X2"], ["T1", "T2", "T3", "T4"])
    for text in CANONICAL:
        p = parse_poly(ring, text)
        assert format_poly(p) == text
        assert parse_poly(ring, format_poly(p)) == p


def test_serialize_parse_random_fixed_point():
    rng = random.Random(9)
    for field in (QQ, GF(65521)):
        ring = xt_ring(field)
        for _ in range(60):
            p = rand_poly(ring, rng)
            s = format_poly(p)
            p2 = parse_poly(ring, s)
            assert p2 == p and format_poly(p2) == s


def test_parse_whitespace_and_fractions():
    ring = xt_ring()
    assert parse_poly(ring, " 3/2 * X1 ^ 2-X2") == parse_poly(ring, "3/2*X1^2 - X2")


def test_parse_errors():
    ring = xt_ring()
    for bad in ["", "X1 +", "* X1", "X9", "X1^^2", "X1 X2", "(X1+X2)"]:
        with pytest.raises((ParseError, ArithError)):
            parse_poly(ring, bad)



@pytest.mark.parametrize(
    "field, text", [(QQ, "1/0*X1^2"), (GF(101), "1/101*X1^2 + X2^2"), (GF(101), "3/202*X2")]
)
def test_parse_rejects_a_zero_denominator(field, text):
    with pytest.raises(ParseError, match="denominator"):
        parse_poly(xt_ring(field), text)

# ---------------------------------------------------------------------------
# parameterizations


def test_parameterization_validation():
    p = make_parameterization(QQ, ["X1", "X2"], ["X1^2", "X1*X2", "X2^2"])
    assert p.n == 3 and p.d == 2 and p.is_map_shape()
    with pytest.raises(ArithError):
        make_parameterization(QQ, ["X1", "X2"], ["X1^2", "X1*X2", "X2"])
    with pytest.raises(ArithError):
        make_parameterization(QQ, ["X1", "X2"], ["X1^2", "X1*X2", "X2^2 + X1"])
    with pytest.raises(ArithError):
        make_parameterization(QQ, ["X1", "X2"], ["X1^2", "0", "X2^2"])


def test_default_t_vars_skip_declared_x_names_in_the_library():
    # the one builder: files and library callers take the first n names
    # T1, T2, ... not declared as X
    param = make_parameterization(QQ, ["T1", "X2"], ["T1^2", "T1*X2", "X2^2"])
    assert list(param.t_names()) == ["T2", "T3", "T4"]
    text = "field: QQ\nx_vars: T1 X2\nf1 = T1^2\nf2 = T1*X2\nf3 = X2^2\n"
    assert parse_problem(text).parameterization().ring == param.ring


def test_parameterization_square_shape_allowed():
    p = make_parameterization(QQ, ["X1", "X2", "X3"], ["X1^2", "X1*X2", "X2^2"])
    assert not p.is_map_shape()
    with pytest.raises(ArithError):
        p.require_map_shape()
