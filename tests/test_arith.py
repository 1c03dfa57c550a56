"""Polynomial arithmetic: ring ops, parsing, gcd, perfect powers."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from implicax import arith
from implicax.arith import (
    GF,
    QQ,
    ArithError,
    ConsistencyError,
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


@pytest.fixture(autouse=True)
def cofactor_kernels_over_prime_fields(monkeypatch):
    """Every cofactor kernel this module's tests take runs over a prime
    field: over QQ the gcd takes images modulo primes, and no kernel is
    taken over QQ itself."""
    cofactors = arith._cofactors

    def checked(a, *args):
        if not a.ring.field.char:
            pytest.fail("a cofactor kernel over QQ")
        return cofactors(a, *args)

    monkeypatch.setattr(arith, "_cofactors", checked)


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


@pytest.mark.parametrize("field", [QQ, GF(65521)], ids=["QQ", "GF"])
def test_a_sample_kernel_that_names_a_degree_is_redone_on_every_row(field, monkeypatch):
    # the sample kernel at target 0 has dimension 6 > 1: the full system at
    # target 0 names deg h = 2, and the kernel there is taken on every row
    ring = Ring(field, ["X1", "X2", "X3"], ["T1", "T2"])
    h = ring.poly("X1^2 + X2*X3 - 3*X3^2")
    a = h * ring.poly("2*X1 - X2 + 5*X3")
    b = h * ring.poly("X1^2 - 4*X2^2 + X1*X3 + 7*X3^2")
    calls = []
    cofactors = arith._cofactors

    def recorded(a, b, degree, monomials, rng=None):
        calls.append((degree, rng is not None))
        return cofactors(a, b, degree, monomials, rng)

    monkeypatch.setattr(arith, "_cofactors", recorded)
    assert unit_multiple_of(multivariate_gcd(a, b), h)
    assert calls[:3] == [(0, True), (0, False), (2, False)]


# ---------------------------------------------------------------------------
# the gcd's images modulo primes


def big_pair(seed, fractional, bits=200):
    """(a, b, g) for seeded forms a = g*u, b = g*v in T1..T3 (u, v coprime
    for these seeds), every coefficient a `bits`-bit integer or, with
    `fractional`, a `bits`-bit numerator over a denominator (1..4 in g,
    `bits` bits in u and v)."""
    ring = Ring(QQ, ["X1", "X2"], ["T1", "T2", "T3"])
    rng = random.Random("big-pair:%s:%s" % (seed, fractional))

    def form(deg, den_bits):
        terms = {}
        for m in ring.monomials_of_degree(deg, ring.nx, ring.nv):
            c = rng.choice((-1, 1)) * (rng.getrandbits(bits) | 1 << (bits - 1))
            if fractional:
                c = Fraction(c, rng.getrandbits(den_bits) | 1)
            terms[m] = c
        return Poly(ring, ring.field.reduce_terms(terms))

    g = form(2, 2)
    return g * form(2, bits), g * form(3, bits), g


def record_images(monkeypatch):
    """[(prime, degree)] of every gcd image taken from now on: an image's
    kernel steps start on a row sample and end at the kernel it is read off."""
    images = []
    cofactors = arith._cofactors

    def recorded(a, b, degree, monomials, rng=None):
        if rng is not None:
            images.append(None)
        images[-1] = (a.ring.field.char, degree)
        return cofactors(a, b, degree, monomials, rng)

    monkeypatch.setattr(arith, "_cofactors", recorded)
    return images


def test_every_gcd_prime_is_a_distinct_prime_below_two_to_the_62():
    assert all(arith._is_prime(p) and p < 1 << 62 for p in arith._PRIMES)
    assert len(set(arith._PRIMES)) == len(arith._PRIMES)
    assert arith._PRIMES[0] == (1 << 62) - 57


def test_gcd_primes_run_on_below_the_list_in_descending_order(monkeypatch):
    listed = arith._PRIMES
    head = list(itertools.islice(arith._primes(), len(listed) + 8))
    assert head[: len(listed)] == list(listed)
    assert head[len(listed) - 1 :] == [p for p in range(listed[-1], head[-1] - 1, -1) if arith._is_prime(p)]
    # the list is read at each call, and every prime below its last one follows
    monkeypatch.setattr(arith, "_PRIMES", (101, 97))
    assert list(arith._primes()) == [101, 97] + [n for n in range(96, 1, -1) if all(n % q for q in range(2, n))]


@pytest.mark.parametrize("fractional", [False, True], ids=["integer", "fraction"])
@pytest.mark.parametrize("seed", range(3))
def test_gcd_of_200_bit_pairs_equals_the_reference(seed, fractional, monkeypatch):
    a, b, g = big_pair(seed, fractional)
    expected = subresultant_gcd(a, b)
    assert expected == normalize(g)
    images = record_images(monkeypatch)
    for degree in (0, 2):
        assert multivariate_gcd(a, b, degree, seed=seed) == expected
    # the images of g, made monic and scaled by gcd(lc a, lc b), have
    # coefficients of about 200 bits: four 62-bit primes for each gcd
    assert len(images) >= 2 * 3


def test_gcd_needing_more_primes_than_the_list_equals_the_reference(monkeypatch):
    # 2,100-bit coefficients take more than the 32 listed 62-bit primes
    a, b, g = big_pair(0, False, bits=2100)
    images = record_images(monkeypatch)
    assert multivariate_gcd(a, b, 2) == subresultant_gcd(a, b) == normalize(g)
    assert len(images) > len(arith._PRIMES)
    assert [p for p, _ in images] == list(itertools.islice(arith._primes(), len(images)))


def test_gcd_over_a_prime_field_takes_no_images(monkeypatch):
    # the loop's one prime is p, on the input ring: no prime list, no ring copy
    monkeypatch.setattr(arith, "_primes", None)  # a call would raise TypeError
    monkeypatch.setattr(arith, "_ring_mod", None)
    ring = xt_ring(GF(65521), nx=2, nt=3)
    g = ring.poly("3*T1^2 - 5*T2*T3 + 7*T3^2")
    images = record_images(monkeypatch)
    assert multivariate_gcd(g * ring.poly("T1 + T2"), g * ring.poly("T2 - T3"), 2) == normalize(g)
    assert images == [(65521, 2)]


def test_gcd_past_the_prime_list_takes_the_primes_below_it(monkeypatch):
    a, b, g = big_pair(0, False)
    primes = arith._PRIMES
    monkeypatch.setattr(arith, "_PRIMES", primes[:2])
    images = record_images(monkeypatch)
    assert multivariate_gcd(a, b, 2) == normalize(g)
    # the listed primes are consecutive, so the primes below them are the rest
    assert len(images) > 2 and [p for p, _ in images] == list(primes[: len(images)])


def test_gcd_skips_a_prime_that_divides_a_leading_coefficient(monkeypatch):
    ring = xt_ring(nx=2, nt=3)
    primes = arith._PRIMES
    g = ring.poly("3*T1^2 - 5*T2*T3 + 7*T3^2")
    a = g * ring.poly("%d*T1 + T2 - 2*T3" % primes[1])
    b = g * ring.poly("T1^2 + 4*T2*T3 - T3^2")
    images = record_images(monkeypatch)
    monkeypatch.setattr(arith, "_PRIMES", primes[1:2])
    assert multivariate_gcd(a, b) == normalize(g)
    assert images == [(primes[2], 2)]  # skipped, so the next prime below answered
    monkeypatch.setattr(arith, "_PRIMES", primes[1::-1])
    assert multivariate_gcd(a, b) == normalize(g)
    assert images[1:] == [(primes[0], 2)]


def test_gcd_drops_a_prime_under_which_the_cofactor_system_loses_rank(monkeypatch):
    # u = w mod p, so mod p the gcd is g*u, one degree too high: the
    # candidate read off that image fails the exact divisions, and the next
    # prime's image has the least degree and restarts the combination, which
    # the unlucky image then no longer enters
    _, _, g = big_pair(0, False)
    ring = g.ring
    primes = arith._PRIMES
    a = g * ring.poly("T1 + T2 - 2*T3")
    b = g * ring.poly("T1 + %d*T2 - 2*T3" % (primes[1] + 1))
    images = record_images(monkeypatch)
    # a finite supply, so that a broken restart rule fails instead of running on
    monkeypatch.setattr(arith, "_primes", lambda: iter(primes[1:]))
    assert multivariate_gcd(a, b) == normalize(g)
    assert images[0] == (primes[1], 3)
    assert len(images) >= 1 + 4 and images[1:] == [(p, 2) for p in primes[2 : len(images) + 1]]


@pytest.mark.parametrize("primes", ["all", "none"])
def test_gcd_target_above_the_truth_still_raises(primes, monkeypatch):
    # with no listed primes the images are taken modulo the primes below
    # 2^62; either way the first image's empty kernel raises
    a, b, g = big_pair(1, True)
    if primes == "none":
        monkeypatch.setattr(arith, "_PRIMES", ())
    images = record_images(monkeypatch)
    with pytest.raises(ConsistencyError, match="below the predicted degree 3"):
        multivariate_gcd(a, b, 3)
    assert [p for p, _ in images] == [(1 << 62) - 57]


def test_gcd_raises_when_the_primes_run_out(monkeypatch):
    a, b, _ = big_pair(0, False)
    monkeypatch.setattr(arith, "_PRIMES", (7,))
    with pytest.raises(ArithError, match="primes ran out"):
        multivariate_gcd(a, b, 2)


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


def test_integer_roots_are_exact_past_the_float_range():
    # 3,000-bit powers overflow a float; the root is found or refused exactly
    rng = random.Random("integer-roots")
    for e in range(1, 6):
        assert arith._int_nth_root(0, e) == 0 and arith._int_nth_root(1, e) == 1
        for bits in (2, 61, 1100, 3000):
            r = rng.getrandbits(bits) | 1 << (bits - 1)
            assert arith._int_nth_root(r**e, e) == r
            assert arith._int_nth_root(-(r**e), e) == (-r if e % 2 else None)
            if e > 1:
                assert arith._int_nth_root(r**e + 1, e) is None
                assert arith._int_nth_root(r**e - 1, e) is None


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
