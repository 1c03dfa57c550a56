"""Exact coefficient fields and sparse multivariate polynomial arithmetic.

Coefficients are either rationals (Python int, promoted to Fraction only when
a denominator appears) or residues mod a prime p (plain ints in [0, p)).

A monomial is a single Python int packing, from most to least significant:
the total degree (24 bits), then one 16-bit field per variable in *reverse*
declared order, each field storing MAXEXP - exponent.  With this layout

  * integer comparison of keys == graded reverse lexicographic order,
  * monomial product == key_a + key_b - ONE,
  * divisibility and quotient are a couple of masked int ops,

so the hot loops (multiplication, exact division, determinants) run on plain
int arithmetic.  Exponents must stay below 2**15 and total degrees below
2**23; far beyond anything this library is used for.

This module also holds the package's one row reduction (`_rref`, with the
checked kernel `rref_kernel_data` read off it and its check `check_kernel`),
which `linalg`, `strands` and `geometry` take from here, and its one gcd
(`multivariate_gcd`), read off a cofactor kernel of that row reduction.
"""

from __future__ import annotations

import functools
import math
import random
import re
from fractions import Fraction
from itertools import compress, count, islice

__all__ = [
    "QQ",
    "GF",
    "Ring",
    "Poly",
    "Parameterization",
    "ArithError",
    "ParseError",
    "NotDivisibleError",
    "SmallCharacteristicError",
    "ConsistencyError",
]


class ArithError(Exception):
    """Base class for arithmetic failures."""


class ParseError(ArithError):
    """Malformed polynomial text."""


class NotDivisibleError(ArithError):
    """Exact division requested but the divisor does not divide."""


class SmallCharacteristicError(ArithError):
    """Operation needs characteristic 0 or larger than the degree at hand."""


class ConsistencyError(ArithError):
    """An internal cross-check failed: a degree mismatch, the evaluation
    oracle, a kernel vector with A*v != 0, or the gcd's dimension rule."""


# ---------------------------------------------------------------------------
# coefficient fields


class RationalField:
    """The rationals.  Values are int, or Fraction when non-integral."""

    char = 0
    name = "QQ"

    def canon(self, c):
        if type(c) is int:
            return c
        if c.denominator == 1:
            return int(c)
        return c

    def reduce_terms(self, terms):
        return {
            m: c if type(c) is int or c.denominator != 1 else int(c)
            for m, c in terms.items()
            if c
        }

    def div(self, a, b):
        if type(a) is int and type(b) is int:
            q, r = divmod(a, b)
            if r == 0:
                return q
        return self.canon(Fraction(a) / Fraction(b))

    def _divider(self, b):
        """The map a -> a / b for a fixed nonzero b."""
        div = self.div
        return lambda a: div(a, b)

    def invert(self, a):
        return self.canon(Fraction(1) / Fraction(a))

    def neg(self, a):
        return -a

    def is_zero(self, a):
        return not a

    def parse(self, text):
        if "/" in text:
            num, den = text.split("/")
            if not int(den):
                raise ParseError("zero denominator in %r" % text)
            return self.canon(Fraction(int(num), int(den)))
        return int(text)

    def format(self, c):
        if type(c) is int:
            return str(c)
        return "%d/%d" % (c.numerator, c.denominator)

    def random(self, rng):
        return rng.randint(-9, 9)

    def nth_root(self, c, e):
        """Exact e-th root of c, or None."""
        fr = Fraction(c)
        num = _int_nth_root(fr.numerator, e)
        den = _int_nth_root(fr.denominator, e)
        if num is None or den is None:
            return None
        return self.canon(Fraction(num, den))

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


def _int_nth_root(n, e):
    """Exact integer e-th root of n (signed), or None."""
    if n < 0:
        if e % 2 == 0:
            return None
        r = _int_nth_root(-n, e)
        return None if r is None else -r
    if n in (0, 1):
        return n
    r = round(n ** (1.0 / e))
    for cand in (r - 1, r, r + 1):
        if cand >= 0 and cand**e == n:
            return cand
    # float guess can be off for big n; fall back to bisection
    lo, hi = 0, 1 << (n.bit_length() // e + 1)
    while lo <= hi:
        mid = (lo + hi) // 2
        v = mid**e
        if v == n:
            return mid
        if v < n:
            lo = mid + 1
        else:
            hi = mid - 1
    return None


class PrimeField:
    """GF(p) for prime p.  Values are ints in [0, p)."""

    def __init__(self, p):
        if p < 2 or not _is_prime(p):
            raise ArithError("modulus %d is not prime" % p)
        self.p = p
        self.char = p
        self.name = "GF(%d)" % p

    def canon(self, c):
        return c % self.p

    def reduce_terms(self, terms):
        p = self.p
        return {m: r for m, c in terms.items() if (r := c % p)}

    def div(self, a, b):
        return a * pow(b, self.p - 2, self.p) % self.p

    def _divider(self, b):
        """The map a -> a / b for a fixed nonzero b, inverting b once."""
        inv = self.invert(b)
        p = self.p
        return lambda a: a * inv % p

    def invert(self, a):
        return pow(a, self.p - 2, self.p)

    def neg(self, a):
        return -a % self.p

    def is_zero(self, a):
        return a % self.p == 0

    def parse(self, text):
        if "/" in text:
            num, den = text.split("/")
            if not int(den) % self.p:
                raise ParseError("denominator of %r is zero in %s" % (text, self.name))
            return self.div(int(num) % self.p, int(den) % self.p)
        return int(text) % self.p

    def format(self, c):
        return str(c % self.p)

    def random(self, rng):
        return rng.randrange(self.p)

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


def _is_prime(n):
    if n < 4:
        return n > 1
    if n % 2 == 0:
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


QQ = RationalField()


def GF(p):
    return PrimeField(p)


# ---------------------------------------------------------------------------
# rings and packed monomials

_EXP_BITS = 16
_MAXE = (1 << _EXP_BITS) - 1
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")


class Ring:
    """Polynomial ring over an exact field with two variable banks.

    Variables are declared X-bank first, then T-bank; the monomial order is
    graded reverse lexicographic in that declared order.
    """

    def __init__(self, field, x_vars, t_vars=()):
        names = tuple(x_vars) + tuple(t_vars)
        if len(set(names)) != len(names):
            raise ArithError("duplicate variable names: %r" % (names,))
        for nm in names:
            if not _NAME_RE.match(nm):
                raise ArithError("bad variable name %r" % nm)
        self.field = field
        self.names = names
        self.nx = len(tuple(x_vars))
        nv = len(names)
        self.nv = nv
        self._deg_off = _EXP_BITS * nv
        # key of the unit monomial: every field holds MAXE - 0
        one = 0
        for i in range(nv):
            one |= _MAXE << (_EXP_BITS * i)
        self.one_mono = one
        self._guards = sum(1 << (_EXP_BITS * i + 15) for i in range(nv))
        self._negoff = self._guards + (1 << (self._deg_off + 23))
        self._expmask = (1 << self._deg_off) - 1
        self._index = {nm: i for i, nm in enumerate(names)}
        self._x_monos = {}
        self.zero = Poly(self, {})
        self.one = Poly(self, {one: 1})

    # -- monomial helpers ---------------------------------------------------

    def pack(self, exps):
        """Pack an exponent tuple (one entry per declared variable)."""
        key = 0
        deg = 0
        for i, e in enumerate(exps):
            if not 0 <= e < (1 << 15):
                raise ArithError("exponent %d out of range" % e)
            deg += e
            key |= (_MAXE - e) << (_EXP_BITS * i)
        if deg >= 1 << 23:
            raise ArithError("total degree %d out of range" % deg)
        return key | (deg << self._deg_off)

    def unpack(self, mono):
        return tuple(
            _MAXE - ((mono >> (_EXP_BITS * i)) & _MAXE) for i in range(self.nv)
        )

    def mono_total_deg(self, mono):
        return mono >> self._deg_off

    def mono_bank_deg(self, mono, start, stop):
        deg = 0
        for i in range(start, stop):
            deg += _MAXE - ((mono >> (_EXP_BITS * i)) & _MAXE)
        return deg

    def mono_mul(self, a, b):
        return a + b - self.one_mono

    def mono_div(self, a, b):
        """Quotient monomial a/b, or None when b does not divide a."""
        t = b - a + self._negoff
        if (t & self._guards) != self._guards:
            return None
        return a - b + self.one_mono

    def mono_gcd(self, a, b):
        ea = self.unpack(a)
        eb = self.unpack(b)
        return self.pack(tuple(min(x, y) for x, y in zip(ea, eb)))

    def var_index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise ArithError("unknown variable %r" % name) from None

    def var_mono(self, i):
        return self.pack(tuple(1 if j == i else 0 for j in range(self.nv)))

    # -- construction helpers ------------------------------------------------

    def const(self, c):
        c = self.field.canon(c)
        if self.field.is_zero(c):
            return self.zero
        return Poly(self, {self.one_mono: c})

    def poly(self, text):
        return parse_poly(self, text)

    def monomials_of_degree(self, deg, start, stop):
        """All monomials of total degree deg in variables [start, stop),
        grevlex-descending."""
        out = []

        def rec(i, rem, exps):
            if i == stop - 1:
                exps.append(rem)
                out.append(self.pack(tuple([0] * start + exps + [0] * (self.nv - stop))))
                exps.pop()
                return
            for e in range(rem, -1, -1):
                exps.append(e)
                rec(i + 1, rem - e, exps)
                exps.pop()

        if stop <= start:
            if deg == 0:
                return [self.one_mono]
            return []
        rec(start, deg, [])
        out.sort(reverse=True)
        return out

    def x_monomials(self, deg):
        """The degree-deg X monomials, grevlex-descending: one shared tuple per degree."""
        monos = self._x_monos.get(deg)
        if monos is None:
            monos = self._x_monos[deg] = tuple(self.monomials_of_degree(deg, 0, self.nx))
        return monos

    def __repr__(self):
        return "Ring(%s; %s)" % (self.field, ", ".join(self.names))

    def __eq__(self, other):
        return (
            isinstance(other, Ring)
            and other.field == self.field
            and other.names == self.names
            and other.nx == self.nx
        )

    def __hash__(self):
        return hash((self.field, self.names, self.nx))


def _mul_terms(A, B, ring):
    """Product of two term dicts, reduced by the ring's field.

    The one multiplication loop, under every Poly product.
    """
    if not A or not B:
        return {}
    if len(A) > len(B):
        A, B = B, A
    one = ring.one_mono
    out = {}
    get = out.get
    for ma, ca in A.items():
        off = ma - one
        for mb, cb in B.items():
            k = off + mb
            prev = get(k)
            out[k] = ca * cb if prev is None else prev + ca * cb
    return ring.field.reduce_terms(out)


def _divide_terms(A, B, ring):
    """Quotient of the term dict A by the nonzero term dict B.

    The one division loop, under Poly // and so under exact_divide.  The
    quotient's coefficients are field quotients (over QQ, ints where the
    division is integral).  A's and B's coefficients need not be reduced
    mod p.  Raises NotDivisibleError unless B divides A.
    """
    p = ring.field.char
    lt_b = max(B)
    quo = ring.field._divider(B[lt_b])
    one = ring.one_mono
    tail = [(m - one, c) for m, c in B.items() if m != lt_b]
    mono_div = ring.mono_div
    rem = dict(A)
    get = rem.get
    q = {}
    while rem:
        lt_r = max(rem)
        qc = quo(rem.pop(lt_r))
        if not qc:
            continue  # a multiple of p
        qm = mono_div(lt_r, lt_b)
        if qm is None:
            raise NotDivisibleError("nonzero remainder: the divisor does not divide")
        q[qm] = qc
        for m, c in tail:
            k = qm + m
            v = get(k, 0) - qc * c
            if p:
                v %= p  # so that a cancelled term leaves the remainder now
            if v:
                rem[k] = v
            else:
                rem.pop(k, None)
    return q


def _check_same_ring(a, b):
    if a.ring is not b.ring and a.ring != b.ring:
        raise ArithError("mixed rings: %r vs %r" % (a.ring, b.ring))


class Poly:
    """Immutable sparse polynomial: dict mapping packed monomial -> coefficient."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    # -- predicates ----------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return not self.terms or (len(self.terms) == 1 and self.ring.one_mono in self.terms)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.ring == other.ring and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == self.ring.const(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.ring.names, frozenset(self.terms.items())))

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = self.ring.const(other)
        _check_same_ring(self, other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            if m in out:
                out[m] = out[m] + c
            else:
                out[m] = c
        return Poly(self.ring, self.ring.field.reduce_terms(out))

    __radd__ = __add__

    def __neg__(self):
        neg = self.ring.field.neg
        return Poly(self.ring, {m: neg(c) for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = self.ring.const(other)
        if other.ring is not self.ring:
            _check_same_ring(self, other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out[m] - c if m in out else -c
        return Poly(self.ring, self.ring.field.reduce_terms(out))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Poly):
            if other.ring is not self.ring:
                _check_same_ring(self, other)
            return Poly(self.ring, _mul_terms(self.terms, other.terms, self.ring))
        other = self.ring.field.canon(other)
        if self.ring.field.is_zero(other):
            return self.ring.zero
        terms = {m: c * other for m, c in self.terms.items()}
        return Poly(self.ring, self.ring.field.reduce_terms(terms))

    __rmul__ = __mul__

    def __floordiv__(self, other):
        """The exact quotient; raises NotDivisibleError on a remainder."""
        if not isinstance(other, Poly):
            if other == 1:
                return self
            other = self.ring.const(other)
        if other.ring is not self.ring:
            _check_same_ring(self, other)
        ring = self.ring
        if not other.terms:
            raise NotDivisibleError("division by zero polynomial")
        if not self.terms:
            return self
        if len(other.terms) > 1:
            return Poly(ring, _divide_terms(self.terms, other.terms, ring))
        # monomial divisor: divide every term directly
        (lt_b, cb), = other.terms.items()
        quo = ring.field._divider(cb)
        qterms = {}
        for m, c in self.terms.items():
            q = ring.mono_div(m, lt_b)
            if q is None:
                raise NotDivisibleError("%r does not divide %r" % (other, self))
            qterms[q] = quo(c)
        return Poly(ring, qterms)

    def __pow__(self, n):
        if n < 0:
            raise ArithError("negative power")
        result = self.ring.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n > 1
            n >>= 1
            if base_needed and n:
                base = base * base
        return result

    # -- structure -----------------------------------------------------------

    def total_degree(self):
        if not self.terms:
            return -1
        return self.ring.mono_total_deg(max(self.terms))

    def bank_degree(self, start, stop):
        if not self.terms:
            return -1
        return max(self.ring.mono_bank_deg(m, start, stop) for m in self.terms)

    def t_degree(self):
        return self.bank_degree(self.ring.nx, self.ring.nv)

    def homogeneous_degree(self, start=None, stop=None):
        """Common bank-degree of all terms, or None if inhomogeneous.

        Raises on the zero polynomial.  Default bank is all variables.
        """
        if not self.terms:
            raise ArithError("zero polynomial has no homogeneous degree")
        if start is None:
            start, stop = 0, self.ring.nv
        degs = {self.ring.mono_bank_deg(m, start, stop) for m in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def leading(self):
        """(monomial, coefficient) of the grevlex-leading term."""
        m = max(self.terms)
        return m, self.terms[m]

    def variables(self):
        """Indices of variables that actually occur."""
        seen = set()
        unpack = self.ring.unpack
        for m in self.terms:
            for i, e in enumerate(unpack(m)):
                if e:
                    seen.add(i)
        return sorted(seen)

    def degree_in_var(self, i):
        if not self.terms:
            return -1
        off = _EXP_BITS * i
        return max(_MAXE - ((m >> off) & _MAXE) for m in self.terms)

    def evaluate(self, assignment):
        """Substitute variables (by name) with polynomials or scalars.

        Unassigned variables remain symbolic.  The result is fully expanded.
        """
        ring = self.ring
        idx_vals = {}
        for name, val in assignment.items():
            i = ring.var_index(name)
            if isinstance(val, Poly):
                _check_same_ring(self, val)
                idx_vals[i] = val
            else:
                idx_vals[i] = ring.const(val)
        pow_cache = {}
        acc = {}
        for m, c in self.terms.items():
            exps = ring.unpack(m)
            rest = [0] * ring.nv
            factor = None
            for i, e in enumerate(exps):
                if i in idx_vals:
                    if e:
                        key = (i, e)
                        pc = pow_cache.get(key)
                        if pc is None:
                            pc = idx_vals[i] ** e
                            pow_cache[key] = pc
                        factor = pc if factor is None else factor * pc
                else:
                    rest[i] = e
            base = ring.pack(tuple(rest))
            if factor is None:
                acc[base] = acc.get(base, 0) + c
            else:
                off = base - ring.one_mono
                for fm, fc in factor.terms.items():
                    k = off + fm
                    acc[k] = acc.get(k, 0) + c * fc
        return Poly(ring, ring.field.reduce_terms(acc))

    # -- display -------------------------------------------------------------

    def __repr__(self):
        return format_poly(self)

    __str__ = __repr__


# ---------------------------------------------------------------------------
# text grammar

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<coeff>\d+(?:/\d+)?)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*^]))"
)


def parse_poly(ring, text):
    """Parse the polynomial grammar: terms joined by +/-, factors by *."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ParseError("cannot tokenize %r at position %d" % (text, pos))
            break
        pos = m.end()
        if m.group("coeff"):
            tokens.append(("coeff", m.group("coeff")))
        elif m.group("name"):
            tokens.append(("name", m.group("name")))
        else:
            tokens.append(("op", m.group("op")))
    if not tokens:
        raise ParseError("empty polynomial text")

    field = ring.field
    result = {}
    i = 0
    first = True
    while i < len(tokens):
        sign = 1
        if tokens[i][0] == "op" and tokens[i][1] in "+-":
            if tokens[i][1] == "-":
                sign = -1
            i += 1
        elif not first:
            raise ParseError("missing +/- between terms in %r" % text)
        first = False
        coeff = None
        exps = [0] * ring.nv
        expect_factor = True
        saw_factor = False
        while i < len(tokens):
            kind, val = tokens[i]
            if kind == "op" and val in "+-":
                break
            if kind == "op" and val == "*":
                if expect_factor:
                    raise ParseError("misplaced '*' in %r" % text)
                expect_factor = True
                i += 1
                continue
            if not expect_factor:
                raise ParseError("missing '*' before %r in %r" % (val, text))
            if kind == "coeff":
                c = field.parse(val)
                coeff = c if coeff is None else coeff * c
                i += 1
            else:
                try:
                    vi = ring.var_index(val)
                except ArithError as exc:
                    raise ParseError("%s in %r" % (exc, text)) from None
                i += 1
                e = 1
                if (
                    i < len(tokens)
                    and tokens[i] == ("op", "^")
                ):
                    if i + 1 >= len(tokens) or tokens[i + 1][0] != "coeff" or "/" in tokens[i + 1][1]:
                        raise ParseError("bad exponent in %r" % text)
                    e = int(tokens[i + 1][1])
                    i += 2
                exps[vi] += e
            expect_factor = False
            saw_factor = True
        if not saw_factor:
            raise ParseError("empty term in %r" % text)
        c = coeff if coeff is not None else 1
        if sign < 0:
            c = -c
        try:
            key = ring.pack(tuple(exps))
        except ArithError as exc:
            raise ParseError("%s in %r" % (exc, text)) from None
        result[key] = result.get(key, 0) + c
    return Poly(ring, field.reduce_terms(result))


def format_poly(p):
    """Serialize in grevlex-descending order; round-trips through parse_poly."""
    if not p.terms:
        return "0"
    ring = p.ring
    field = ring.field
    pieces = []
    for m in sorted(p.terms, reverse=True):
        c = p.terms[m]
        neg = isinstance(c, (int, Fraction)) and c < 0
        mag = -c if neg else c
        exps = ring.unpack(m)
        factors = []
        for i, e in enumerate(exps):
            if e == 1:
                factors.append(ring.names[i])
            elif e > 1:
                factors.append("%s^%d" % (ring.names[i], e))
        cs = field.format(mag)
        if not factors:
            body = cs
        elif cs == "1":
            body = "*".join(factors)
        else:
            body = cs + "*" + "*".join(factors)
        pieces.append(("-" if neg else "+", body))
    sign, body = pieces[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in pieces[1:]:
        out += " %s %s" % (sign, body)
    return out


# ---------------------------------------------------------------------------
# exact division, normalization and perfect powers


def exact_divide(a, b):
    """Quotient q with a == q*b; raises NotDivisibleError otherwise, as
    Poly // does on any remainder."""
    return a // b


def monomial_content(p):
    """gcd of the monomials of p (a packed monomial)."""
    it = iter(p.terms)
    g = next(it)
    for m in it:
        g = p.ring.mono_gcd(g, m)
        if g == p.ring.one_mono:
            break
    return g


def rational_content(coeffs):
    """Positive rational c with every coefficient / c an integer, and these
    integers coprime (QQ only); 0 when every coefficient is 0."""
    num_gcd = 0
    den_lcm = 1
    for c in coeffs:
        if type(c) is int:
            num_gcd = math.gcd(num_gcd, c)
        else:
            num_gcd = math.gcd(num_gcd, c.numerator)
            den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
    return Fraction(num_gcd, den_lcm)


def normalize(p):
    """Canonical unit normalization.

    Over QQ: integer-primitive with positive grevlex-leading coefficient.
    Over GF(p): monic.  Zero maps to zero.
    """
    if not p.terms:
        return p
    field = p.ring.field
    if field.char == 0:
        if all(map(int.__instancecheck__, p.terms.values())):
            g = math.gcd(*p.terms.values())
            if p.terms[max(p.terms)] < 0:
                g = -g
            return p if g == 1 else Poly(p.ring, {m: v // g for m, v in p.terms.items()})
        c = rational_content(p.terms.values())
        if p.terms[max(p.terms)] < 0:
            c = -c
        inv = 1 / c
        return Poly(p.ring, field.reduce_terms({m: v * inv for m, v in p.terms.items()}))
    lc = p.terms[max(p.terms)]
    inv = field.invert(lc)
    return Poly(p.ring, field.reduce_terms({m: v * inv for m, v in p.terms.items()}))


def unit_multiple_of(a, b):
    """True when a == unit * b for a nonzero field scalar."""
    if a.ring != b.ring:
        return False
    if not a.terms or not b.terms:
        return (not a.terms) == (not b.terms)
    return normalize(a) == normalize(b)


def _check_characteristic(p):
    ch = p.ring.field.char
    if ch and ch <= p.total_degree():
        raise SmallCharacteristicError(
            "characteristic %d too small for degree %d" % (ch, p.total_degree())
        )


def _divisors_desc(n):
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return sorted(small + large, reverse=True)


def _nth_root_poly(q, e):
    """H with H**e == q, by greedy leading-term extraction; None on failure.

    q is normalized, so over GF(p) it is monic and its root needs no
    coefficient root.
    """
    ring = q.ring
    field = ring.field
    lt_m, lt_c = q.leading()
    exps = ring.unpack(lt_m)
    if any(x % e for x in exps):
        return None
    root_c = 1 if lt_c == 1 else field.nth_root(lt_c, e)
    if root_c is None:
        return None
    h1_m = ring.pack(tuple(x // e for x in exps))
    H = Poly(ring, {h1_m: root_c})
    # e * lt(H)^(e-1): the residual q - H^e always leads with this times the
    # next missing term of H
    fm, fc = h1_m, root_c
    for _ in range(e - 2):
        fm = ring.mono_mul(fm, h1_m)
        fc = fc * root_c
    lead_c = field.canon(e * fc)
    # each pass either returns or adds a term qm strictly below the previous
    # one in grevlex; grevlex well-orders the monomials, so the loop ends
    prev_qm = None
    while True:
        R = q - H**e
        if not R.terms:
            return H
        lt_r = max(R.terms)
        qm = ring.mono_div(lt_r, fm)
        if qm is None or qm >= h1_m:
            return None
        if prev_qm is not None and qm >= prev_qm:
            return None
        prev_qm = qm
        qc = field.div(R.terms[lt_r], lead_c)
        H = H + Poly(ring, {qm: qc})


def perfect_power_decompose(p):
    """Largest e with p == unit * H**e; returns (normalized H, e)."""
    if not p.terms:
        raise ArithError("perfect power of zero")
    if p.is_constant():
        raise ArithError("perfect power of a constant")
    _check_characteristic(p)
    q = normalize(p)
    degs = [q.degree_in_var(v) for v in q.variables()]
    d = q.total_degree()
    for dv in degs:
        d = math.gcd(d, dv)
    for e in _divisors_desc(d):
        if e == 1:
            break
        H = _nth_root_poly(q, e)
        if H is not None and H**e == q:
            return normalize(H), e
    return q, 1


# ---------------------------------------------------------------------------
# the one row reduction, and the one gcd read off its cofactor kernels


def _primitive(row):
    """The integer row divided by the gcd of its entries."""
    g = math.gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _rref(p, data):
    """Reduced row echelon form of `data`: (nonzero rows, pivot columns).

    The one row reduction of the package; rank, kernel, span membership
    (orthogonality to the kernel of the spanning rows) and minor selection
    are read off its output.  Gauss-Jordan elimination on sparse integer
    rows {column: entry}, with an index from each column to the rows
    holding it, so a pivot updates only the rows that hold its column.
    Columns go in order; the pivot is the first row from position r on that
    holds the column, swapped to position r.  Over QQ (p = 0) a row with
    fractions is scaled by the lcm of its denominators, and rows are
    eliminated fraction-free, cross-multiplying and then dividing by the
    content; mod p every pivot is 1.  The rows come back dense, each zero at
    the other rows' pivot columns; `data` is not modified.
    """
    ncols = len(data[0]) if data else 0
    rows = []
    holders = [set() for _ in range(ncols)]  # column -> ids of the rows holding it
    for i, row in enumerate(data):
        row = dict(compress(enumerate(row), row))
        if not all(map(int.__instancecheck__, row.values())):
            den = math.lcm(*[x.denominator for x in row.values()])
            row = {j: int(x * den) for j, x in row.items()}
        rows.append({j: x % p for j, x in row.items() if x % p} if p else row)
        for j in rows[i]:
            holders[j].add(i)
    order = list(range(len(rows)))  # position -> row id
    pos = list(order)  # row id -> position
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        sel = min((pos[i] for i in holders[c] if pos[i] >= r), default=None)
        if sel is None:
            continue
        k = order[sel]
        order[r], order[sel] = k, order[r]
        pos[k], pos[order[sel]] = r, sel
        prow = rows[k]
        if p:
            s = pow(prow[c], -1, p)
            for j in prow:
                prow[j] = prow[j] * s % p
        elif (g := math.gcd(*prow.values())) > 1:
            for j in prow:
                prow[j] //= g
        pc = prow[c]
        for i in holders[c]:
            if i == k:
                continue
            row = rows[i]
            ic = row[c]
            if not p and pc != 1:
                for j in row:
                    row[j] *= pc
            for j, b in prow.items():
                a = row.get(j)
                if a is None:
                    row[j] = -ic * b % p if p else -ic * b
                    holders[j].add(i)
                elif a := (a - ic * b) % p if p else a - ic * b:
                    row[j] = a
                else:
                    del row[j]
                    if j != c:
                        holders[j].discard(i)
            if not p and (g := math.gcd(*row.values())) > 1:
                for j in row:
                    row[j] //= g
        holders[c] = {k}
        pivots.append(c)
        if len(pivots) == len(rows):
            break
    out = [[0] * ncols for _ in pivots]
    for dense, k in zip(out, order):
        for j, x in rows[k].items():
            dense[j] = x
    return out, pivots


def _echelon_kernel(p, rows, ncols):
    """(kernel basis, free columns) of integer rows in reduced echelon form.

    Precondition: each row's first nonzero entry, its pivot, lies in a
    column where every other row is zero, as in `_rref`'s output or identity
    rows; nothing checks it.  With L the lcm of the pivot entries, the
    vector of free column f has L at f and -(L / row[c]) * row[f] at the
    pivot column c of each row.  Over QQ the vector is then divided by its
    gcd, so it is primitive and positive at f; mod p with pivots 1, L is 1.
    """
    pivots = [next(j for j, x in enumerate(row) if x) for row in rows]
    taken = set(pivots)
    free = [c for c in range(ncols) if c not in taken]
    lcm = math.lcm(*[row[c] for row, c in zip(rows, pivots)])
    basis = []
    for f in free:
        vec = [0] * ncols
        vec[f] = lcm
        for row, c in zip(rows, pivots):
            if row[f]:
                vec[c] = -(lcm // row[c]) * row[f]
        basis.append([x % p for x in vec] if p else _primitive(vec))
    return basis, free


def rref_kernel_data(field, data, ncols, echelon=None):
    """(rank, kernel basis, free columns) of the rows `data`, ncols wide,
    from one `_rref` pass, or from `echelon` when the caller already holds
    `_rref(field.char, data)`.  Every kernel vector is checked, A*v = 0, or
    ConsistencyError."""
    rows, pivots = echelon or _rref(field.char, data)
    basis, free = _echelon_kernel(field.char, rows, ncols)
    check_kernel(field, data, ncols, basis)
    return len(pivots), basis, free


def check_kernel(field, data, ncols, vectors):
    """ConsistencyError unless A*v = 0 for every v in `vectors`, A the rows
    `data`, ncols wide.  A*v is taken by columns over v's support; rows no
    support column touches are 0."""
    if not vectors:
        return
    columns = [[(i, a) for i, a in enumerate(col) if a] for col in zip(*data)] or [[]] * ncols
    for v in vectors:
        acc = {}
        for j, x in compress(enumerate(v), v):
            for i, a in columns[j]:
                acc[i] = acc.get(i, 0) + a * x
        if not all(map(field.is_zero, acc.values())):
            raise ConsistencyError("kernel vector fails A*v = 0")


_SPARE_ROWS = 4  # rows past the unknowns in a sampled cofactor system

# The 32 largest primes below 2^62, spelled as offsets below 2^62 so that
# import tests none of them (the tests check each with _is_prime).  Over QQ,
# `multivariate_gcd` takes its images modulo them in this order, and
# `linalg._sampled_pivots` eliminates modulo the first.
_PRIMES = tuple(
    (1 << 62) - k
    for k in (
        57, 87, 117, 143, 153, 167, 171, 195, 203, 273, 287, 317, 443, 483, 495, 575,
        581, 603, 633, 663, 765, 773, 777, 791, 813, 831, 923, 981, 993, 1001, 1007, 1017,
    )
)


def multivariate_gcd(a, b, degree=0, seed=0):
    """gcd of two polynomials, normalized, read off cofactor kernels.

    `degree` is a lower bound on the gcd's degree that the caller has proven
    (the minors fold passes the predicted degree).  Write gcd(a, b) = M * h,
    M the gcd of the monomial contents, h = gcd(a', b') of the rest, and D =
    max(degree - deg M, 0).  Forms are read in the bank the inputs involve
    (X, T or all variables), of size k; a non-form counts as a form in one
    more variable, as the polynomials of degree <= e in k variables number
    C(e + k, k), like the forms of degree e in k + 1.  For a' = h*a1 and
    b' = h*b1, u*a' = v*b' with u, v of degrees (at most, for non-forms)
    deg b' - D and deg a' - D exactly when (u, v) = w*(b1, a1), w of degree
    deg h - D.  So the kernel of (u, v) -> u*a' - v*b' has dimension
    C(deg h - D + k - 1, k - 1) (the Sylvester characterisation; von zur
    Gathen & Gerhard, Modern Computer Algebra, ch. 6):

    - 1 when deg h = D: G = a' // v, with a' // v and b' // G checked exact,
      is a common divisor of degree deg h, so h up to a unit.  A proof.
    - 0 when deg h < D, against the bound: ConsistencyError.
    - larger when deg h > D: the dimension names deg h, where the kernel
      is taken again.

    The kernel is first taken on a row sample seeded by `seed`, whose kernel
    holds the full one.  So a sample kernel of dimension 1 holds the true
    vector, and a failed division means dimension 0.  A larger one is redone
    on every row, where the dimension is exact and names deg h, so the
    sample changes the speed, never the answer.  Over GF(p) that is the
    whole computation.

    Over QQ the same steps run modulo the word-size primes `_PRIMES`, on a'
    and b' made primitive integer polynomials (the modular gcd: Brown, J.
    ACM 18, 1971; von zur Gathen & Gerhard, ch. 6).  Each image of h is made
    monic and scaled by gamma = gcd(lc a', lc b'), which lc(h) divides, so
    the images of gamma/lc(h) * h, an integer polynomial, are combined by
    Chinese remaindering into balanced residues.  The primitive part G of
    the result is accepted only when a' // G and b' // G are exact over QQ.
    Why that proves G = h up to a unit: the rows are integer rows, so their
    rank mod p is at most their rank over QQ, and the QQ sample kernel holds
    the full kernel.  An image read off a kernel of dimension 1 mod p at
    degree D' therefore gives deg h <= D' <= deg G, and the exact divisions
    give deg G <= deg h.  For the same reason an empty kernel mod p, or a
    failed division under a kernel of dimension 1, proves deg h < D, and
    raises as over QQ.  A prime that divides lc a' or lc b' is skipped, so
    an image of h leads where h does.  Every image has degree >= deg h, with
    equality exactly for the images of h, so a higher degree than the least
    seen is dropped and a lower one restarts the combination.  Images of h
    recover gamma/lc(h) * h once the product of their primes exceeds
    2*gamma*H, H = 2^(sum of the degrees of f in each variable) * ||f||_2
    for f = a' or b', which bounds the coefficients of every integer factor
    of f (Mignotte's bound, Modern Computer Algebra, sect. 6.6, through the
    Mahler measure).  A failed candidate past that size, or the end of the
    prime list, hands the pair to the exact computation over QQ.  A bad
    prime, like a bad sample, can only cost time.
    """
    _check_same_ring(a, b)
    ring = a.ring
    if not a.terms and not b.terms:
        raise ArithError("gcd(0, 0) undefined")
    if not a.terms or not b.terms:
        return normalize(a if a.terms else b)
    ma, mb = monomial_content(a), monomial_content(b)
    mono = Poly(ring, {ring.mono_gcd(ma, mb): 1})
    target = max(degree - mono.total_degree(), 0)
    a1 = a // Poly(ring, {ma: 1})
    b1 = b // Poly(ring, {mb: 1})
    top = min(a1.total_degree(), b1.total_degree()) - target
    if top == target == 0:
        return normalize(mono)  # a1 or b1 is a constant, so h = 1
    # a1 and b1 are not constants, so a and b involve some variable
    start = ring.nx if a.bank_degree(0, ring.nx) == b.bank_degree(0, ring.nx) == 0 else 0
    stop = ring.nx if a.t_degree() == b.t_degree() == 0 else ring.nv
    forms = a.homogeneous_degree() is not None and b.homogeneous_degree() is not None
    k = stop - start + (not forms)

    def monomials(e):
        degrees = [e] if forms else range(e, -1, -1)
        return [m for d in degrees for m in ring.monomials_of_degree(d, start, stop)]

    sizes = [math.comb(e + k - 1, k - 1) for e in range(top + 1)]
    if ring.field.char:
        g = _cofactor_gcd(a1, b1, target, monomials, sizes, random.Random("%s:cofactors" % (seed,)))
    else:
        g = _gcd_mod_primes(a1, b1, target, monomials, sizes, seed)
    if g is None:
        raise ConsistencyError(
            "two polynomials of degrees %d and %d have a gcd of degree below the "
            "predicted degree %d" % (a.total_degree(), b.total_degree(), degree)
        )
    return normalize(g * mono)


def _cofactor_gcd(a, b, target, monomials, sizes, rng):
    """gcd(a, b), up to a unit, from cofactor kernels over a's field, first on
    a sample drawn from `rng`; None when deg gcd(a, b) < target.  The steps
    are `multivariate_gcd`'s."""
    kernel = _cofactors(a, b, target, monomials, rng)
    if len(kernel) > 1:
        kernel = _cofactors(a, b, target, monomials)
    if len(kernel) > 1:
        if len(kernel) not in sizes:
            raise ConsistencyError("a cofactor kernel of dimension %d names no degree" % len(kernel))
        kernel = _cofactors(a, b, target + sizes.index(len(kernel)), monomials)
    return _divisor(a, b, kernel)


def _gcd_mod_primes(a, b, target, monomials, sizes, seed):
    """gcd(a, b) over QQ, up to a unit, from its images mod `_PRIMES`; None
    when deg gcd(a, b) < target.  See `multivariate_gcd` for the proof."""
    ring = a.ring
    a, b = normalize(a), normalize(b)
    lc_a, lc_b = a.terms[max(a.terms)], b.terms[max(b.terms)]
    gamma = math.gcd(lc_a, lc_b)
    rng = random.Random("%s:cofactors" % (seed,))
    least = bound = None
    for p in _PRIMES:
        if not lc_a * lc_b % p:
            continue
        ring_p = _ring_mod(p, ring.names[: ring.nx], ring.names[ring.nx :])
        a_p, b_p = (Poly(ring_p, ring_p.field.reduce_terms(f.terms)) for f in (a, b))
        image = _cofactor_gcd(a_p, b_p, target, monomials, sizes, rng)
        if image is None:
            return None
        image = normalize(image) * gamma
        deg = image.total_degree()
        if least is None or deg < least:
            least, residues, modulus = deg, image.terms, p
        elif deg > least:
            continue
        else:
            inv = pow(modulus, -1, p)
            merged = {}
            for m in residues.keys() | image.terms.keys():
                r = residues.get(m, 0)
                merged[m] = r + modulus * ((image.terms.get(m, 0) - r) * inv % p)
            residues = merged
            modulus *= p
        half = modulus >> 1
        g = normalize(Poly(ring, {m: r - modulus if r > half else r for m, r in residues.items() if r}))
        try:
            a // g
            b // g
        except NotDivisibleError:
            pass
        else:
            return g
        if bound is None:
            bound = gamma * min(map(_factor_bound, (a, b)))
        if modulus > 2 * bound:
            break
    return _cofactor_gcd(a, b, target, monomials, sizes, random.Random("%s:cofactors" % (seed,)))


@functools.lru_cache(maxsize=64)
def _ring_mod(p, x_vars, t_vars):
    """The ring over GF(p) with these variables, built once: GF(p) tests p."""
    return Ring(GF(p), x_vars, t_vars)


def _factor_bound(f):
    """A bound on the coefficients of every integer factor of the integer
    polynomial f: 2^(sum of f's degrees in each variable) * ||f||_2."""
    norm = math.isqrt(sum(c * c for c in f.terms.values())) + 1
    return norm << sum(f.degree_in_var(i) for i in range(f.ring.nv))


def _cofactors(a, b, degree, monomials, rng=None):
    """The v parts of a kernel basis of (u, v) -> u*a - v*b, u and v spanned by
    monomials(deg b - degree) and monomials(deg a - degree); with `rng`, of a
    seeded sample of width + _SPARE_ROWS rows, whose kernel holds the full one."""
    ring = a.ring
    da, db = a.total_degree(), b.total_degree()
    if degree > min(da, db):
        return []
    us = monomials(db - degree)
    vs = monomials(da - degree)
    mono_mul = ring.mono_mul
    cols = [{mono_mul(m, t): c for t, c in a.terms.items()} for m in us]
    cols += [{mono_mul(m, t): -c for t, c in b.terms.items()} for m in vs]
    keys = list(dict.fromkeys(r for col in cols for r in col))
    if rng is not None and len(keys) > len(cols) + _SPARE_ROWS:
        keys = rng.sample(keys, len(cols) + _SPARE_ROWS)
    rows = [[col.get(r, 0) for col in cols] for r in keys]
    _, basis, _ = rref_kernel_data(ring.field, rows, len(cols))
    return [Poly(ring, {m: c for m, c in zip(vs, vec[len(us) :]) if c}) for vec in basis]


def _divisor(a, b, kernel):
    """a // v for the one vector v of a cofactor kernel, when that division
    and b's by the quotient are exact; otherwise None."""
    if len(kernel) != 1:
        return None
    try:
        g = a // kernel[0]
        b // g
    except NotDivisibleError:
        return None
    return g


def gcd_many(polys):
    """Iterated pairwise gcd of a non-empty sequence."""
    polys = [p for p in polys if p.terms]
    if not polys:
        raise ArithError("gcd of all-zero collection")
    g = polys[0]
    for p in polys[1:]:
        g = multivariate_gcd(g, p)
        if g.is_constant():
            break
    return normalize(g)


# ---------------------------------------------------------------------------
# parameterizations


class Parameterization:
    """n homogeneous polynomials of one degree d in the X-bank of a ring.

    The rational-map pipeline requires n == nx + 1; the base-point and syzygy
    diagnostics also accept other shapes (e.g. 3 generators in 3 variables).
    """

    def __init__(self, ring, polys):
        polys = tuple(polys)
        if len(polys) < 3:
            raise ArithError("need at least 3 polynomials, got %d" % len(polys))
        degs = []
        for k, p in enumerate(polys, 1):
            if p.ring != ring:
                raise ArithError("f%d lives in a different ring" % k)
            if not p.terms:
                raise ArithError("f%d is zero" % k)
            if p.t_degree() > 0:
                raise ArithError("f%d = %s involves T-variables" % (k, p))
            degs.append(p.homogeneous_degree(0, ring.nx))
            if degs[-1] is None:
                raise ArithError("f%d = %s is not homogeneous" % (k, p))
            if degs[-1] != degs[0]:
                raise ArithError("mixed degrees: f%d has degree %d, f1 %d" % (k, degs[-1], degs[0]))
        d = degs[0]
        if d < 1:
            raise ArithError("degree must be >= 1")
        self.ring = ring
        self.polys = polys
        self.n = len(polys)
        self.d = d

    @property
    def field(self):
        return self.ring.field

    def is_map_shape(self):
        """True when this is n polynomials in n-1 variables."""
        return self.ring.nx == self.n - 1

    def require_map_shape(self):
        if not self.is_map_shape():
            raise ArithError(
                "expected %d variables for %d polynomials, got %d"
                % (self.n - 1, self.n, self.ring.nx)
            )

    def t_names(self):
        return self.ring.names[self.ring.nx:]

    def __repr__(self):
        return "Parameterization(d=%d; %s)" % (
            self.d,
            "; ".join(str(p) for p in self.polys),
        )


def _default_t_vars(n, taken):
    """The first `n` names T1, T2, ... that are not in `taken`."""
    names = ("T%d" % k for k in count(1))
    return list(islice((nm for nm in names if nm not in taken), max(n, 0)))


def make_parameterization(field, x_vars, poly_texts, t_vars=None):
    """Build a Parameterization from polynomial strings: the one path from
    text to a map.  `t_vars` defaults to the first n names T1, T2, ... not
    declared in `x_vars`."""
    n = len(poly_texts)
    if n < 3:
        raise ArithError("need at least 3 polynomials, got %d" % n)
    if t_vars is None:
        t_vars = _default_t_vars(n, x_vars)
    if len(t_vars) != n:
        raise ArithError("have %d polynomials but %d T-variables" % (n, len(t_vars)))
    ring = Ring(field, x_vars, t_vars)
    polys = []
    for k, text in enumerate(poly_texts, 1):
        try:
            polys.append(parse_poly(ring, text))
        except ParseError as exc:
            raise ParseError("f%d = %s: %s" % (k, text, exc)) from None
    return Parameterization(ring, polys)
