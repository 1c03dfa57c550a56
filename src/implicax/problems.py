"""Problem-file parsing: a line-oriented text format and a JSON twin.

Text format:

    field: QQ            # or GF(65521)
    x_vars: X1 X2
    t_vars: T1 T2 T3     # optional; defaults to T1..Tn
    f1 = X1^2
    f2 = X1*X2
    f3 = X2^2

JSON format: {"field": "QQ", "x_vars": [...], "t_vars": [...], "polys": [...]}.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass

from .arith import GF, QQ, ArithError, Parameterization, ParseError, Ring, parse_poly

__all__ = ["ProblemFile", "load_problem", "parse_problem"]

_FIELD_RE = re.compile(r"^(QQ|GF\((\d+)\))$")


@dataclass
class ProblemFile:
    field_spec: str
    x_vars: list
    t_vars: list | None
    polys: list  # raw strings, in order

    def field(self):
        m = _FIELD_RE.match(self.field_spec)
        if not m:
            raise ParseError("bad field spec %r (use QQ or GF(p))" % self.field_spec)
        if not m.group(2):
            return QQ
        try:
            return GF(int(m.group(2)))
        except ArithError as exc:
            raise ParseError(str(exc)) from None

    def _ring(self, t_vars):
        field = self.field()
        try:
            return Ring(field, self.x_vars, t_vars)
        except ArithError as exc:
            raise ParseError(str(exc)) from None

    def parameterization(self):
        """The declared map: three or more forms in one fewer X variable."""
        n = len(self.polys)
        if n < 3:
            raise ParseError("need at least 3 polynomials, got %d" % n)
        t_vars = self.t_vars
        if t_vars is None:
            t_vars = _default_t_vars(n, self.x_vars)
        if len(t_vars) != n:
            raise ParseError(
                "have %d polynomials but %d T-variables" % (n, len(t_vars))
            )
        ring = self._ring(t_vars)
        parsed = []
        degrees = set()
        for i, text in enumerate(self.polys):
            try:
                p = parse_poly(ring, text)
                if not p.terms:
                    raise ParseError("polynomial is zero")
                if p.t_degree() > 0:
                    raise ParseError("polynomial uses T-variables")
                d = p.homogeneous_degree(0, ring.nx)
                if d is None:
                    raise ParseError("polynomial is not homogeneous")
                degrees.add(d)
            except ParseError as exc:
                raise ParseError("f%d = %s: %s" % (i + 1, text, exc)) from None
            parsed.append(p)
        if len(degrees) > 1:
            raise ParseError("polynomials have mixed degrees %s" % sorted(degrees))
        try:
            param = Parameterization(ring, parsed)
        except ArithError as exc:
            raise ParseError(str(exc)) from None
        if not param.is_map_shape():
            raise ParseError(
                "%d polynomials need %d X-variables, file declares %d"
                % (n, n - 1, len(self.x_vars))
            )
        return param

    def binary_ring(self):
        """Ring for resultant commands: two X variables, at least three T
        variables, padded with the first undeclared names T1, T2, ..."""
        if len(self.x_vars) != 2:
            raise ParseError("resultant inputs need exactly two X-variables")
        t_vars = list(self.t_vars or ())
        return self._ring(t_vars + _default_t_vars(3 - len(t_vars), self.x_vars + t_vars))


def _default_t_vars(count, taken):
    """The first `count` names T1, T2, ... that are not in `taken`."""
    names = ("T%d" % k for k in itertools.count(1))
    return list(itertools.islice((nm for nm in names if nm not in taken), max(count, 0)))


def parse_problem(text):
    """Parse problem text (auto-detects the JSON form)."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError("bad JSON problem file: %s" % exc) from None
        for key in ("field", "x_vars", "polys"):
            if key not in doc:
                raise ParseError("JSON problem file missing %r" % key)
        kinds = {"field": str, "x_vars": list, "polys": list, "t_vars": (list, type(None))}
        for key, kind in kinds.items():
            if key in doc and not isinstance(doc[key], kind):
                what = "a string" if kind is str else "a list"
                raise ParseError("JSON problem file: %r must be %s" % (key, what))
        for key in ("x_vars", "t_vars", "polys"):
            if not all(isinstance(entry, str) for entry in doc.get(key) or ()):
                raise ParseError("JSON problem file: %r must hold strings only" % key)
        return ProblemFile(
            field_spec=doc["field"],
            x_vars=doc["x_vars"],
            t_vars=doc["t_vars"] if doc.get("t_vars") else None,
            polys=doc["polys"],
        )
    headers = {}  # header name -> its value text
    polys = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" in line and "=" not in line:
            key, _, value = line.partition(":")
            key = key.strip().lower()
            if key not in ("field", "x_vars", "t_vars"):
                raise ParseError("line %d: unknown header %r" % (lineno, key))
            if key in headers:
                raise ParseError("line %d: header %r is given twice" % (lineno, key))
            headers[key] = value.strip()
        elif "=" in line:
            name, _, value = line.partition("=")
            m = re.match(r"^f(\d+)$", name.strip())
            if not m:
                raise ParseError("line %d: expected fK = <poly>, got %r" % (lineno, raw))
            k = int(m.group(1))
            if k in polys:
                raise ParseError("line %d: f%d is given twice" % (lineno, k))
            polys[k] = value.strip()
        else:
            raise ParseError("line %d: cannot parse %r" % (lineno, raw))
    for key in ("field", "x_vars"):
        if key not in headers:
            raise ParseError("missing '%s:' header" % key)
    if not polys:
        raise ParseError("no polynomial lines (f1 = ...)")
    keys = sorted(polys)
    if keys != list(range(1, len(keys) + 1)):
        raise ParseError("polynomial indices must be f1..fn, got %s" % keys)
    return ProblemFile(
        field_spec=headers["field"],
        x_vars=headers["x_vars"].split(),
        t_vars=headers["t_vars"].split() if "t_vars" in headers else None,
        polys=[polys[k] for k in keys],
    )


def load_problem(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_problem(fh.read())
