"""Exact arithmetic substrate: rationals, sparse polynomials, valuations, regions.

All quantities that feed verdicts are `fractions.Fraction` (always in lowest
terms, positive denominator) or polynomials over them.  Nothing in this module
ever touches floating point.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import EmptyRegion, MissingParameter, ParseError

# A monomial is a sorted tuple of (parameter, exponent) pairs with exponent >= 1.
# The empty tuple is the constant monomial.
Mono = tuple


def _normalize_mono(items) -> Mono:
    parts = [(str(v), int(e)) for v, e in items if e != 0]
    if any(e < 0 for _, e in parts):
        raise ValueError("negative exponent in monomial")
    return tuple(sorted(parts))


class Polynomial:
    """Sparse multivariate polynomial with rational coefficients.

    Terms map monomials to nonzero coefficients; two polynomials are equal iff
    their term maps are equal.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for mono, coef in terms.items():
                coef = Fraction(coef)
                if coef == 0:
                    continue
                mono = _normalize_mono(mono)
                clean[mono] = clean.get(mono, Fraction(0)) + coef
                if clean[mono] == 0:
                    del clean[mono]
        self.terms = clean

    @staticmethod
    def const(value) -> "Polynomial":
        return Polynomial({(): Fraction(value)})

    @staticmethod
    def var(name: str) -> "Polynomial":
        return Polynomial({((name, 1),): Fraction(1)})

    @staticmethod
    def coerce(value) -> "Polynomial":
        if isinstance(value, Polynomial):
            return value
        return Polynomial.const(value)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        return not self.terms or set(self.terms) == {()}

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"polynomial {self} is not constant")
        return self.terms.get((), Fraction(0))

    def variables(self) -> frozenset:
        return frozenset(v for mono in self.terms for v, _ in mono)

    def evaluate(self, valuation) -> Fraction:
        """Exact substitution; raises MissingParameter on uncovered variables."""
        total = Fraction(0)
        for mono, coef in self.terms.items():
            prod = coef
            for var, exp in mono:
                if var not in valuation:
                    raise MissingParameter(f"parameter {var!r} unassigned")
                x = valuation[var]
                if not isinstance(x, Fraction):
                    x = Fraction(x)
                prod *= x if exp == 1 else x ** exp
            total += prod
        return total

    def __add__(self, other):
        other = Polynomial.coerce(other)
        terms = dict(self.terms)
        for mono, coef in other.terms.items():
            terms[mono] = terms.get(mono, Fraction(0)) + coef
        return Polynomial(terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-Polynomial.coerce(other))

    def __rsub__(self, other):
        return Polynomial.coerce(other) - self

    def __mul__(self, other):
        other = Polynomial.coerce(other)
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                merged = {}
                for v, e in itertools.chain(m1, m2):
                    merged[v] = merged.get(v, 0) + e
                mono = _normalize_mono(merged.items())
                terms[mono] = terms.get(mono, Fraction(0)) + c1 * c2
        return Polynomial(terms)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        out = Polynomial.const(1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == Polynomial.const(other)
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms):
            coef = self.terms[mono]
            factors = ["%s^%d" % (v, e) if e > 1 else v for v, e in mono]
            mag = abs(coef)
            if not factors:
                body = _fmt_rational(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([_fmt_rational(mag)] + factors)
            parts.append(("- " if coef < 0 else "+ ") + body)
        first = parts[0]
        head = ("-" + first[2:]) if first.startswith("- ") else first[2:]
        return " ".join([head] + parts[1:])

    def __repr__(self):
        return f"Polynomial({self})"


def _fmt_rational(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def format_rational(q) -> str:
    return _fmt_rational(Fraction(q))


def parse_rational(text: str) -> Fraction:
    """Parse "num/den", integer, or decimal notation into an exact rational."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {text!r}: {exc}") from exc


_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d+)?(?:/\d+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[()+\-*^]))"
)


def _tokenize(text: str):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ParseError(f"unexpected character {text[pos]!r}", pos)
            break
        if m.lastgroup is not None:
            tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


def parse_poly(text: str) -> Polynomial:
    """Parse a canonical polynomial string such as ``1 - 2*p + p^2``."""
    tokens = _tokenize(text)
    idx = 0

    def peek():
        return tokens[idx]

    def take(kind=None, value=None):
        nonlocal idx
        tok = tokens[idx]
        if kind and tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1]!r}", tok[2])
        if value and tok[1] != value:
            raise ParseError(f"expected {value!r}, found {tok[1]!r}", tok[2])
        idx += 1
        return tok

    def parse_factor():
        tok = peek()
        if tok[0] == "num":
            take()
            base = Polynomial.const(parse_rational(tok[1]))
        elif tok[0] == "name":
            take()
            base = Polynomial.var(tok[1])
        elif tok[0] == "op" and tok[1] == "(":
            take()
            base = parse_expr()
            take("op", ")")
        elif tok[0] == "op" and tok[1] == "-":
            take()
            return -parse_factor()
        else:
            raise ParseError(f"expected a factor, found {tok[1]!r}", tok[2])
        if peek()[0] == "op" and peek()[1] == "^":
            take()
            exp = take("num")
            if "/" in exp[1] or "." in exp[1]:
                raise ParseError("exponent must be a nonnegative integer", exp[2])
            base = base ** int(exp[1])
        return base

    def parse_term():
        result = parse_factor()
        while peek()[0] == "op" and peek()[1] == "*":
            take()
            result = result * parse_factor()
        return result

    def parse_expr():
        tok = peek()
        negate = False
        if tok[0] == "op" and tok[1] in "+-":
            take()
            negate = tok[1] == "-"
        result = parse_term()
        if negate:
            result = -result
        while peek()[0] == "op" and peek()[1] in "+-":
            op = take()
            term = parse_term()
            result = result - term if op[1] == "-" else result + term
        return result

    result = parse_expr()
    end = peek()
    if end[0] != "end":
        raise ParseError(f"trailing input {end[1]!r}", end[2])
    return result


def poly_eval(poly, valuation) -> Fraction:
    """Value of a polynomial at a valuation; a rational is its own value."""
    if isinstance(poly, Polynomial):
        return poly.evaluate(valuation)
    return poly if isinstance(poly, Fraction) else Fraction(poly)


class PolyTable:
    """Distinct polynomials in integer form, evaluated together at a valuation.

    `slot(p)` registers a polynomial or a rational and returns its index;
    equal entries share one slot.  `at(v)` returns one value vector (D, nums):
    a positive integer D and one integer per slot, with nums[k] / D the value
    of slot k at v.  The table is compiled on the first evaluation after a
    registration: every coefficient is scaled to the lcm L of all coefficient
    denominators, and a parameter x = a/b of highest exponent d contributes
    b**d to D = L * prod(b**d), so a monomial's value is the integer
    prod(a**e * b**(d - e)) and no `Fraction` is built per sample.  A table
    without variables has a single vector, computed when it is compiled.
    """

    __slots__ = ("polys", "_index", "_code", "_fixed")

    def __init__(self):
        self.polys, self._index, self._code, self._fixed = [], {}, None, None

    def slot(self, poly) -> int:
        k = self._index.get(poly)
        if k is None:
            k = self._index[poly] = len(self.polys)
            self.polys.append(poly)
            self._code = None
        return k

    def _compile(self):
        terms = [Polynomial.coerce(p).terms for p in self.polys]
        # first-appearance order, so a missing parameter is reported as
        # evaluating the slots one by one would report it
        degree = {}
        for t in terms:
            for mono in t:
                for var, e in mono:
                    degree[var] = max(degree.get(var, 0), e)
        scale = math.lcm(1, *(c.denominator for t in terms for c in t.values()))
        monos, rows = {}, []  # exponent vector -> its index, in insertion order
        for t in terms:
            row = []
            for mono, c in t.items():
                exps = tuple(dict(mono).get(var, 0) for var in degree)
                j = monos.setdefault(exps, len(monos))
                row.append((c.numerator * (scale // c.denominator), j))
            rows.append(row)
        self._code = (tuple(degree.items()), scale, list(monos), rows)
        self._fixed = None if degree else self._evaluate({})

    def _evaluate(self, v):
        degree, den, monos, rows = self._code
        powers = []
        for var, d in degree:
            if var not in v:
                raise MissingParameter(f"parameter {var!r} unassigned")
            x = v[var]
            if not isinstance(x, Fraction):
                x = Fraction(x)
            a, b = x.numerator, x.denominator
            powers.append([a ** e * b ** (d - e) for e in range(d + 1)])
            den *= b ** d
        values = [math.prod(p[e] for p, e in zip(powers, exps)) for exps in monos]
        return den, [sum(c * values[j] for c, j in row) for row in rows]

    def at(self, v):
        """The value vector (D, nums) at valuation v."""
        if self._code is None:
            self._compile()
        return self._fixed or self._evaluate(v)


# ---------------------------------------------------------------------------
# Valuations
# ---------------------------------------------------------------------------

def valuation(mapping) -> dict:
    """Normalize a parameter assignment to a dict of Fractions."""
    return {str(k): Fraction(v) for k, v in dict(mapping).items()}


def valuation_key(v) -> tuple:
    """Canonical hashable form used for ordering and deduplication."""
    return tuple(sorted((k, Fraction(val)) for k, val in v.items()))


def require_total(v, params):
    missing = set(params) - set(v)
    if missing:
        raise MissingParameter(f"valuation missing parameters {sorted(missing)}")


# ---------------------------------------------------------------------------
# Regions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Box:
    """Axis-aligned product of closed rational intervals."""

    bounds: tuple  # sorted tuple of (param, (lo, hi))

    @staticmethod
    def of(mapping) -> "Box":
        items = []
        for param, (lo, hi) in dict(mapping).items():
            lo, hi = Fraction(lo), Fraction(hi)
            if lo > hi:
                raise EmptyRegion(f"box interval for {param!r} has lower > upper")
            items.append((str(param), (lo, hi)))
        return Box(tuple(sorted(items)))

    @property
    def params(self):
        return frozenset(p for p, _ in self.bounds)

    def contains(self, v) -> bool:
        for param, (lo, hi) in self.bounds:
            if param not in v or not lo <= Fraction(v[param]) <= hi:
                return False
        return True


@dataclass(frozen=True)
class FiniteRegion:
    """An explicit finite set of valuations (deduplicated)."""

    valuations: tuple  # tuple of valuation_key tuples

    @staticmethod
    def of(valuations) -> "FiniteRegion":
        keys = sorted({valuation_key(valuation(v)) for v in valuations})
        return FiniteRegion(tuple(keys))

    def as_dicts(self):
        return [dict(k) for k in self.valuations]

    def contains(self, v) -> bool:
        return valuation_key(v) in set(self.valuations)


@dataclass(frozen=True)
class RegionUnion:
    parts: tuple

    @staticmethod
    def of(parts) -> "RegionUnion":
        return RegionUnion(tuple(parts))

    def contains(self, v) -> bool:
        return any(p.contains(v) for p in self.parts)


Region = (Box, FiniteRegion, RegionUnion)


def _axis_points(lo: Fraction, hi: Fraction, resolution: int):
    if lo == hi:
        return [lo]
    pts = {lo, hi}
    step = (hi - lo) / (resolution + 1)
    for k in range(1, resolution + 1):
        pts.add(lo + k * step)
    return sorted(pts)


def region_samples(region, resolution: int = 1):
    """Deterministic list of sample valuations covering the region.

    Boxes yield the full grid of per-axis endpoints plus `resolution` evenly
    spaced interior points; finite regions yield themselves.
    """
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    if isinstance(region, FiniteRegion):
        if not region.valuations:
            raise EmptyRegion("finite region is empty")
        return region.as_dicts()
    if isinstance(region, Box):
        if not region.bounds:
            raise EmptyRegion("box region constrains no parameter")
        axes = [(p, _axis_points(lo, hi, resolution)) for p, (lo, hi) in region.bounds]
        names = [p for p, _ in axes]
        out = []
        for combo in itertools.product(*(pts for _, pts in axes)):
            out.append(dict(zip(names, combo)))
        out.sort(key=valuation_key)
        return out
    if isinstance(region, RegionUnion):
        seen = {}
        for part in region.parts:
            try:
                for v in region_samples(part, resolution):
                    seen[valuation_key(v)] = v
            except EmptyRegion:
                continue
        if not seen:
            raise EmptyRegion("union of empty regions")
        return [seen[k] for k in sorted(seen)]
    raise TypeError(f"not a region: {region!r}")


def region_intersect(a, b):
    """Exact intersection for boxes, finite sets, and unions thereof.

    Axes missing from one box are inherited from the other (treated as
    unconstrained there).
    """
    if isinstance(a, RegionUnion):
        return RegionUnion.of(region_intersect(p, b) for p in a.parts)
    if isinstance(b, RegionUnion):
        return RegionUnion.of(region_intersect(a, p) for p in b.parts)
    if isinstance(a, FiniteRegion) and isinstance(b, FiniteRegion):
        common = set(a.valuations) & set(b.valuations)
        return FiniteRegion(tuple(sorted(common)))
    if isinstance(a, FiniteRegion):
        a, b = b, a
    if isinstance(b, FiniteRegion):
        kept = [v for v in b.as_dicts() if a.contains(v)]
        return FiniteRegion.of(kept)
    merged = {}
    for param, (lo, hi) in a.bounds:
        merged[param] = (lo, hi)
    for param, (lo, hi) in b.bounds:
        if param in merged:
            plo, phi = merged[param]
            merged[param] = (max(plo, lo), min(phi, hi))
        else:
            merged[param] = (lo, hi)
    if any(lo > hi for lo, hi in merged.values()):
        return FiniteRegion(())
    return Box.of(merged)


def region_is_empty(region) -> bool:
    if isinstance(region, FiniteRegion):
        return not region.valuations
    if isinstance(region, Box):
        return False
    if isinstance(region, RegionUnion):
        return all(region_is_empty(p) for p in region.parts)
    raise TypeError(f"not a region: {region!r}")
