import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pacomp.algebra import (
    PARSED_POLYS,
    Box,
    FiniteRegion,
    Polynomial,
    PolyTable,
    RegionUnion,
    parse_poly,
    parse_rational,
    region_intersect,
    region_samples,
    valuation_key,
)
from pacomp.errors import EmptyRegion, MissingParameter, ParseError

from helpers import random_poly, random_region

P, Q = Polynomial.var("p"), Polynomial.var("q")
ONE = Polynomial.const(1)


def test_eval_two_hop_formula():
    # hand-expanded two-hop reach formula at p = q = 1/10
    poly = (ONE - P) * Q + P * F(1, 10)
    assert poly.evaluate({"p": F(1, 10), "q": F(1, 10)}) == F(1, 10)


def test_eval_zero_and_power():
    assert Polynomial.const(0).evaluate({"p": 5}) == 0
    assert (P ** 2).evaluate({"p": F(3, 10)}) == F(9, 100)


def test_eval_missing_parameter():
    with pytest.raises(MissingParameter):
        (P * Q).evaluate({"p": 1})


def test_binomial_and_cancellation():
    assert (ONE - P) * (ONE - P) == parse_poly("1 - 2*p + p^2")
    assert P * (ONE - P) + P ** 2 == P
    assert str((ONE - P) * (ONE - P)) == "1 - 2*p + p^2"


def test_product_distribution_entry():
    assert (ONE - P) * (ONE - Q) == parse_poly("1 - p - q + p*q")


coeffs = st.fractions(
    min_value=-3, max_value=3, max_denominator=6
)


@given(st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_ring_axioms_randomized(seed):
    rng = random.Random(seed)
    a, b, c = (random_poly(rng) for _ in range(3))
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == Polynomial.const(0)


def test_equal_polynomials_and_numbers_hash_equal():
    # a constant polynomial equals its value, so the two must hash alike and
    # share one set entry and one PolyTable slot; the zero polynomial included
    for value in (0, 1, F(-3, 7)):
        p = Polynomial.const(value)
        assert p == value == F(value) and hash(p) == hash(value) == hash(F(value))
        assert len({p, F(value), value}) == 1
        table = PolyTable()
        assert [table.slot(p), table.slot(F(value)), table.slot(value)] == [0, 0, 0]
        den, nums = table.at({})
        assert [F(n, den) for n in nums] == [value]
    assert Polynomial({}) == Polynomial.const(0) == 0 and hash(Polynomial({})) == hash(0)
    assert len({P + 1, 1 + P, ONE}) == 2


@given(st.integers(0, 2**32), coeffs)
@settings(max_examples=60, deadline=None)
def test_kept_hash_is_the_term_maps_hash(seed, value):
    """A polynomial keeps its hash after the first call; it is the hash of its
    term map, or of its value for a constant, on every call, and equal
    polynomials built apart hash alike."""
    poly = random_poly(random.Random(seed))
    terms = poly.terms
    fresh = (hash(terms.get((), 0)) if terms.keys() <= {()}
             else hash(frozenset(terms.items())))
    assert hash(poly) == hash(poly) == fresh
    assert hash(Polynomial(dict(terms))) == fresh
    const = Polynomial.const(value)
    assert hash(const) == hash(const) == hash(value) == hash(Polynomial.const(value))


@given(st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_eval_is_ring_homomorphism(seed):
    rng = random.Random(seed)
    a, b, c = (random_poly(rng) for _ in range(3))
    v = {n: F(rng.randint(-3, 3), rng.randint(1, 4)) for n in ("p", "q", "r")}
    assert (a * b + c).evaluate(v) == a.evaluate(v) * b.evaluate(v) + c.evaluate(v)


@given(
    num=st.integers(min_value=-40, max_value=40),
    den=st.integers(min_value=1, max_value=40),
    num2=st.integers(min_value=-40, max_value=40),
    den2=st.integers(min_value=1, max_value=40),
)
@settings(max_examples=80, deadline=None)
def test_rationals_stay_in_lowest_terms(num, den, num2, den2):
    import math

    for value in (
        F(num, den) + F(num2, den2),
        F(num, den) * F(num2, den2),
        F(num, den) - F(num2, den2),
    ):
        assert value.denominator > 0
        assert math.gcd(value.numerator, value.denominator) == 1


@given(st.integers(0, 2**32))
@settings(deadline=None)
def test_poly_parse_roundtrip(seed):
    poly = random_poly(random.Random(seed))
    assert parse_poly(str(poly)) == poly


def _coefficient(rng, mag):
    """Tokens of the positive rational `mag`: lowest terms, a fraction not in
    lowest terms, a decimal, or a decimal times a unit fraction."""
    num, den = mag.numerator, mag.denominator
    forms = [[str(num) if den == 1 else f"{num}/{den}"], [f"{2 * num}/{2 * den}"],
             [f"{num}.0", "*", f"1/{den}"], ["-", "(", "-", str(num), ")", "*", f"1/{den}"]]
    if 10**6 % den == 0:
        n = num * (10**6 // den)
        forms.append([f"{n // 10**6}.{n % 10**6:06d}"])
    return rng.choice(forms)


def _power(rng, var, e):
    """Tokens of var^e: a power, a product, a parenthesised base, or split
    powers, with or without an extra var^0."""
    forms = [[var, "^", str(e)], [var, *[t for _ in range(e - 1) for t in ("*", var)]],
             ["(", var, ")", "^", str(e)], [var, "^", str(e), "*", var, "^", "0"]]
    if e > 1:
        forms.append([var, "^", "1", "*", var, "^", str(e - 1)])
    return rng.choice(forms)


def _noncanonical(rng, poly):
    """A string that parses to `poly` but is not `str(poly)`'s canonical form:
    terms and factors shuffled, extra blanks, redundant parentheses, unary
    minus, decimals and split `^` powers."""
    if not poly.terms:
        tokens = rng.choice([["0"], ["0", "*", "p"], ["p", "-", "p"], ["(", "0", ")"]])
    else:
        tokens = []
        items = list(poly.terms.items())
        rng.shuffle(items)
        for i, (mono, coef) in enumerate(items):
            factors = [_power(rng, var, e) for var, e in mono]
            if abs(coef) != 1 or not factors or rng.random() < 0.3:
                factors.append(_coefficient(rng, abs(coef)))
            rng.shuffle(factors)
            body = [t for k, f in enumerate(factors) for t in (["*"] if k else []) + f]
            if rng.random() < 0.3:
                body = ["(", *body, ")"]
            if coef > 0:
                sign = rng.choice([[], ["+"]] if i == 0 else [["+"], ["-", "-"]])
            else:
                sign = rng.choice([["-"], ["0", "-"]] if i == 0 else [["-"], ["+", "-"]])
            tokens += sign + body
    if rng.random() < 0.3:
        tokens = ["(", *tokens, ")"]
    return "".join(rng.choice(["", " ", "  ", "\t"]) + t for t in tokens) + rng.choice(["", " "])


@given(st.integers(0, 2**32))
@settings(max_examples=150, deadline=None)
def test_memoised_parse_is_a_fresh_parse(seed):
    # parse_poly keeps each string's parse; on a first and a repeated call
    # it returns what the parser itself returns for the same text
    rng = random.Random(seed)
    poly = random_poly(rng)
    text = _noncanonical(rng, poly)
    first = parse_poly(text)
    assert first == parse_poly.__wrapped__(text) == poly
    again = parse_poly(text)
    assert again is first and again == parse_poly.__wrapped__(text)
    assert parse_poly.cache_info().maxsize == PARSED_POLYS


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse_poly("1 + 2*")
    assert err.value.pos is not None


@pytest.mark.parametrize(
    "text, message, pos",
    [
        ("p $ q", "unexpected character '$'", 2),  # the character, not the space before it
        ("p^1/2", "exponent must be a nonnegative integer", 2),
        ("p q", "trailing input 'q'", 2),
        ("p + ", "expected a factor, found ''", 4),
    ],
)
def test_parse_poly_errors_name_their_position(text, message, pos):
    # the memo keeps no error: a repeated call raises the same one again
    for _ in range(2):
        with pytest.raises(ParseError) as err:
            parse_poly(text)
        assert (str(err.value), err.value.pos) == (f"{message} (at position {pos})", pos)


def test_unary_minus_inside_a_factor():
    assert parse_poly("2*-p") == -2 * P


def test_parse_rational_decimal():
    assert parse_rational("0.1") == F(1, 10)
    assert parse_rational("9/10") == F(9, 10)


def test_region_samples_midpoint_grid():
    samples = region_samples(Box.of({"p": (0, 1)}), 1)
    assert samples == [{"p": F(0)}, {"p": F(1, 2)}, {"p": F(1)}]


def test_region_samples_finite_identity():
    region = FiniteRegion.of([{"p": F(1, 10)}, {"p": F(9, 10)}])
    assert region_samples(region, 3) == [{"p": F(1, 10)}, {"p": F(9, 10)}]


def test_region_samples_degenerate_interval():
    assert region_samples(Box.of({"p": (F(1, 4), F(1, 4))}), 2) == [{"p": F(1, 4)}]


def test_region_samples_grid_is_deterministic_product():
    box = Box.of({"p": (0, 1), "q": (0, 1)})
    samples = region_samples(box, 1)
    assert len(samples) == 9
    assert samples == region_samples(box, 1)


def test_empty_region_raises():
    with pytest.raises(EmptyRegion):
        region_samples(FiniteRegion.of([]), 1)


def test_region_intersection():
    box = region_intersect(Box.of({"p": (0, F(1, 2))}), Box.of({"p": (F(1, 4), 1), "q": (0, 1)}))
    assert isinstance(box, Box)
    assert dict(box.bounds)["p"] == (F(1, 4), F(1, 2))
    assert dict(box.bounds)["q"] == (F(0), F(1))

    fin = region_intersect(Box.of({"p": (0, F(1, 10))}), FiniteRegion.of([{"p": F(1, 20)}, {"p": F(1, 2)}]))
    assert fin == FiniteRegion.of([{"p": F(1, 20)}])

    empty = region_intersect(Box.of({"p": (0, F(1, 4))}), Box.of({"p": (F(1, 2), 1)}))
    assert empty == FiniteRegion(())

    union = region_intersect(
        RegionUnion.of([Box.of({"p": (0, F(1, 4))}), Box.of({"p": (F(3, 4), 1)})]),
        Box.of({"p": (0, 1)}),
    )
    assert any(part != FiniteRegion(()) for part in union.parts)


@given(
    lo1=st.fractions(min_value=0, max_value=1, max_denominator=8),
    hi1=st.fractions(min_value=0, max_value=1, max_denominator=8),
    lo2=st.fractions(min_value=0, max_value=1, max_denominator=8),
    hi2=st.fractions(min_value=0, max_value=1, max_denominator=8),
    probe=st.fractions(min_value=0, max_value=1, max_denominator=16),
)
@settings(max_examples=60, deadline=None)
def test_box_intersection_is_pointwise_conjunction(lo1, hi1, lo2, hi2, probe):
    if lo1 > hi1 or lo2 > hi2:
        return
    b1, b2 = Box.of({"p": (lo1, hi1)}), Box.of({"p": (lo2, hi2)})
    both = region_intersect(b1, b2)
    v = {"p": probe}
    inside = b1.contains(v) and b2.contains(v)
    if both == FiniteRegion(()):
        assert not inside
    else:
        assert both.contains(v) == inside


@given(
    vals=st.lists(
        st.fractions(min_value=0, max_value=1, max_denominator=10),
        min_size=1,
        max_size=6,
    )
)
@settings(max_examples=60, deadline=None)
def test_finite_regions_deduplicate(vals):
    region = FiniteRegion.of([{"p": v} for v in vals])
    assert len(region.valuations) == len(set(vals))
    for v in vals:
        assert valuation_key({"p": v}) in region.valuations


def _member(region, v):
    if isinstance(region, RegionUnion):
        return any(_member(part, v) for part in region.parts)
    if isinstance(region, FiniteRegion):
        return valuation_key(v) in region.valuations
    return region.contains(v)


PROBES = [{"p": F(k, 24)} for k in range(25)]


def test_union_samples_of_two_boxes_count_their_shared_face_once():
    # two boxes sharing the face p = 1/2, and two empty parts of both kinds
    union = RegionUnion.of([Box.of({"p": (0, F(1, 2))}), FiniteRegion(()),
                            Box.of({"p": (F(1, 2), 1)}), Box.of({})])
    assert region_samples(union, 1) == [{"p": F(k, 4)} for k in range(5)]
    with pytest.raises(EmptyRegion):
        region_samples(RegionUnion.of([FiniteRegion(()), Box.of({})]), 1)


@given(st.integers(0, 2**32))
@settings(deadline=None)
def test_union_samples_are_the_deduplicated_samples_of_its_nonempty_parts(seed):
    rng = random.Random(seed)
    parts = [random_region(rng) for _ in range(rng.randint(1, 4))]
    keys = set()
    for part in parts:
        if part != FiniteRegion(()):
            keys |= {valuation_key(v) for v in region_samples(part, 2)}
    if keys:
        got = region_samples(RegionUnion.of(parts), 2)
        assert [valuation_key(v) for v in got] == sorted(keys)
    else:
        with pytest.raises(EmptyRegion):
            region_samples(RegionUnion.of(parts), 2)


@given(st.integers(0, 2**32))
@settings(deadline=None)
def test_intersection_with_a_union_second_or_a_finite_first_is_pointwise(seed):
    rng = random.Random(seed)
    a = random_region(rng)
    union = RegionUnion.of([random_region(rng) for _ in range(rng.randint(1, 3))])
    finite = FiniteRegion.of([{"p": F(rng.randint(0, 8), 8)} for _ in range(3)])
    box = Box.of({"p": tuple(sorted(F(rng.randint(0, 4), 4) for _ in range(2)))})
    for x, y in ((a, union), (finite, box)):
        both = region_intersect(x, y)
        assert isinstance(both, RegionUnion if y is union else FiniteRegion)
        for v in PROBES:
            assert _member(both, v) == (_member(x, v) and _member(y, v))
