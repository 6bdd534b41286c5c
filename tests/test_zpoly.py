import pytest
from hypothesis import given, strategies as st

from pretzellinks.errors import InternalConsistencyError, ParseError
from pretzellinks.zpoly import (
    LaurentZ,
    ZPoly,
    binomial,
    coefficient,
    exact_div,
    poly_exact_div,
    poly_mul,
)

small_poly = st.builds(ZPoly, st.lists(st.integers(-9, 9), max_size=8))
# Constants (0 and 1 among them) as well as higher-degree polynomials.
poly_or_const = st.one_of(
    small_poly, st.builds(lambda c: ZPoly((c,)), st.sampled_from([0, 1, -1, 2, 10**30])))


def test_binomial_values():
    assert binomial(3, 1) == 3
    assert binomial(-2, 2) == 3
    assert binomial(4, 0) == 1
    assert binomial(0, 0) == 1
    assert binomial(-1, 3) == -1


@given(st.integers(-30, 30), st.integers(0, 12))
def test_binomial_pascal(alpha, n):
    assert binomial(alpha, n + 1) + binomial(alpha, n) == binomial(alpha + 1, n + 1)


def test_exact_div_raises():
    assert exact_div(12, 4) == 3
    with pytest.raises(InternalConsistencyError):
        exact_div(7, 2)


def test_coefficient_examples():
    f = ZPoly((0, 0, 0, -9, 0, -4))
    assert coefficient(f, 3) == -9
    assert coefficient(ZPoly.zero(), 7) == 0
    assert coefficient(ZPoly((0, -1)), 1) == -1


def _convolution(a, b):
    """Reference product: the general convolution of coefficient tuples."""
    out = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


@given(poly_or_const, poly_or_const, small_poly)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b).coeffs == _convolution(a.coeffs, b.coeffs)
    assert (a + b) * c == a * c + b * c
    assert a + ZPoly.zero() == a
    assert a * ZPoly.one() == a
    assert (a - b) + b == a
    assert 3 * a == a + a + a
    assert list(a) == list(a.coeffs)
    assert hash(a * b) == hash(b * a)


def test_str_and_parse_round_trip():
    cases = [
        ZPoly.zero(), ZPoly.one(), ZPoly((-3,)), ZPoly((0, -1)),
        ZPoly((0, 0, 0, -9, 0, -4)), ZPoly((1, 0, 1)), ZPoly((0, 2, 0, 1)),
    ]
    for f in cases:
        assert ZPoly.parse(str(f)) == f
    assert ZPoly.parse("+ -3z") == ZPoly((0, -3))
    for text in ("\uff13z", "z^\uff13", "\u0663 + z",
                 "2 3", "1 0z", "z^1 0", "3z^ 2", "1\n+ z"):
        with pytest.raises(ParseError):
            ZPoly.parse(text)


def test_text_form_matches_convention():
    assert str(ZPoly((0, 0, 0, -9, 0, -4))) == "-9z^3 - 4z^5"
    assert str(ZPoly((0, -1))) == "-z"
    assert str(ZPoly((1, 0, 1))) == "1 + z^2"


@given(small_poly)
def test_pairs_round_trip(f):
    assert ZPoly.from_pairs(f.to_pairs()) == f


def test_laurent_arithmetic_and_division():
    x = LaurentZ.x_power(1)
    xin = LaurentZ.x_power(-1)
    z = x - xin
    prod = z * z
    assert prod.coefficient(2) == 1
    assert prod.coefficient(0) == -2
    assert prod.coefficient(-2) == 1
    assert prod.exact_div(z) == z
    with pytest.raises(InternalConsistencyError):
        (z + LaurentZ.const(1)).exact_div(z * z)


@given(small_poly, small_poly.filter(bool), st.integers(0, 3))
def test_poly_exact_div_inverts_poly_mul(q, d, zeros):
    num = tuple(poly_mul(q.coeffs, d.coeffs)) + (0,) * zeros
    assert tuple(poly_exact_div(num, d.coeffs)) == q.coeffs


def test_poly_exact_div_refuses_a_remainder():
    assert poly_exact_div((0, 0, 6), (0, 3)) == [0, 2]
    assert poly_exact_div((), (2,)) == ()
    for num, den in (((1, 1), (0, 1)), ((3,), (2,)), ((1,), (1, 1)),
                     ((1, 0, 1), (1, 1))):
        with pytest.raises(InternalConsistencyError):
            poly_exact_div(num, den)
    with pytest.raises(ZeroDivisionError):
        poly_exact_div((1,), ())


def test_substitute_z():
    x = LaurentZ.x_power(1)
    xin = LaurentZ.x_power(-1)
    z = x - xin
    assert (z * z * z + z * 2).substitute_z() == ZPoly((0, 2, 0, 1))
    assert LaurentZ.const(5).substitute_z() == ZPoly((5,))
    with pytest.raises(InternalConsistencyError):
        x.substitute_z()


@given(st.builds(ZPoly, st.lists(st.integers(-5, 5), max_size=10)),
       st.integers(-12, 12).filter(bool))
def test_substitute_z_inverts_the_expansion(f, e):
    # Expand f at z = x - x^-1 with LaurentZ products and sums alone.
    z = LaurentZ(-1, (-1, 0, 1))
    total, power = LaurentZ.zero(), LaurentZ.const(1)
    for c in f.coeffs:
        total, power = total + power * c, power * z
    assert total.substitute_z() == f
    with pytest.raises(InternalConsistencyError):
        (total + LaurentZ.x_power(e)).substitute_z()


@given(st.lists(st.integers(-3, 3), max_size=8), st.integers(0, 4))
def test_trailing_zeros_normalise_for_every_iterable(cs, zeros):
    padded = cs + [0] * zeros
    want = list(cs)
    while want and want[-1] == 0:
        want.pop()
    for given_form in (tuple(padded), list(padded), (c for c in padded)):
        f = ZPoly(given_form)
        assert type(f.coeffs) is tuple and f.coeffs == tuple(want)
        assert f.degree == len(want) - 1
