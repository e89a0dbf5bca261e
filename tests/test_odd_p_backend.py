"""Differential tests: the odd-p Kronecker product against the dense product.

For odd p, ``Polynomial.__mul__`` packs both operands into big ints, one
fixed-width slot per coefficient, and multiplies once.  The dense schoolbook
product is the reference.  Inputs cover zero, scalars, ``x^k``, all-``p-1``
coefficients (every slot at its maximum) and the lengths at which the slot
width ``min(len) * (p - 1)**2`` crosses a byte or a machine-word boundary.
The second half checks that results built by the trusted constructor are
canonical: no trailing zeros, equal and hashing like constructed and parsed
polynomials, immutable.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from polycrt import Polynomial, PrimeField, parse_polynomial
from polycrt.poly import _dense_mul, _kronecker_mul

# 2**31 - 1 has 8-byte slots up to length 4 and 9-byte slots from 5 on.
PRIMES = (3, 13, 65521, 2**31 - 1, 2**61 - 1, 2**64 - 59)
FIELDS = {p: PrimeField(p) for p in PRIMES}
MAX_LEN = 300

DIFFERENTIAL = settings(derandomize=True, database=None, max_examples=60, deadline=None)


def width_edges(p):
    """Lengths n <= MAX_LEN on either side of a change in the slot width.

    The slot holds ``n * (p - 1)**2``; each n returned is the last or first
    length before or after that value needs one more byte.
    """
    square = (p - 1) ** 2
    edges = {0, 1, 2, MAX_LEN}
    for nbytes in range(1, 20):
        n = -(-(1 << (8 * nbytes)) // square)  # first n needing nbytes + 1 bytes
        if n <= MAX_LEN:
            edges.update((n - 1, n))
    return sorted(e for e in edges if 0 <= e <= MAX_LEN)


def slot_width(n, p):
    return ((n * (p - 1) ** 2).bit_length() + 7) // 8


@st.composite
def operands(draw):
    """A prime p from PRIMES and two polynomials over F_p."""
    p = draw(st.sampled_from(PRIMES))
    return (p, draw(coefficient_lists(p)), draw(coefficient_lists(p)))


@st.composite
def coefficient_lists(draw, p):
    length = draw(st.one_of(st.sampled_from(width_edges(p)), st.integers(0, MAX_LEN)))
    if length == 0:
        return ()
    shape = draw(st.sampled_from(("max", "monomial", "random")))
    if shape == "max":
        return (p - 1,) * length
    if shape == "monomial":
        return (0,) * (length - 1) + (draw(st.integers(1, p - 1)),)
    low = draw(st.lists(st.integers(0, p - 1), min_size=length - 1, max_size=length - 1))
    return tuple(low) + (draw(st.integers(1, p - 1)),)


def max_poly_examples():
    """All-``p-1`` operands at every width edge, one pair per prime and edge."""
    for p in PRIMES:
        for n in width_edges(p):
            if n:
                yield p, (p - 1,) * n, (p - 1,) * min(MAX_LEN, n + 7)


def dense_product(field, a, b):
    return Polynomial(field, _dense_mul(a.coeffs, b.coeffs, field.p))


def assert_canonical(result):
    """A kernel-built result is indistinguishable from a constructed one."""
    field = result.field
    rebuilt = Polynomial(field, result.coeffs)
    parsed = parse_polynomial(str(result), field)
    assert result == rebuilt == parsed
    assert hash(result) == hash(rebuilt) == hash(parsed)
    assert isinstance(result.coeffs, tuple)
    assert not result.coeffs or result.coeffs[-1] != 0
    assert all(0 <= c < field.p for c in result.coeffs)


class TestAgainstDenseProduct:
    def test_edges_cross_slot_widths(self):
        # The edge lengths change the slot width at every prime; below p =
        # 2**31 - 1 they also cross a machine-word slot size, and at it the
        # width leaves the word sizes.
        for p in PRIMES:
            widths = {slot_width(n, p) for n in width_edges(p) if n}
            assert len(widths) >= 2, (p, widths)
        assert slot_width(63, 3) == 1 and slot_width(64, 3) == 2
        assert slot_width(1, 65521) == 4 and slot_width(2, 65521) == 5
        assert slot_width(4, 2**31 - 1) == 8 and slot_width(5, 2**31 - 1) == 9
        assert slot_width(1, 2**64 - 59) == 16 and slot_width(2, 2**64 - 59) == 17

    @DIFFERENTIAL
    @given(operands())
    def test_mul(self, case):
        p, a_coeffs, b_coeffs = case
        field = FIELDS[p]
        a, b = Polynomial(field, a_coeffs), Polynomial(field, b_coeffs)
        product = a * b
        assert product == dense_product(field, a, b)
        assert product == b * a
        assert_canonical(product)

    @pytest.mark.parametrize("p, a, b", list(max_poly_examples()))
    def test_all_max_coefficients(self, p, a, b):
        field = FIELDS[p]
        assert Polynomial(field, a) * Polynomial(field, b) == dense_product(
            field, Polynomial(field, a), Polynomial(field, b)
        )

    @DIFFERENTIAL
    @given(operands())
    @example((13, (), (5, 1)))
    @example((65521, (65520,) * 257, (65520,) * 256))
    def test_kernel_on_raw_tuples(self, case):
        p, a, b = case
        expected = _dense_mul(a, b, p) if a and b else []
        assert _kronecker_mul(a, b, p) == expected

    @pytest.mark.parametrize("p", PRIMES)
    def test_zero_and_scalar_operands(self, p):
        field = FIELDS[p]
        zero = Polynomial(field)
        a = Polynomial(field, [p - 1] * 40)
        assert a * zero == zero * a == zero
        assert (a * zero).coeffs == ()
        scalar = Polynomial(field, (p - 1,))
        assert a * scalar == Polynomial(field, [1] * 40)


@pytest.fixture(params=(13, 65521), ids=("p13", "p65521"))
def field(request):
    return FIELDS[request.param]


class TestTrustedConstructor:
    def test_self_difference_is_zero(self, field):
        a = Polynomial(field, [field.p - 1, 3, 0, 7])
        assert (a - a).coeffs == ()
        assert (a - a) == Polynomial(field)
        assert not (a - a)

    def test_sum_with_cancelled_top_coefficients(self, field):
        p = field.p
        a = Polynomial(field, [1, 0, 5, 1])
        b = Polynomial(field, [0, 1, p - 5, p - 1])
        total = a + b
        assert total.coeffs == (1, 1)
        assert_canonical(total)

    def test_remainder_with_cancelled_top_coefficients(self, field):
        divisor = Polynomial(field, [2, 0, 3, 1, 0, 1])
        quotient = Polynomial(field, [4, field.p - 1, 1])
        dividend = quotient * divisor + Polynomial(field, (1,))
        q, r = divmod(dividend, divisor)
        assert q == quotient
        assert r.coeffs == (1,)
        assert_canonical(q)
        assert_canonical(r)

    def test_results_equal_and_hash_like_constructed_and_parsed(self, field):
        p = field.p
        a = parse_polynomial(f"{p - 1}*x^40+3*x^7+x+2", field)
        b = parse_polynomial("x^33+5*x^2+1", field)
        results = [a + b, a - b, b - a, a * b, *divmod(a * b + a, b)]
        table = {result: i for i, result in enumerate(results)}
        for i, result in enumerate(results):
            assert_canonical(result)
            assert table[Polynomial(field, result.coeffs)] == i
            assert table[parse_polynomial(str(result), field)] == i

    def test_results_are_immutable(self, field):
        a = parse_polynomial("x^9+2*x+1", field)
        for result in (a + a, a - a, a * a, *divmod(a * a + a, a + a)):
            for name in ("coeffs", "field"):
                with pytest.raises(AttributeError):
                    setattr(result, name, None)

    def test_neg_and_scale_agree(self, field):
        p = field.p
        a = parse_polynomial(f"{p - 1}*x^12+7*x^3+1", field)
        b = parse_polynomial("x^5+4", field)
        for value in (a, a * b, a - b, divmod(a * b + a, b)[1]):
            assert -value == value._scale(p - 1)
            assert a - value == a + (-value)
            assert value._scale(3) == value * Polynomial(field, (3,))
            assert_canonical(-value)
            assert_canonical(value._scale(3))
