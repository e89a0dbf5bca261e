"""Differential tests: the odd-p Kronecker product and division steps.

For odd p, ``Polynomial.__mul__`` packs both operands into big ints, one
fixed-width slot per coefficient, and multiplies once.  The dense schoolbook
product is the reference.  Inputs cover zero, scalars, ``x^k``, all-``p-1``
coefficients (every slot at its maximum) and the lengths at which the slot
width ``min(len) * (p - 1)**2`` crosses a byte or a machine-word boundary.
``Polynomial.__divmod__`` divides short operands by a schoolbook loop and
the rest by division steps, which halve a long quotient until its parts
are short; schoolbook division is the reference, on both sides of the
length rule that picks the path and at the edges of the halving.  The step
kernel is also compared with it on raw tuples of every shape, and two
mutants planted in the halving must fail that comparison.  Then results
built by the trusted constructor are checked to be canonical: no trailing
zeros, equal and hashing like constructed and parsed polynomials,
immutable.  Then come the slot layout of a stored chain: the Barrett
reduction of the Euclid pass on every value a slot may reach, division
steps of one, two and all digits whose every slot is at its most, and the
stored slots of real analyses.  The last part compares the Euclid pass and
the cascade, which find each step's digits first, with the digit-at-a-time
folds of ``reference_decoder``, on steps that fill a window of the halving
or run a digit past one, and checks with a spy on the step kernel that a
step of thousands of digits is found in windows nested a few calls deep.
"""

import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from polycrt import (
    DivisionByZeroError,
    ErroneousResiduePair,
    MixedFieldsError,
    Polynomial,
    PrimeField,
    analyze_pair,
    gcd,
    parse_polynomial,
    random_moduli_pair,
    reconstruct,
)
from polycrt import kronecker
from polycrt.kronecker import (
    _STEP_MIN_DIVISOR,
    _STEP_MIN_QUOTIENT,
    _STEP_WINDOW,
    _chain_layout,
    _decode,
    _dense_divmod,
    _fold_euclid,
    _kronecker_mul,
    _neg_quotient,
    _pack,
    _step_divmod,
    _strip,
    _unpack,
)

from reference_decoder import (
    pack_chain,
    reference_fold,
    reference_fold_chain,
    reference_fold_euclid,
    schoolbook_mul,
)

# 2**31 - 1 has 8-byte slots up to length 4 and 9-byte slots from 5 on.
PRIMES = (3, 13, 65521, 2**31 - 1, 2**61 - 1, 2**64 - 59)
FIELDS = {p: PrimeField(p) for p in PRIMES}
MAX_LEN = 300

DIFFERENTIAL = settings(derandomize=True, database=None, max_examples=60, deadline=None)


def fold_chain(v, steps, cofs, width, code, p, stop):
    """The cascade of ``v`` over steps ``0 .. stop - 1``, by :func:`_decode`: its tail and weighted sum.

    The kernel decodes ``r1 = v`` and ``r2 = ()`` against ``m2 = (1,)``, so
    its ``q21`` must be ``v`` stripped and its ``a_hat`` must be ``k2_hat``.
    """
    q21, tail, k2_hat, a_hat = _decode(steps, cofs, width, code, p, stop, (1,), v, ())
    assert q21 == tuple(_strip(list(v))) and a_hat == k2_hat
    return tail, k2_hat


def stripped(lists):
    """``reference_fold_chain``'s lists as ``_decode`` returns them: tuples without trailing zeros."""
    return tuple(tuple(_strip(list(values))) for values in lists)


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
def coefficient_lists(draw, p, lengths=None):
    if lengths is None:
        lengths = st.one_of(st.sampled_from(width_edges(p)), st.integers(0, MAX_LEN))
    length = draw(lengths)
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
    return Polynomial(field, schoolbook_mul(a.coeffs, b.coeffs, field.p))


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
        expected = schoolbook_mul(a, b, p) if a and b else []
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


# Quotient lengths of one and two digits, and of 255 and 256: a step of 256
# digits halves exactly into windows of _STEP_WINDOW digits, one of 255 does
# not.  Divisor lengths of one and two coefficients, as in Euclid steps, and
# of 299 and 300, longer than most quotients.  Each with a range beside them.
QUOTIENT_LENGTHS = st.one_of(
    st.sampled_from((1, 2, 255, 256)),
    st.integers(256, MAX_LEN),
    st.integers(1, MAX_LEN),
)
DIVISOR_LENGTHS = st.one_of(
    st.sampled_from((1, 2, 299, 300)),
    st.integers(300, MAX_LEN),
    st.integers(32, MAX_LEN),
)


@st.composite
def division_operands(draw):
    """A prime p, a dividend at least as long as the divisor, and a nonzero,
    mostly non-monic divisor."""
    p = draw(st.sampled_from(PRIMES))
    n = draw(DIVISOR_LENGTHS)
    a = draw(coefficient_lists(p, QUOTIENT_LENGTHS.map(lambda size: n + size - 1)))
    return p, a, draw(coefficient_lists(p, st.just(n)))


def all_max(p, quotient_length, divisor_length):
    """All-``p-1`` operands with the given quotient and divisor lengths."""
    dividend_length = divisor_length + quotient_length - 1
    return p, (p - 1,) * dividend_length, (p - 1,) * divisor_length


def random_division(p, quotient_length, divisor_length, rng):
    """Random operands with the given quotient and divisor lengths."""
    dividend = [rng.randrange(p) for _ in range(divisor_length + quotient_length - 2)]
    divisor = [rng.randrange(p) for _ in range(divisor_length - 1)]
    return p, (*dividend, rng.randrange(1, p)), (*divisor, rng.randrange(1, p))


# Quotient and divisor lengths at the edges of the halving in
# kronecker._neg_quotient: quotients one digit past its base case of
# _STEP_WINDOW digits, of 64 digits and of 2**j +- 1 for j = 6..9, by divisors
# shorter than the quotient, which halve it, and by divisors longer than the
# quotient, whose digits come from their top slots; each at all-(p - 1) and
# at random operands over the primes in turn.  All-(p - 1) operands at
# 2**64 - 59 fill the widest slots on both branches: 129 digits by 128
# coefficients halve into two steps of the second branch.
HALVING_SHAPES = [
    *((k, n) for k in (33, 63, 64, 65, 127, 129, 255, 257, 511, 513) for n in (1, 10, 40)),
    (33, 300), (65, 300), (128, 129), (40, 41),
]


def halving_cases():
    rng = random.Random("halving")
    for i, (k, n) in enumerate(HALVING_SHAPES):
        p = PRIMES[i % len(PRIMES)]
        yield all_max(p, k, n)
        yield random_division(p, k, n, rng)
    for k, n in ((65, 2), (65, 300), (129, 128)):
        yield all_max(2**64 - 59, k, n)


HALVING_CASES = list(halving_cases())


def halving_examples(test):
    """``test`` with every case of :data:`HALVING_CASES` as an explicit example."""
    for case in HALVING_CASES:
        test = example(case)(test)
    return test


def dense_division(field, a, b):
    quot, rem = _dense_divmod(a, b, field.p, field.inv(b[-1]))
    return Polynomial(field, quot).coeffs, Polynomial(field, rem).coeffs


class TestAgainstDenseDivision:
    @DIFFERENTIAL
    @given(division_operands())
    @halving_examples
    @example(all_max(65521, 256, 300))
    @example(all_max(65521, 255, 300))
    @example(all_max(65521, 256, 299))
    @example(all_max(2**64 - 59, MAX_LEN, MAX_LEN))
    @example((13, (1, 2, 3), (5,) * 40))
    @example((65521, (), (1, 2)))
    @example((2**61 - 1, (7,) * 299, (2**61 - 2,) * 300))
    # Both sides of the rule that sends short operands to schoolbook division.
    @example(all_max(65521, _STEP_MIN_QUOTIENT, _STEP_MIN_DIVISOR))
    @example(all_max(65521, _STEP_MIN_QUOTIENT - 1, _STEP_MIN_DIVISOR))
    @example(all_max(65521, _STEP_MIN_QUOTIENT, _STEP_MIN_DIVISOR - 1))
    @example(all_max(13, MAX_LEN, _STEP_MIN_DIVISOR - 1))
    @example(all_max(2**61 - 1, _STEP_MIN_QUOTIENT, MAX_LEN))
    @example(all_max(2**61 - 1, _STEP_MIN_QUOTIENT - 1, MAX_LEN))
    def test_divmod(self, case):
        p, a_coeffs, b_coeffs = case
        field = FIELDS[p]
        a, b = Polynomial(field, a_coeffs), Polynomial(field, b_coeffs)
        q, r = divmod(a, b)
        assert (q.coeffs, r.coeffs) == dense_division(field, a.coeffs, b.coeffs)
        assert a == q * b + r
        assert r.degree < b.degree
        assert_canonical(q)
        assert_canonical(r)

    # The quotient lengths straddle the schoolbook/step bound and 2**8, at
    # which the step kernel halves; the divisor lengths are a pair shorter
    # than most quotients and a pair longer than all.  The test keeps the
    # name of an earlier rule that sent the longest shapes to a third kernel.
    @pytest.mark.parametrize("p", (13, 65521, 2**61 - 1))
    @pytest.mark.parametrize(
        "quotient_length",
        (
            _STEP_MIN_QUOTIENT - 1,
            _STEP_MIN_QUOTIENT,
            255,
            256,
        ),
    )
    @pytest.mark.parametrize("divisor_length", (39, 40, 299, 300))
    def test_mod_on_both_sides_of_the_newton_rule(self, p, quotient_length, divisor_length):
        field = FIELDS[p]
        for shape in ("max", "random"):
            _, a_coeffs, b_coeffs = all_max(p, quotient_length, divisor_length)
            if shape == "random":
                rng = random.Random(f"mod:{p}:{quotient_length}:{divisor_length}")
                a_coeffs = [rng.randrange(p) for _ in a_coeffs]
                b_coeffs = [rng.randrange(p) for _ in b_coeffs[1:]] + [rng.randrange(1, p)]
            a, b = Polynomial(field, a_coeffs), Polynomial(field, b_coeffs)
            r = a % b
            assert r.coeffs == dense_division(field, a.coeffs, b.coeffs)[1]
            assert r == divmod(a, b)[1]
            assert r % b == r
            assert_canonical(r)

    @pytest.mark.parametrize("p", (13, 2**61 - 1))
    def test_mod_checks_divisor_and_field(self, p):
        field = FIELDS[p]
        a, zero = parse_polynomial("x^70+x^3+1", field), Polynomial(field)
        with pytest.raises(DivisionByZeroError):
            a % zero
        with pytest.raises(DivisionByZeroError):
            zero % zero
        with pytest.raises(MixedFieldsError):
            a % parse_polynomial("x^2+1", PrimeField(3))
        with pytest.raises(TypeError):
            a % 3

    @DIFFERENTIAL
    @given(division_operands())
    # All-(p - 1) operands: at 2**32 - 5 a two-coefficient divisor fills a
    # 64-bit slot exactly and a longer one leaves the word sizes; 2**64 - 59
    # has the widest slots.
    @example(all_max(2**32 - 5, 100, 1))
    @example(all_max(2**32 - 5, 100, 2))
    @example(all_max(2**32 - 5, 100, 3))
    @example(all_max(2**64 - 59, MAX_LEN, MAX_LEN))
    @example(all_max(2**64 - 59, MAX_LEN, 2))
    # Short divisors under quotients on both sides of a halving's edge and
    # over several halvings, and under the longest quotients.
    @example(all_max(13, 63, 1))
    @example(all_max(65521, 64, 1))
    @example(all_max(2**61 - 1, 65, 1))
    @example(all_max(2**31 - 1, 200, 1))
    @example(all_max(65521, 63, 2))
    @example(all_max(2**61 - 1, 64, 2))
    @example(all_max(3, 65, 2))
    @example(all_max(2**64 - 59, 200, 2))
    @example(all_max(2**61 - 1, 63, 3))
    @example(all_max(3, 64, 3))
    @example(all_max(65521, 65, 3))
    @example(all_max(13, 200, 3))
    @example(all_max(3, MAX_LEN, 1))
    @example(all_max(65521, MAX_LEN, 2))
    @halving_examples
    def test_step_kernel_on_raw_tuples(self, case):
        # Division steps on every shape, also those the rule sends to
        # schoolbook division: same lists, trailing zeros included.
        p, a, b = case
        lead_inv = pow(b[-1], -1, p)
        assert _step_divmod(a, b, p, lead_inv) == _dense_divmod(a, b, p, lead_inv)


class TestHalvingMutants:
    # Each mutant redoes one branch of the step kernel's halving with one
    # slot wrong and hands every other call, its own included, to the real
    # kernel; the dense comparison on the halving edges must catch it.

    @staticmethod
    def mismatches(monkeypatch, mutant):
        monkeypatch.setattr(kronecker, "_neg_quotient", mutant)
        wrong = 0
        for p, a, b in HALVING_CASES:
            lead_inv = pow(b[-1], -1, p)
            wrong += _step_divmod(a, b, p, lead_inv) != _dense_divmod(a, b, p, lead_inv)
        return wrong

    def test_split_one_slot_off_fails(self, monkeypatch):
        kernel = kronecker._neg_quotient

        def mutant(rem, size, low, n, bits, p, neg_inv):
            k = size - n + 1
            if k <= _STEP_WINDOW or n > k:
                return kernel(rem, size, low, n, bits, p, neg_inv)
            # The top half split off one slot above where the bottom half ends.
            half = k // 2
            at = (half + 1) * bits
            g, top = mutant(rem >> at, size - half - 1, low, n, bits, p, neg_inv)
            f, rem = mutant(rem & (1 << at) - 1 | top << at, half + n - 1, low, n, bits, p, neg_inv)
            return g << at | f, rem

        assert self.mismatches(monkeypatch, mutant) > 0

    def test_divisor_one_coefficient_short_fails(self, monkeypatch):
        kernel = kronecker._neg_quotient

        def mutant(rem, size, low, n, bits, p, neg_inv):
            k = size - n + 1
            if k <= _STEP_WINDOW or n <= k:
                return kernel(rem, size, low, n, bits, p, neg_inv)
            # The digits from the divisor's top k coefficients, the lowest
            # of them read as zero.
            cut = (n - k) * bits
            g, top = mutant(rem >> cut, 2 * k - 1, low >> cut + bits << bits, k, bits, p, neg_inv)
            mask = (1 << cut) - 1
            return g, (rem & mask) + (top << cut) + g * (low & mask)

        assert self.mismatches(monkeypatch, mutant) > 0


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
        results += [-a, a._scale(3), b._scale(p)]
        table = {result: i for i, result in enumerate(results)}
        for i, result in enumerate(results):
            assert_canonical(result)
            assert table[Polynomial(field, result.coeffs)] == i
            assert table[parse_polynomial(str(result), field)] == i

    def test_results_are_immutable(self, field):
        a = parse_polynomial("x^9+2*x+1", field)
        for result in (a + a, a - a, a * a, *divmod(a * a + a, a + a), -a, a._scale(3)):
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


# (p, n) where the 2 * (t - m + 1) + 1 bits that a chain's slot must hold,
# for inputs of n coefficients (kronecker._chain_layout), end one bit short
# of a byte boundary or one bit past one, in one-word and in joined slots.
CHAIN_CASES = [
    (3, 8), (3, 16), (13, 300), (13, 64), (65521, 194), (65521, 456), (1048573, 194),
    (1048573, 456), (2**31 - 1, 2), (2**31 - 1, 64), (2**61 - 1, 100), (2**61 - 1, 194),
    (2**64 - 59, 194), (2**64 - 59, 456),
]


def chain_bound(p, n):
    """The most a slot of a chain for inputs of n coefficients may hold."""
    return 3 * p + n * (p - 1) * 3 * p


class TestChainLayout:
    @pytest.mark.parametrize("p, n", CHAIN_CASES)
    def test_reduction_brings_every_slot_below_3p(self, p, n):
        width, code, reduce = _chain_layout(p, n)
        bound = chain_bound(p, n)
        need = 2 * (bound.bit_length() - p.bit_length() + 1) + 1
        assert need % 8 in (1, 7) and need <= 8 * width
        rng = random.Random(f"barrett:{p}:{n}")
        values = [0, 1, p - 1, p, 2 * p, 3 * p - 1, 3 * p, bound - 1, bound]
        values += [bound - rng.randrange(p * p) for _ in range(300)]
        values += [rng.randrange(bound + 1) for _ in range(300)]
        for i in range(0, len(values), n):
            chunk = values[i : i + n]
            got = _unpack(reduce(_pack(chunk, width, code)), len(chunk), width, code)
            assert all(0 <= r < 3 * p and (r - x) % p == 0 for x, r in zip(chunk, got))

    @pytest.mark.parametrize("p, n", CHAIN_CASES)
    def test_worst_case_fold(self, p, n):
        # Divisors of lengths n, n - 1, ..., 1 take one digit each.
        self.check_worst_case(p, n, 1)

    @pytest.mark.parametrize("p, n", CHAIN_CASES)
    @pytest.mark.parametrize("k", [2, "n"])
    def test_worst_case_multi_digit_step(self, p, n, k):
        # A first step of 2 digits, or of all n by a divisor of length 1.
        self.check_worst_case(p, n, n if k == "n" else min(k, n))

    @staticmethod
    def check_worst_case(p, n, k):
        # Divisors with lead 1 and every slot below it at 3p - 1, the most a
        # stored slot may hold.  The first step takes k digits and each later
        # one a single digit, so the steps spend n digits over an input of n
        # coefficients, the most it allows.  Every cofactor slot holds 3p - 1
        # as well, and the input slots lie in [2p, 3p), chosen so that every
        # digit is p - 1: each term (p - 1) * (3p - 1) is 1 (mod p), so a
        # slot that collects c terms before its digit is read must start at
        # 1 - c (mod p).
        sizes = list(range(n - k + 1, 0, -1))
        counts, acc_counts = [0] * n, [0] * (n + k - 1)
        size = n
        for d in sizes:
            for shift in range(size - d + 1):
                for t in range(shift, shift + d - 1):
                    counts[t] += 1
                for t in range(shift, shift + n):
                    acc_counts[t] += 1
            size = d - 1
        width, code, reduce = _chain_layout(p, n)
        bits, full, term = 8 * width, 3 * p - 1, (p - 1) * (3 * p - 1)
        values = [2 * p + (1 - c) % p for c in counts]
        rem = ref_rem = _pack(values, width, code)
        acc = ref_acc = 0
        cof = _pack([full] * n, width, code)
        steps = []
        size = n
        for d in sizes:
            low = _pack([full] * (d - 1), width, code)
            steps.append((d, low, p - 1, 1))
            g, next_rem = _neg_quotient(rem, size, low, d, bits, p, p - 1)
            assert g == _pack([p - 1] * (size - d + 1), width, code)
            if d == 1:
                # The last top slot collects the most terms; it too reduces.
                top = rem >> (size - 1) * bits
                assert top == values[size - 1] + counts[size - 1] * term
                assert 0 <= reduce(top) < 3 * p and (reduce(top) - top) % p == 0
            rem = next_rem
            acc += g * cof
            ref_rem, ref_acc = reference_fold(ref_rem, ref_acc, low, cof, size, d, bits, p, p - 1)
            assert (rem, acc) == (ref_rem, ref_acc)
            size = d - 1
        assert rem == 0
        assert max(acc_counts) == n
        assert acc == _pack([c * term for c in acc_counts], width, code)
        assert all(c * term <= chain_bound(p, n) for c in acc_counts)
        if k == 1:
            got = _unpack(reduce(acc), n, width, code)
            assert all(0 <= r < 3 * p and (r - n * term) % p == 0 for r in got)
        # The cascade over the same steps, stored as an analysis stores them.
        chain = (values, steps, [cof] * len(steps), width, code, p)
        assert fold_chain(*chain, len(steps)) == stripped(reference_fold_chain(*chain))

    @pytest.mark.parametrize("p", [3, 13, 65521, 2**61 - 1])
    def test_stored_slots_lie_below_3p(self, p):
        field = PrimeField(p)
        rng = random.Random(f"stored:{p}")
        for shape in [{}] * 10 + [{"gcd_degree": (3, 8), "cofactor_degree": (20, 40)}] * 3:
            chain = random_moduli_pair(field, rng, **shape).chain
            width, code = chain.layout
            for (n, low, neg_inv, lead), cof in zip(chain.steps, chain.cofs, strict=True):
                assert 0 < lead < p and (lead * neg_inv + 1) % p == 0
                assert low.bit_length() <= (n - 1) * 8 * width
                slots = list(_unpack(low, n - 1, width, code))
                slots += _unpack(cof, -(-cof.bit_length() // (8 * width)), width, code)
                assert all(0 <= s < 3 * p for s in slots)


# The pass and the cascade against the digit-at-a-time folds: 2**61 - 1 has
# joined slots wider than a machine word (no struct code).
FOLD_PRIMES = (3, 13, 65521, 2**61 - 1, 2**64 - 59)

# Degrees deg(a) >= deg(b) > deg(r_2) > ... that a pair's Euclid remainders
# start with.  A drop of d is a pass step of d + 1 digits and a cascade step
# of d; (60, 3) has more digits than its divisor has coefficients, and
# (5, 0) a constant divisor.  The rest give pass steps of one window, a
# window and a digit, and two windows and a digit (WINDOW_EDGES) by
# divisors of 1, 2 and 40 coefficients; in the three-degree ones the
# cascade's step by the last divisor takes one window.
WINDOW_EDGES = (_STEP_WINDOW, _STEP_WINDOW + 1, 2 * _STEP_WINDOW + 1)
REMAINDER_DEGREES = [
    (12, 12, 11, 8, 7, 3),
    (40, 38, 35, 34, 30, 29, 25, 24, 1),
    (33, 30, 26, 21, 20, 19, 15, 2),
    (60, 3),
    (9, 1),
    (5, 0),
    (2, 1, 0),
    *((e + k - 1, e) for e in (0, 1, 39) for k in WINDOW_EDGES),
    *((e + 3 * _STEP_WINDOW, e + _STEP_WINDOW, e) for e in (0, 1, 39)),
]


def random_poly(p, degree, rng):
    """A random polynomial over F_p of the given degree."""
    return Polynomial(FIELDS[p], [rng.randrange(p) for _ in range(degree)] + [rng.randrange(1, p)])


def remainder_pair(p, degrees, rng):
    """Coefficient tuples ``(a, b)`` whose Euclid remainders have ``degrees``.

    From the last two up, each ``r_{i-2}`` is ``q * r_{i-1} + r_i`` for a
    random ``q`` of degree ``deg(r_{i-2}) - deg(r_{i-1})``; the pass goes on
    past the last as the remainders of random polynomials do.
    """
    rs = [random_poly(p, degrees[-2], rng), random_poly(p, degrees[-1], rng)]
    for degree in reversed(degrees[:-2]):
        rs.insert(0, random_poly(p, degree - rs[0].degree, rng) * rs[0] + rs[1])
    assert [r.degree for r in rs] == list(degrees)
    return rs[0].coeffs, rs[1].coeffs


def random_pairs(p, rng):
    """Pairs with the remainder degrees above, and random pairs of random lengths."""
    for degrees in REMAINDER_DEGREES:
        yield remainder_pair(p, degrees, rng)
    for _ in range(6):
        n = rng.randrange(1, 50)
        a = [rng.randrange(p) for _ in range(n + rng.randrange(0, 20))]
        b = [rng.randrange(p) for _ in range(n)]
        a[-1], b[-1] = rng.randrange(1, p), rng.randrange(1, p)
        yield tuple(a), tuple(b)


def fold_euclid_lists(a, b, p):
    """The rows of :func:`_fold_euclid` as ``reference_fold_euclid`` returns them.

    ``(width, code, steps, cofs, s_N)``: the steps and cofactors as lists
    and ``s_N``, the last row's cofactor left behind, reduced mod p.  Each
    other row's cofactor left behind is the next row's cofactor.
    """
    width, code, reduce = _chain_layout(p, len(a))
    steps, cofs, after = zip(*_fold_euclid(a, b, p, width, code, reduce))
    assert after[:-1] == cofs[1:]
    return width, code, list(steps), list(cofs), [c % p for c in _unpack(after[-1], len(b), width, code)]


def cascade_inputs(size, n, rng, p):
    """Inputs longer than a step of n coefficients by 1, 2, n and n + 1 digits, up to ``size``."""
    for k in sorted({1, 2, n, n + 1}):
        if n - 1 + k <= size:
            yield tuple(rng.randrange(p) for _ in range(n - 1 + k))


class TestAgainstDigitFolds:
    @pytest.mark.parametrize("p", FOLD_PRIMES)
    def test_euclid_pass(self, p):
        # Each step adds the same terms to the same slots as the per-digit
        # folds, so the packed steps, cofactors and s_N are equal as ints.
        rng = random.Random(f"pass:{p}")
        digits, shapes = set(), set()
        for a, b in random_pairs(p, rng):
            got = fold_euclid_lists(a, b, p)
            assert got == reference_fold_euclid(a, b, p)
            n0 = len(a)
            for n, _, _, _ in got[2]:
                digits.add(n0 - n + 1)
                shapes.add((n0 - n + 1, n))
                n0 = n
        assert {1, 2, 3, 4, 5, 6} <= digits and max(digits) > 50
        assert {(k, n) for k in WINDOW_EDGES for n in (1, 2, 40)} <= shapes

    @pytest.mark.parametrize("p", FOLD_PRIMES)
    def test_cascade_over_pass_chains(self, p):
        rng = random.Random(f"cascade:{p}")
        for a, b in random_pairs(p, rng):
            width, code, steps, cofs, _ = fold_euclid_lists(a, b, p)
            for start in sorted({0, 1, len(steps) // 2, len(steps) - 1} & {*range(len(steps))}):
                for stop in sorted({start, start + 1, len(steps)}):
                    part = (steps[start:stop], cofs[start:stop], width, code, p)
                    n = steps[start][0]
                    inputs = [(), (rng.randrange(1, p),), a, *cascade_inputs(len(a), n, rng, p)]
                    rest = (steps[start:], cofs[start:], width, code, p, stop - start)
                    for v in inputs:
                        assert fold_chain(v, *rest) == stripped(reference_fold_chain(v, *part))

    def test_long_steps_take_windows(self, monkeypatch):
        # A spy on the step kernel: every digit of the pass and of the
        # cascade over degrees 3,000 and 2 is found by a call of at most
        # _STEP_WINDOW digits, a window, and the halving that leads to the
        # windows nests at most log2(k / _STEP_WINDOW) + 2 calls deep.
        field, rng = FIELDS[65521], random.Random("windows")
        m = random_poly(65521, 1, rng)
        an = analyze_pair(m * random_poly(65521, 1, rng), m * random_poly(65521, 2999, rng))
        v = random_poly(65521, 2999, rng)
        kernel, calls, depth = kronecker._neg_quotient, [], [0]

        def spy(rem, size, low, n, *rest):
            calls.append((depth[0], size - n + 1))
            depth[0] += 1
            try:
                return kernel(rem, size, low, n, *rest)
            finally:
                depth[0] -= 1

        pair = ErroneousResiduePair(Polynomial(field), -v, an)
        monkeypatch.setattr(kronecker, "_neg_quotient", spy)
        for run, args in ((gcd, (an.m2, an.m1)), (reconstruct, (pair, an.K + 1))):
            calls.clear()
            run(*args)
            longest = max(k for d, k in calls if d == 0)
            assert longest >= 2998
            found = sum(k for d, k in calls if k <= _STEP_WINDOW)
            assert found == sum(k for d, k in calls if d == 0)
            depth_bound = math.ceil(math.log2(longest / _STEP_WINDOW)) + 2
            assert max(d for d, k in calls) + 1 <= depth_bound

    @pytest.mark.parametrize("p", FOLD_PRIMES)
    def test_hand_built_chains(self, p):
        # A constant step ends the cascade with an empty tail.  The chain
        # takes no cofactor more or fewer than its moduli and no zero step.
        # No decode passes it an input longer than it was packed for: the
        # residue pairs reject one first (test_poly.py, TestReduceChain).
        field, rng = FIELDS[p], random.Random(f"hand:{p}")
        size = 24
        for degrees in ([9, 7, 4, 0], [5, 0], [0], [12, 11, 10, 1]):
            moduli = [random_poly(p, d, rng) for d in degrees]
            cofactors = [random_poly(p, rng.randrange(0, 8), rng) for _ in degrees]
            chain = pack_chain(field, moduli, cofactors, size)
            part = (chain.steps, chain.cofs, *chain.layout, p)
            for v in [(), *cascade_inputs(size, degrees[0] + 1, rng, p), (1,) * size]:
                want = stripped(reference_fold_chain(v, *part))
                assert fold_chain(v, *part, len(chain.steps)) == want
            with pytest.raises(ValueError):
                pack_chain(field, moduli, cofactors[:-1], size)
        zero = Polynomial(field)
        moduli = [random_poly(p, 6, rng), zero, random_poly(p, 2, rng)]
        cofactors = [random_poly(p, 1, rng), zero, random_poly(p, 3, rng)]
        with pytest.raises(ValueError):
            pack_chain(field, moduli, cofactors, size)
