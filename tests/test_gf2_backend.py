"""Differential tests: the packed F_2 kernels against the dense kernels at p = 2.

Over F_2, ``Polynomial`` arithmetic runs on packed ints.  The dense
schoolbook kernels still run every odd p, and called directly with p = 2
they are the reference here.  Inputs cover zero, scalars, ``x^k``, divisors
longer than the dividend and degrees at 30/64-bit word edges up to 1100.
"""

import random
import sys
import threading

import pytest
from hypothesis import example, given, settings, strategies as st

from polycrt import (
    NEG_INF,
    DivisionByZeroError,
    MixedFieldsError,
    Polynomial,
    PrimeField,
    gcd,
    parse_polynomial,
    xgcd,
)
from polycrt.gf2 import _clbyte_table, _cldivmod, _clmul, _cltable_divmod, _cltable_mul, _is_byte_table
from polycrt.kronecker import _dense_add, _dense_divmod, _dense_sub
from polycrt.poly import _from_bits

from reference_decoder import schoolbook_mul

F2 = PrimeField(2)
ZERO = Polynomial(F2)
ONE = Polynomial(F2, (1,))

EDGE_DEGREES = (-1, 0, 1, 29, 30, 31, 59, 60, 63, 64, 65, 127, 128, 129, 255, 256, 1100)

DIFFERENTIAL = settings(derandomize=True, database=None, max_examples=60, deadline=None)


@st.composite
def f2_polys(draw, max_degree=1100):
    """A polynomial over F_2: zero, x^k, all-ones or random below a top bit."""
    degree = draw(
        st.one_of(
            st.sampled_from([d for d in EDGE_DEGREES if d <= max_degree]),
            st.integers(0, min(max_degree, 200)),
        )
    )
    if degree < 0:
        return ZERO
    shape = draw(st.sampled_from(("monomial", "all_ones", "random")))
    if shape == "monomial":
        low = 0
    elif shape == "all_ones":
        low = (1 << degree) - 1
    else:
        low = draw(st.integers(0, (1 << degree) - 1))
    bits = (1 << degree) | low
    return Polynomial(F2, ((bits >> i) & 1 for i in range(degree + 1)))


def random_f2(degree, seed):
    rng = random.Random(seed)
    return Polynomial(F2, [rng.randrange(2) for _ in range(degree)] + [1])


# Explicit large cases, so every run covers degree 1100 and a 1100-bit quotient.
BIG_A, BIG_B = random_f2(1100, 1), random_f2(1037, 2)
BIG_PRODUCT = BIG_A * BIG_B + random_f2(900, 3)
BIG_G, BIG_U, BIG_V = random_f2(400, 4), random_f2(700, 5), random_f2(699, 6)


# The dense kernels at p = 2, wrapped as Polynomial operations.


def dense_add(a, b):
    return Polynomial(F2, _dense_add(2, a.coeffs, b.coeffs))


def dense_sub(a, b):
    return Polynomial(F2, _dense_sub(2, a.coeffs, b.coeffs))


def dense_mul(a, b):
    return Polynomial(F2, schoolbook_mul(a.coeffs, b.coeffs, 2))


def dense_divmod(a, b):
    if len(a.coeffs) < len(b.coeffs):
        return ZERO, a
    quot, rem = _dense_divmod(a.coeffs, b.coeffs, 2, 1)
    return Polynomial(F2, quot), Polynomial(F2, rem)


def dense_xgcd(a, b):
    """Extended Euclid on the dense kernels; over F_2 every gcd is monic."""
    r0, r1, s0, s1, t0, t1 = a, b, ONE, ZERO, ZERO, ONE
    while r1:
        q, r = dense_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, dense_sub(s0, dense_mul(q, s1))
        t0, t1 = t1, dense_sub(t0, dense_mul(q, t1))
    return r0, s0, t0


def assert_canonical(result):
    """A kernel-built result is indistinguishable from a constructed one."""
    rebuilt = Polynomial(F2, result.coeffs)
    parsed = parse_polynomial(str(result), F2)
    assert result == rebuilt == parsed
    assert hash(result) == hash(rebuilt) == hash(parsed)
    assert isinstance(result.coeffs, tuple)
    assert not result.coeffs or result.coeffs[-1] == 1
    assert set(result.coeffs) <= {0, 1}
    assert list(result) == list(rebuilt)


class TestAgainstDenseKernels:
    @DIFFERENTIAL
    @given(f2_polys(), f2_polys())
    @example(BIG_A, BIG_B)
    def test_add_sub(self, a, b):
        assert a + b == dense_add(a, b)
        assert a - b == dense_sub(a, b)
        assert -a == a == a._scale(3)
        assert a._scale(2) == ZERO
        for result in (a + b, -a, a._scale(3), a._scale(2)):
            assert_canonical(result)

    @DIFFERENTIAL
    @given(f2_polys(), f2_polys())
    @example(BIG_A, BIG_B)
    def test_mul(self, a, b):
        product = a * b
        assert product == dense_mul(a, b)
        assert_canonical(product)

    @DIFFERENTIAL
    @given(f2_polys(), f2_polys())
    @example(BIG_PRODUCT, BIG_B)
    @example(BIG_PRODUCT, BIG_A)
    @example(BIG_B, BIG_A)
    def test_divmod(self, a, b):
        if b.is_zero:
            return
        q, r = divmod(a, b)
        assert (q, r) == dense_divmod(a, b)
        assert r.degree < b.degree
        assert_canonical(q)
        assert_canonical(r)

    @DIFFERENTIAL
    @given(f2_polys(), f2_polys())
    @example(BIG_PRODUCT, BIG_B)
    @example(BIG_PRODUCT, BIG_A)
    @example(BIG_B, BIG_A)
    @example(BIG_A, BIG_B)
    def test_mod(self, a, b):
        if b.is_zero:
            return
        r = a % b
        assert r == divmod(a, b)[1] == dense_divmod(a, b)[1]
        assert_canonical(r)

    @DIFFERENTIAL
    @given(f2_polys(max_degree=256), f2_polys(max_degree=256), f2_polys(max_degree=256))
    @example(BIG_G, BIG_U, BIG_V)
    def test_gcd_xgcd_with_common_factor(self, g, u, v):
        a, b = dense_mul(g, u), dense_mul(g, v)
        if a.is_zero and b.is_zero:
            return
        expected = dense_xgcd(a, b)
        assert xgcd(a, b) == expected
        assert gcd(a, b) == expected[0]
        for part in expected:
            assert_canonical(part)


class TestByteTables:
    """Division and product through a modulus's byte table, eight bits per step."""

    @pytest.mark.parametrize("degree", [*range(1, 10), 15, 16, 17, 63, 64, 65, 300])
    def test_against_the_bit_and_dense_kernels(self, degree):
        # Dividends of every length up to 2 * degree + 24 bits, so quotients
        # of every length from 0 to degree + 24, multiples of 8 and not: the
        # lengths of an encode by this modulus paired with one up to 24
        # degrees longer.  Moduli random, all-ones and x^degree.
        rng = random.Random(f"byte-table:{degree}")
        for b in (1 << degree | rng.getrandbits(degree), (2 << degree) - 1, 1 << degree):
            table = _clbyte_table(b)
            mults, tops = table
            assert _is_byte_table(b, table)
            for length in range(2 * degree + 25):
                for a in ((1 << length >> 1) | rng.getrandbits(length), (1 << length) - 1):
                    quot, rem = _cltable_divmod(mults, tops, a)
                    product = _cltable_mul(a, mults)
                    assert (quot, rem) == _cldivmod(a, b)
                    assert product == _clmul(a, b)
                    if degree <= 17:
                        a_poly, b_poly = _from_bits(F2, a), _from_bits(F2, b)
                        assert (_from_bits(F2, quot), _from_bits(F2, rem)) == dense_divmod(a_poly, b_poly)
                        assert _from_bits(F2, product) == dense_mul(a_poly, b_poly)

    @DIFFERENTIAL
    @given(f2_polys(), f2_polys())
    @example(BIG_PRODUCT, BIG_B)
    @example(BIG_PRODUCT, BIG_A)
    @example(ZERO, BIG_B)
    def test_against_dense_divmod_and_mul(self, a, b):
        if b.is_zero:
            return
        mults, tops = _clbyte_table(b._value)
        quot, rem = _cltable_divmod(mults, tops, a._value)
        assert (_from_bits(F2, quot), _from_bits(F2, rem)) == dense_divmod(a, b)
        assert _from_bits(F2, _cltable_mul(a._value, mults)) == dense_mul(a, b)


class TestParserCapByFingerprint:
    """The bit and byte-table kernels at the parser's cap, checked in O(n) by a fingerprint."""

    def test_product_and_division_of_65536_by_32768_bits(self):
        # The fingerprint of v is v mod f for a random f of degree 32 with
        # constant term 1, by Horner over 32-bit chunks; products and sums
        # of fingerprints are taken by the loops below, not by the kernels.
        rng = random.Random("parser-cap fingerprint")
        f = 1 << 32 | rng.getrandbits(32) | 1

        def mod_f(v):
            while v.bit_length() > 32:
                v ^= f << (v.bit_length() - 33)
            return v

        def fingerprint(v):
            out, data = 0, v.to_bytes(-(-v.bit_length() // 32) * 4, "big")
            for at in range(0, len(data), 4):
                out = mod_f(out << 32 ^ int.from_bytes(data[at:at + 4], "big"))
            return out

        def times(x, y):
            out = 0
            for i in range(y.bit_length()):
                if y >> i & 1:
                    out ^= x << i
            return mod_f(out)

        a = 1 << 65535 | rng.getrandbits(65535)
        b = 1 << 32767 | rng.getrandbits(32767) | 1
        fa, fb = fingerprint(a), fingerprint(b)
        product = _clmul(a, b)
        assert product.bit_length() == 65536 + 32768 - 1
        assert fingerprint(product) == times(fa, fb)
        quot, rem = _cldivmod(a, b)
        assert rem.bit_length() < b.bit_length()
        assert quot.bit_length() == 65536 - 32768 + 1
        assert fingerprint(a) == times(fingerprint(quot), fb) ^ fingerprint(rem)
        mults, tops = _clbyte_table(b)
        assert _cltable_divmod(mults, tops, a) == (quot, rem)
        assert _cltable_mul(a, mults) == product
        # f has constant term 1, so it divides no single bit: a one-bit
        # error is always caught.
        assert fingerprint(product ^ 1 << 60000) != times(fa, fb)


class TestWordEdges:
    @pytest.mark.parametrize("n", [62, 63, 64, 65, 127, 128, 1100])
    def test_divisor_longer_than_dividend(self, n):
        a = Polynomial(F2, [1] * n)
        b = Polynomial(F2, [0] * n + [1])
        assert divmod(a, b) == (ZERO, a)

    @pytest.mark.parametrize("k", [63, 64, 65, 127, 128, 1100])
    def test_monomial_products_and_quotients(self, k):
        xk = Polynomial(F2, [0] * k + [1])
        x1 = Polynomial(F2, (0, 1))
        assert xk * x1 == Polynomial(F2, [0] * (k + 1) + [1])
        assert divmod(xk * xk + ONE, xk) == (xk, ONE)
        assert (xk + ONE) * (xk + ONE) == xk * xk + ONE


class TestValueSemantics:
    def test_kernel_results_are_immutable(self):
        a = parse_polynomial("x^70+x^3+1", F2)
        results = [a + a, a * a, *divmod(a * a + ONE, a)]
        for result in results:
            for name in ("coeffs", "field", "_value"):
                with pytest.raises(AttributeError):
                    setattr(result, name, None)

    def test_parsed_and_kernel_built_share_hash_slots(self):
        a = parse_polynomial("x^64+x+1", F2)
        b = parse_polynomial("x^63+1", F2)
        table = {a * b: "product"}
        assert table[parse_polynomial(str(a * b), F2)] == "product"
        assert table[Polynomial(F2, (a * b).coeffs)] == "product"

    def test_distinct_f2_instances_interoperate(self):
        other = PrimeField(2)
        assert other is not F2
        a = parse_polynomial("x^64+x+1", F2)
        b = parse_polynomial("x^64+x+1", other)
        c = parse_polynomial("x^3+1", other)
        assert a == b and hash(a) == hash(b)
        assert a + c == b + c == c + a
        assert a * c == b * c == c * a
        assert divmod(a, c) == divmod(b, c)
        assert {a: "a"}[b] == "a"

    def test_f2_and_f3_do_not_mix(self):
        f3 = PrimeField(3)
        a = parse_polynomial("x^2+1", F2)
        b = parse_polynomial("x^2+1", f3)
        assert (a == b) is False and (b == a) is False
        assert a != b
        for op in (lambda: a + b, lambda: b - a, lambda: a * b, lambda: divmod(b, a)):
            with pytest.raises(MixedFieldsError):
                op()

    def test_mod_checks_divisor_and_field(self):
        a = parse_polynomial("x^70+x^3+1", F2)
        with pytest.raises(DivisionByZeroError):
            a % ZERO
        with pytest.raises(DivisionByZeroError):
            ZERO % ZERO
        with pytest.raises(MixedFieldsError):
            a % parse_polynomial("x^2+1", PrimeField(3))

    def test_kernel_coeffs_are_read_only_tuples(self):
        a = parse_polynomial("x^70+x^3+1", F2)
        for r in (a + ONE, a * a, *divmod(a * a + ONE, a)):
            assert isinstance(r.coeffs, tuple)
            with pytest.raises(AttributeError):
                r.coeffs = (1,)

    @pytest.mark.parametrize("k", [None, 0, 63, 64, 1100])
    def test_structure_matches_rebuild(self, k):
        x1 = Polynomial(F2, (0, 1))
        # Kernel-built: a product for x^k, a difference for zero.
        if k is None:
            r = x1 - x1
        elif k == 0:
            r = ONE * ONE
        else:
            r = Polynomial(F2, [0] * (k - 1) + [1]) * x1
        rebuilt = Polynomial(F2, r.coeffs)
        assert r.degree == rebuilt.degree == (NEG_INF if k is None else k)
        assert r.lead == rebuilt.lead
        assert r.is_zero == rebuilt.is_zero == (k is None)
        assert bool(r) == bool(rebuilt) == (k is not None)

    def test_concurrent_first_reads_of_coeffs_agree(self):
        base = parse_polynomial("x^300+x^77+x+1", F2)
        results = [base * Polynomial(F2, [1] * k + [1]) for k in range(200)]
        expected = [dense_mul(base, Polynomial(F2, [1] * k + [1])).coeffs for k in range(200)]
        seen = [[] for _ in range(8)]

        def reader(out):
            for r in results:
                out.append(r.coeffs)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader, args=(out,)) for out in seen]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for out in seen:
            assert out == expected
        assert [r.coeffs for r in results] == expected
