import random
import time

import pytest

from polycrt import DivisionByZeroError, MixedFieldsError, Polynomial, PrimeField


class TestConstruction:
    def test_small_primes_accepted(self):
        for p in (2, 3, 5, 7, 13, 101):
            assert PrimeField(p).p == p

    @pytest.mark.parametrize("bad", [0, 1, 4, 9, 15, 2**10, -7])
    def test_composites_rejected(self, bad):
        with pytest.raises(ValueError):
            PrimeField(bad)

    def test_large_prime_builds_quickly(self):
        # Trial division up to sqrt(p) ~ 1.5e9 would run for minutes.
        start = time.perf_counter()
        assert PrimeField(2**61 - 1).p == 2**61 - 1
        assert PrimeField(2**64 - 59).p == 2**64 - 59
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize(
        "bad",
        [561, 1105, 3215031751, 2152302898747, 3825123056546413051, (2**31 - 1) ** 2],
    )
    def test_pseudoprimes_and_large_composites_rejected(self, bad):
        # Carmichael numbers and strong pseudoprimes to the first few bases.
        with pytest.raises(ValueError, match="prime"):
            PrimeField(bad)

    @pytest.mark.parametrize("big", [2**64, 2**64 + 13, 2**89 - 1])
    def test_characteristic_cap(self, big):
        with pytest.raises(ValueError, match="below 2"):
            PrimeField(big)

    def test_equality_is_by_characteristic(self):
        assert PrimeField(7) == PrimeField(7)
        assert PrimeField(7) != PrimeField(5)
        assert PrimeField(2) != 2
        assert hash(PrimeField(7)) == hash(PrimeField(7))


def const(field, c):
    return Polynomial(field, [c])


class TestArithmetic:
    # Field elements are ints in [0, p); F_p arithmetic on them is the
    # arithmetic of degree-0 polynomials.

    def test_addition(self, f2, f7):
        assert const(f2, 1) + const(f2, 1) == const(f2, 0)
        assert const(f7, 5) + const(f7, 4) == const(f7, 2)
        assert const(f2, 0) + const(f2, 1) == const(f2, 1)

    def test_multiplication(self, f2, f7):
        assert const(f2, 1) * const(f2, 1) == const(f2, 1)
        assert const(f7, 3) * const(f7, 5) == const(f7, 1)
        f5 = PrimeField(5)
        assert const(f5, 2) * const(f5, 0) == const(f5, 0)

    def test_multiplication_table_mod7(self, f7):
        for a in range(7):
            for b in range(7):
                assert const(f7, a) * const(f7, b) == const(f7, a * b)

    def test_negation_and_subtraction(self, f2, f7):
        assert -const(f2, 1) == const(f2, 1)
        assert -const(f7, 3) == const(f7, 4)
        assert const(f7, 2) - const(f7, 5) == const(f7, 4)

    def test_inverse_known_values(self, f2, f7, f13):
        assert f2.inv(1) == 1
        assert f7.inv(3) == 5
        assert f13.inv(2) == 7

    def test_inverse_of_zero_raises(self, f7):
        with pytest.raises(DivisionByZeroError):
            f7.inv(0)
        with pytest.raises(DivisionByZeroError):
            f7.inv(14)

    def test_division(self, f7):
        a, b = const(f7, 3), const(f7, 5)
        assert (a // b) * b == a


class TestMixedFields:
    def test_binary_operations_reject_mixed_fields(self, f2, f7):
        a, b = const(f2, 1), const(f7, 1)
        for op in (lambda: a + b, lambda: a - b, lambda: a * b, lambda: a // b):
            with pytest.raises(MixedFieldsError):
                op()

    def test_same_characteristic_instances_interoperate(self):
        a = const(PrimeField(7), 3)
        b = const(PrimeField(7), 5)
        assert a * b == const(PrimeField(7), 1)


class TestAxioms:
    @pytest.mark.parametrize("p", [2, 7, 13])
    def test_field_axioms_on_random_triples(self, p):
        field = PrimeField(p)
        rng = random.Random(p)
        for _ in range(200):
            a = const(field, rng.randrange(p))
            b = const(field, rng.randrange(p))
            c = const(field, rng.randrange(p))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a + b == b + a
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 31, 97, 101])
    def test_inverse_matches_exhaustive_search(self, p):
        field = PrimeField(p)
        for a in range(1, p):
            expected = next(b for b in range(1, p) if (a * b) % p == 1)
            assert field.inv(a) == expected
            assert a * field.inv(a) % p == 1
