import copy
import pickle
import random

import pytest

from polycrt import (
    NEG_INF,
    BothZeroError,
    DivisionByZeroError,
    MixedFieldsError,
    ParseError,
    Polynomial,
    PrimeField,
    ZeroInputError,
    analyze_pair,
    gcd,
    lcm,
    parse_polynomial,
    xgcd,
)
from polycrt.simulation import enumerate_polynomials

from conftest import REF_M1, REF_M2, poly


def random_poly(field, max_len, rng):
    return Polynomial(field, (rng.randrange(field.p) for _ in range(rng.randint(0, max_len))))


class TestCanonicalForm:
    def test_trailing_zeros_stripped(self, f2):
        assert Polynomial(f2, [1, 1, 0, 0]).coeffs == (1, 1)
        assert Polynomial(f2, [0, 0, 0]).coeffs == ()

    def test_coefficients_reduced_mod_p(self, f7):
        assert Polynomial(f7, [9, -1]).coeffs == (2, 6)

    def test_zero_degree_is_neg_inf(self, f2):
        zero = Polynomial(f2)
        assert zero.degree == NEG_INF
        assert zero.degree < 0
        assert zero.degree + 5 == NEG_INF
        assert Polynomial(f2, [1]).degree == 0


class TestRingOperations:
    def test_known_product(self, f2):
        # (x^2+1)(x^6+x^3+1) over F_2
        left = poly(f2, "x^2+1")
        right = poly(f2, "x^6+x^3+1")
        assert left * right == poly(f2, "x^8+x^6+x^5+x^3+x^2+1")

    def test_char2_self_addition_vanishes(self, f2):
        p = poly(f2, "x+1")
        assert (p + p).is_zero

    def test_product_mod7(self, f7):
        assert poly(f7, "2*x+3") * poly(f7, "3*x+5") == poly(f7, "6*x^2+5*x+1")

    def test_degree_additivity(self, f13):
        rng = random.Random(0)
        for _ in range(200):
            a, b = random_poly(f13, 6, rng), random_poly(f13, 6, rng)
            if a.is_zero or b.is_zero:
                assert (a * b).is_zero
            else:
                assert (a * b).degree == a.degree + b.degree

    def test_sub_and_neg(self, f7):
        a, b = poly(f7, "3*x+1"), poly(f7, "5*x+4")
        assert a - b == a + (-b)
        assert (a - a).is_zero

    def test_mixed_fields_rejected(self, f2, f7):
        with pytest.raises(MixedFieldsError):
            poly(f2, "x") + poly(f7, "x")
        with pytest.raises(MixedFieldsError):
            poly(f2, "x") * poly(f7, "x")


class TestDivision:
    def test_known_remainders(self, f2):
        assert poly(f2, "x^9+x^7+x+1") % poly(f2, "x^6+x^3+1") == poly(f2, "x^4")
        assert poly(f2, "x^6+x^3+1") % poly(f2, "x^4") == poly(f2, "x^3+1")
        assert poly(f2, "x^4") % poly(f2, "x^3+1") == poly(f2, "x")
        assert poly(f2, "x^3+1") % poly(f2, "x") == poly(f2, "1")

    def test_zero_dividend(self, f7):
        q, r = divmod(Polynomial(f7), poly(f7, "x+1"))
        assert q.is_zero and r.is_zero

    def test_small_degree_dividend_unchanged(self, f7):
        a, b = poly(f7, "x+1"), poly(f7, "x^3")
        assert a % b == a
        assert a // b == Polynomial(f7)

    def test_division_by_zero(self, f2):
        with pytest.raises(DivisionByZeroError):
            divmod(poly(f2, "x"), Polynomial(f2))

    @pytest.mark.parametrize("p", [2, 13])
    def test_division_identity_random(self, p):
        field = PrimeField(p)
        rng = random.Random(p)
        for _ in range(300):
            a = random_poly(field, 12, rng)
            b = random_poly(field, 8, rng)
            if b.is_zero:
                continue
            q, r = divmod(a, b)
            assert q * b + r == a
            assert r.degree < b.degree


class TestGcd:
    def test_known_gcds(self, f2):
        m1 = poly(f2, "x^2+1") * poly(f2, "x^6+x^3+1")
        m2 = poly(f2, "x^2+1") * poly(f2, "x^9+x^7+x+1")
        assert gcd(m1, m2) == poly(f2, "x^2+1")
        assert gcd(poly(f2, "x^6+x^3+1"), poly(f2, "x^9+x^7+x+1")) == poly(f2, "1")

    def test_gcd_with_zero_is_monic_other(self, f7):
        a = poly(f7, "3*x^2+3")
        assert gcd(a, Polynomial(f7)) == a.monic()
        assert gcd(Polynomial(f7), a) == a.monic()

    def test_gcd_of_two_zeros_raises(self, f2):
        with pytest.raises(BothZeroError):
            gcd(Polynomial(f2), Polynomial(f2))

    def test_gcd_matches_trial_division_oracle(self, f2):
        # Oracle: the highest-degree monic common divisor found by trial
        # division over all monic polynomials of degree <= 4 over F_2.
        monic_candidates = [
            Polynomial(f2, list(low.coeffs) + [0] * (d - len(low.coeffs)) + [1])
            for d in range(0, 5)
            for low in enumerate_polynomials(f2, d)
        ]
        pool = list(enumerate_polynomials(f2, 5))
        for a in pool:
            for b in pool:
                if a.is_zero and b.is_zero:
                    continue
                g = gcd(a, b)
                divides_both = [
                    c
                    for c in monic_candidates
                    if (a % c).is_zero and (b % c).is_zero
                ]
                best = max(divides_both, key=lambda c: c.degree)
                assert g == best
                for c in divides_both:
                    assert (g % c).is_zero


class TestXgcd:
    def test_cofactor_inverse_of_reference_pair(self, f2):
        gamma1 = poly(f2, "x^6+x^3+1")
        gamma2 = poly(f2, "x^9+x^7+x+1")
        g, s, t = xgcd(gamma1, gamma2)
        assert g == poly(f2, "1")
        assert s * gamma1 + t * gamma2 == g
        assert (t * gamma2) % gamma1 == poly(f2, "1")
        assert t % gamma1 == poly(f2, "x^5")

    def test_xgcd_of_equal_inputs(self, f7):
        a = poly(f7, "3*x^2+1")
        g, s, t = xgcd(a, a)
        assert g == a.monic()
        assert s * a + t * a == g

    def test_xgcd_linear_pair_mod7(self, f7):
        a, b = poly(f7, "x+1"), poly(f7, "x+2")
        g, s, t = xgcd(a, b)
        assert g == poly(f7, "1")
        assert s * a + t * b == g

    @pytest.mark.parametrize("p", [2, 13])
    def test_witness_identity_random(self, p):
        field = PrimeField(p)
        rng = random.Random(100 + p)
        for _ in range(200):
            a, b = random_poly(field, 8, rng), random_poly(field, 8, rng)
            if a.is_zero and b.is_zero:
                continue
            g, s, t = xgcd(a, b)
            assert s * a + t * b == g
            assert g == gcd(a, b)

    def test_xgcd_both_zero_raises(self, f2):
        with pytest.raises(BothZeroError):
            xgcd(Polynomial(f2), Polynomial(f2))


class TestLcm:
    def test_reference_lcm_degree(self, f2):
        m1 = poly(f2, "x^2+1") * poly(f2, "x^6+x^3+1")
        m2 = poly(f2, "x^2+1") * poly(f2, "x^9+x^7+x+1")
        assert lcm(m1, m2).degree == 17

    def test_lcm_of_equal_inputs(self, f7):
        a = poly(f7, "2*x+4")
        assert lcm(a, a) == a.monic()

    def test_lcm_of_coprime_factors(self, f2):
        assert lcm(poly(f2, "x"), poly(f2, "x+1")) == poly(f2, "x^2+x")

    def test_gcd_times_lcm_is_monic_product(self, f13):
        rng = random.Random(77)
        for _ in range(100):
            a, b = random_poly(f13, 6, rng), random_poly(f13, 6, rng)
            if a.is_zero or b.is_zero:
                continue
            assert gcd(a, b) * lcm(a, b) == (a * b).monic()

    def test_lcm_zero_input_raises(self, f2):
        with pytest.raises(ZeroInputError):
            lcm(poly(f2, "x"), Polynomial(f2))


class TestParseFormat:
    def test_known_parse(self, f2, f7):
        assert poly(f2, "x^7+x^2+x+1").coeffs == (1, 1, 1, 0, 0, 0, 0, 1)
        assert poly(f2, "0").is_zero
        assert poly(f7, "3*x^2+5").coeffs == (5, 0, 3)

    def test_coefficient_list_form(self, f7):
        assert poly(f7, "[5,0,3]") == poly(f7, "3*x^2+5")
        assert poly(f7, "[ -1, 8 ]").coeffs == (6, 1)
        assert poly(f7, "[0]").is_zero

    def test_format_examples(self, f2, f7):
        assert str(poly(f2, "x^7+x^2+x+1")) == "x^7+x^2+x+1"
        assert str(Polynomial(f2)) == "0"
        assert str(poly(f7, "3*x^2+5")) == "3*x^2+5"
        assert str(poly(f7, "[0,1]")) == "x"
        assert str(poly(f7, "[0,2]")) == "2*x"
        assert str(poly(f7, "[0,0,1]")) == "x^2"
        assert str(poly(f7, "[5]")) == "5"
        assert str(poly(f7, "[1]")) == "1"

    def test_round_trip_exhaustive_f2(self, f2):
        for a in enumerate_polynomials(f2, 8):
            assert parse_polynomial(str(a), f2) == a

    def test_round_trip_random_mod13(self, f13):
        rng = random.Random(3)
        for _ in range(300):
            a = random_poly(f13, 10, rng)
            assert parse_polynomial(str(a), f13) == a

    def test_lenient_term_order_and_duplicates(self, f2, f7):
        assert poly(f7, "5+3*x^2") == poly(f7, "3*x^2+5")
        assert poly(f2, "x+x").is_zero
        assert poly(f2, " x^2 + 1 ") == poly(f2, "x^2+1")

    @pytest.mark.parametrize(
        "text",
        ["", "   ", "y", "x^", "x+", "+x", "x++1", "3x", "x^2.5", "[", "[]", "[1,]", "[1,a]", "1 2"],
    )
    def test_parse_errors(self, text, f2):
        with pytest.raises(ParseError):
            parse_polynomial(text, f2)

    def test_parse_error_reports_position(self, f2):
        with pytest.raises(ParseError) as info:
            parse_polynomial("x^3+y+1", f2)
        assert info.value.position == 4
        assert "position 4" in str(info.value)

    def test_coefficient_out_of_range_rejected(self, f2):
        with pytest.raises(ParseError):
            parse_polynomial("2*x", f2)
        with pytest.raises(ParseError):
            parse_polynomial("5", PrimeField(5))

    def test_huge_exponent_rejected(self, f2):
        with pytest.raises(ParseError):
            parse_polynomial("x^999999999", f2)


class TestCopyAndPickle:
    @staticmethod
    def cases():
        f2, big = PrimeField(2), PrimeField(65521)
        rng = random.Random(7)
        yield Polynomial(f2)
        yield Polynomial(f2, [0] * 64 + [1])
        yield Polynomial(f2, [rng.randrange(2) for _ in range(1100)] + [1])
        x1 = Polynomial(f2, (0, 1))
        yield Polynomial(f2, [1] * 700) * x1  # kernel-built, coeffs never read
        yield Polynomial(big)
        yield Polynomial(big, [rng.randrange(65521) for _ in range(200)] + [5])

    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy, lambda a: pickle.loads(pickle.dumps(a))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_equal_and_hash_equal(self, clone):
        for a in self.cases():
            b = clone(a)
            assert b == a and hash(b) == hash(a)
            assert b.coeffs == a.coeffs and b.degree == a.degree
            assert (b - a).is_zero

    def test_deepcopy_of_analysis(self, f2):
        analysis = analyze_pair(poly(f2, REF_M1), poly(f2, REF_M2))
        clone = copy.deepcopy(analysis)
        assert clone == analysis
        assert clone.cascade_moduli == analysis.cascade_moduli
        assert clone.sigma == analysis.sigma
