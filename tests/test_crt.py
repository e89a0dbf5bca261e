import pickle
import random

import pytest

import polycrt.crt
from polycrt import (
    DegreeOutOfRangeError,
    ErroneousResiduePair,
    InconsistentResiduesError,
    MixedFieldsError,
    Polynomial,
    ResiduePair,
    crt_pair,
    encode,
    random_moduli_pair,
)
from polycrt.simulation import sample_polynomial

from conftest import REF_A, enumerate_polynomials, poly


class TestEncode:
    def test_reference_values(self, f2, reference_pair):
        a = poly(f2, REF_A)
        residues, witness = encode(a, reference_pair)
        assert residues.a1 == poly(f2, "x^7+x^2+x+1")
        assert residues.a2 == poly(f2, "x^5+x^4+x+1")
        assert witness.k2 == poly(f2, "x^4")

    def test_folding_identity(self, f2, reference_pair):
        a = poly(f2, REF_A)
        residues, witness = encode(a, reference_pair)
        assert witness.k1 * reference_pair.m1 + residues.a1 == a
        assert witness.k2 * reference_pair.m2 + residues.a2 == a

    def test_zero_polynomial(self, f2, reference_pair):
        residues, witness = encode(Polynomial(f2), reference_pair)
        assert residues.a1.is_zero and residues.a2.is_zero
        assert witness.k1.is_zero and witness.k2.is_zero

    def test_no_folding_below_first_modulus(self, f2, reference_pair):
        a = poly(f2, "x^5+x^3+1")
        residues, witness = encode(a, reference_pair)
        assert residues.a1 == a and residues.a2 == a
        assert witness.k1.is_zero and witness.k2.is_zero

    def test_degree_at_lcm_rejected(self, f2, reference_pair):
        with pytest.raises(DegreeOutOfRangeError):
            encode(poly(f2, "x^17"), reference_pair)

    def test_other_field_rejected(self, f13, reference_pair):
        with pytest.raises(MixedFieldsError):
            encode(poly(f13, "x+1"), reference_pair)

    def test_residue_pair_validates_degrees(self, f2, reference_pair):
        with pytest.raises(DegreeOutOfRangeError):
            ResiduePair(poly(f2, "x^8"), Polynomial(f2), reference_pair)
        with pytest.raises(DegreeOutOfRangeError):
            ResiduePair(Polynomial(f2), poly(f2, "x^11"), reference_pair)

    def test_encode_builds_its_pair_without_the_residue_check(
        self, f2, reference_pair, monkeypatch
    ):
        # encode's residues are below their moduli by construction, so it
        # skips the check that a ResiduePair built by a caller still runs.
        residues, _ = encode(poly(f2, REF_A), reference_pair)
        built = ResiduePair(residues.a1, residues.a2, reference_pair)
        assert residues == built and hash(residues) == hash(built)
        assert pickle.loads(pickle.dumps(residues)) == built

        def refuse(*args):
            raise AssertionError("residue check ran")

        monkeypatch.setattr(polycrt.crt, "_check_residues", refuse)
        assert encode(poly(f2, REF_A), reference_pair)[0] == built
        with pytest.raises(AssertionError, match="residue check ran"):
            ResiduePair(residues.a1, residues.a2, reference_pair)

    @pytest.mark.parametrize("pair_type, letter", [(ResiduePair, "a"), (ErroneousResiduePair, "r")])
    def test_residue_check_order_and_messages(self, pair_type, letter, f2, f13, reference_pair):
        # Fields are checked before degrees, and the first residue before the second.
        big1, big2, ok = poly(f2, "x^9"), poly(f2, "x^12"), poly(f2, "x")
        for args, message in (
            ((big1, big2), f"deg({letter}1) = 9 not below deg(m1) = 8"),
            ((ok, big2), f"deg({letter}2) = 12 not below deg(m2) = 11"),
            ((big1, ok), f"deg({letter}1) = 9 not below deg(m1) = 8"),
        ):
            with pytest.raises(DegreeOutOfRangeError) as info:
                pair_type(*args, reference_pair)
            assert str(info.value) == message
        for args in ((big1, poly(f13, "x")), (poly(f13, "x^20"), big2)):
            with pytest.raises(MixedFieldsError, match="residues must live in the moduli's field"):
                pair_type(*args, reference_pair)

    @pytest.mark.parametrize("pair_type", [ResiduePair, ErroneousResiduePair])
    def test_residue_pairs_reject_other_fields(self, pair_type, f2, f13, reference_pair):
        x2, x13 = poly(f2, "x"), poly(f13, "x")
        for x1, x2_ in ((x13, x2), (x2, x13)):
            with pytest.raises(MixedFieldsError):
                pair_type(x1, x2_, reference_pair)


class TestConsistency:
    # Residues are consistent when they agree modulo the gcd m.
    def test_clean_residues_consistent(self, f2, reference_pair):
        residues, _ = encode(poly(f2, REF_A), reference_pair)
        assert ((residues.a1 - residues.a2) % reference_pair.m).is_zero

    def test_scalar_disagreement_detected(self, f2, reference_pair):
        pair = ResiduePair(Polynomial(f2), poly(f2, "1"), reference_pair)
        assert not ((pair.a1 - pair.a2) % reference_pair.m).is_zero

    def test_any_encoded_polynomial_consistent(self, f2, reference_pair):
        rng = random.Random(11)
        for _ in range(100):
            a = sample_polynomial(17, f2, rng)
            residues, _ = encode(a, reference_pair)
            assert ((residues.a1 - residues.a2) % reference_pair.m).is_zero


class TestCrtPair:
    def test_reference_round_trip(self, f2, reference_pair):
        a = poly(f2, REF_A)
        residues, _ = encode(a, reference_pair)
        assert crt_pair(residues) == a

    def test_scalar_residues(self, f13):
        analysis = random_moduli_pair(f13, random.Random(2))
        c = poly(f13, "5")
        assert crt_pair(ResiduePair(c, c, analysis)) == c

    def test_inconsistent_residues_raise(self, f2, reference_pair):
        pair = ResiduePair(Polynomial(f2), poly(f2, "1"), reference_pair)
        with pytest.raises(InconsistentResiduesError):
            crt_pair(pair)

    def test_exhaustive_round_trip_micro_pair(self, f2, micro_pair):
        # All p^deg(lcm) polynomials below the lcm degree round-trip exactly.
        seen = {}
        for a in enumerate_polynomials(f2, micro_pair.lcm.degree):
            residues, _ = encode(a, micro_pair)
            assert crt_pair(residues) == a
            key = (residues.a1.coeffs, residues.a2.coeffs)
            assert key not in seen, "distinct polynomials share a residue pair"
            seen[key] = a

    def test_random_round_trips_mod13(self, f13):
        rng = random.Random(21)
        for _ in range(20):
            analysis = random_moduli_pair(f13, rng)
            for _ in range(10):
                a = sample_polynomial(analysis.lcm.degree, f13, rng)
                residues, _ = encode(a, analysis)
                assert crt_pair(residues) == a

    def test_recovered_k2_satisfies_cofactor_identity(self, f13):
        # k2 * gamma2 - k1 * gamma1 == (a1 - a2) / m for the encode witness.
        rng = random.Random(31)
        for _ in range(50):
            analysis = random_moduli_pair(f13, rng)
            a = sample_polynomial(analysis.lcm.degree, f13, rng)
            residues, witness = encode(a, analysis)
            lhs = witness.k2 * analysis.gamma2 - witness.k1 * analysis.gamma1
            assert lhs * analysis.m == residues.a1 - residues.a2
            assert crt_pair(residues) == a
