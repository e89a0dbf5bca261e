"""The one-pass analysis, the one-formula decoder, exact CRT and gcd/xgcd/lcm against references."""

import dataclasses
import random

import pytest

from polycrt import (
    BothZeroError,
    Branch,
    ErroneousResiduePair,
    InconsistentResiduesError,
    Polynomial,
    PrimeField,
    ResiduePair,
    ZeroInputError,
    analyze_pair,
    crt_pair,
    encode,
    gcd,
    lcm,
    random_moduli_pair,
    reconstruct,
    xgcd,
)
from polycrt.simulation import sample_error, sample_monic, sample_polynomial

from reference_decoder import (
    reference_analyze_pair,
    reference_crt_pair,
    reference_gcd,
    reference_lcm,
    reference_reconstruct,
    reference_xgcd,
)


# Redraws of a cofactor before a test gives up on finding one coprime to
# the other: a broken gcd fails the test instead of hanging the run.
_MAX_COFACTOR_DRAWS = 200


def _coprime_cofactors(degree1, degree2, field, rng):
    """Monic cofactors of the given degrees, redrawing the second until their gcd is 1."""
    cof1 = sample_monic(degree1, field, rng)
    for _ in range(_MAX_COFACTOR_DRAWS):
        cof2 = sample_monic(degree2, field, rng)
        if gcd(cof1, cof2).degree == 0:
            return cof1, cof2
    pytest.fail(f"no coprime cofactor in {_MAX_COFACTOR_DRAWS} draws")


def _assert_matches_reference(pair, level):
    got = reconstruct(pair, level)
    want = reference_reconstruct(pair, level)
    if want.branch is Branch.EQUAL_RESIDUES:
        # The reference reports a zero tail; the formula's cascade leaves
        # q21 itself.
        assert want.cascade_tail.is_zero
        want = dataclasses.replace(want, cascade_tail=want.q21)
    assert got == want
    return got


def _assert_crt_matches_reference(pair):
    """crt_pair against the closed formula; both raise exactly when the residues differ mod m."""
    try:
        want = reference_crt_pair(pair)
    except InconsistentResiduesError as exc:
        with pytest.raises(InconsistentResiduesError) as got:
            crt_pair(pair)
        assert str(got.value) == str(exc)
        assert not ((pair.a1 - pair.a2) % pair.moduli.m).is_zero
        return False
    assert crt_pair(pair) == want
    assert ((pair.a1 - pair.a2) % pair.moduli.m).is_zero
    return True


@pytest.mark.parametrize("p", [2, 3, 13, 65521, 1048573, 2**61 - 1])
def test_matches_reference(p):
    field = PrimeField(p)
    rng, crt_rng = random.Random(f"differential:{p}"), random.Random(f"crt:{p}")
    seen, verdicts = set(), set()
    # Moduli of equal degree make clean residues of folded difference; the
    # last pair has them for sure.
    for cofactor_degree in [(1, 6)] * 25 + [(3, 3)]:
        analysis = random_moduli_pair(field, rng, (1, 4), cofactor_degree)
        # Both input orders, and non-monic multiples of the moduli.
        c1, c2 = (Polynomial(field, [rng.randrange(1, p)]) for _ in range(2))
        m1, m2 = analysis.m1, analysis.m2
        for x, y in ((m1, m2), (m2, m1), (c1 * m1, c2 * m2)):
            got, want = analyze_pair(x, y), reference_analyze_pair(x, y)
            assert got == want and hash(got) == hash(want)
            # lcm is derived, so equality leaves it out; check it apart.
            assert got.lcm == reference_lcm(x, y)
            # Equality leaves the packed chain out; compare what it stores.
            assert got.cascade_moduli == want.cascade_moduli
            assert got.cascade_cofactors == want.cascade_cofactors
            # Nor does it compare the rows, which the reference reads off
            # its own sigma chain and lcm.
            assert got.levels == want.levels
        # Encoded residues, and random ones (mostly inconsistent, always at
        # large p), drawn apart from the decoder cases below.
        for _ in range(3):
            a = sample_polynomial(analysis.lcm.degree, field, crt_rng)
            residues, _ = encode(a, analysis)
            assert _assert_crt_matches_reference(residues)
            r1, r2 = (sample_polynomial(m.degree, field, crt_rng) for m in (m1, m2))
            verdicts.add(_assert_crt_matches_reference(ResiduePair(r1, r2, analysis)))
        for level in range(1, analysis.K + 2):
            spec = analysis.level_spec(level)
            bound = spec.error_bound_exclusive
            for tau in (bound - 1, bound, bound + 1):
                for _ in range(4):
                    a = sample_polynomial(spec.dynamic_range_exclusive, field, rng)
                    e1 = sample_error(tau, field, rng)
                    e2 = sample_error(tau, field, rng)
                    residues, _ = encode(a, analysis)
                    pair = ErroneousResiduePair(
                        (residues.a1 + e1) % analysis.m1,
                        (residues.a2 + e2) % analysis.m2,
                        analysis,
                    )
                    seen.add(_assert_matches_reference(pair, level).branch)
            # A message below deg(m1) has equal clean residues, which random
            # messages at large p never have.
            a = sample_polynomial(analysis.m1.degree, field, rng)
            e1, e2 = (sample_error(bound - 1, field, rng) for _ in range(2))
            residues, _ = encode(a, analysis)
            pair = ErroneousResiduePair(residues.a1 + e1, residues.a2 + e2, analysis)
            seen.add(_assert_matches_reference(pair, level).branch)
    assert seen == set(Branch)
    assert False in verdicts


def test_large_pair_at_p2_every_level():
    # Cofactors of degrees 144 and 145 give K of about 70 over F_2 (a random
    # Euclid step there drops the degree by 2 on average), so the quotients
    # of the cascade span many bits and k2_hat sums long shifted cofactors.
    field = PrimeField(2)
    rng = random.Random("differential:2-large")
    shared = sample_monic(40, field, rng)
    cof1, cof2 = _coprime_cofactors(144, 145, field, rng)
    m1, m2 = shared * cof1, shared * cof2
    analysis = analyze_pair(m1, m2)
    reference = reference_analyze_pair(m1, m2)
    assert analysis == reference and analysis.lcm == reference_lcm(m1, m2)
    assert analysis.levels == reference.levels
    assert analysis.cascade_moduli == reference.cascade_moduli
    assert analysis.cascade_cofactors == reference.cascade_cofactors
    assert analysis.K >= 60
    # encode divides through the analysis's byte tables, which every
    # construction derives from the moduli.
    assert None not in analysis.tables
    assert analysis.tables == reference.tables
    seen = set()
    for level in range(1, analysis.K + 2):
        spec = analysis.level_spec(level)
        bound = spec.error_bound_exclusive
        # A message below deg(m1) has equal clean residues.
        for tau, length in (
            (bound - 1, spec.dynamic_range_exclusive),
            (bound - 1, analysis.m1.degree),
            (bound, spec.dynamic_range_exclusive),
            (bound + 1, spec.dynamic_range_exclusive),
        ):
            a = sample_polynomial(length, field, rng)
            e1 = sample_error(tau, field, rng)
            e2 = sample_error(tau, field, rng)
            residues, witness = encode(a, analysis)
            assert (witness.k1, residues.a1) == divmod(a, analysis.m1)
            assert (witness.k2, residues.a2) == divmod(a, analysis.m2)
            pair = ErroneousResiduePair(
                (residues.a1 + e1) % analysis.m1, (residues.a2 + e2) % analysis.m2, analysis
            )
            got = _assert_matches_reference(pair, level)
            seen.add(got.branch)
            if tau < bound:
                assert got.k2_hat == witness.k2
                assert got.a_hat - a == e2
        # Residues with no encoded message behind them.
        pair = ErroneousResiduePair(
            sample_polynomial(analysis.m1.degree, field, rng),
            sample_polynomial(analysis.m2.degree, field, rng),
            analysis,
        )
        seen.add(_assert_matches_reference(pair, level).branch)
    assert seen == set(Branch)
    a = sample_polynomial(analysis.lcm.degree, field, rng)
    residues, _ = encode(a, analysis)
    assert _assert_crt_matches_reference(residues) and crt_pair(residues) == a


def test_large_pair_at_p65521():
    # Long enough that analyze_pair and encode divide by division steps over
    # several windows: gcd degree 64, cofactors of degrees 128 and 129.
    field = PrimeField(65521)
    rng = random.Random("differential:65521")
    shared = sample_monic(64, field, rng)
    cof1, cof2 = _coprime_cofactors(128, 129, field, rng)
    m1, m2 = shared * cof1, shared * cof2
    analysis = analyze_pair(m2, m1)
    reference = reference_analyze_pair(m2, m1)
    assert analysis == reference and analysis.lcm == reference_lcm(m2, m1)
    assert analysis.levels == reference.levels
    assert analysis.cascade_moduli == reference.cascade_moduli
    assert analysis.cascade_cofactors == reference.cascade_cofactors
    assert analysis.swapped and analysis.K > 100
    for level in (1, 2, analysis.K // 2, analysis.K + 1):
        spec = analysis.level_spec(level)
        a = sample_polynomial(spec.dynamic_range_exclusive, field, rng)
        e1 = sample_error(spec.error_bound_exclusive - 1, field, rng)
        e2 = sample_error(spec.error_bound_exclusive - 1, field, rng)
        residues, witness = encode(a, analysis)
        pair = ErroneousResiduePair(
            (residues.a1 + e1) % analysis.m1, (residues.a2 + e2) % analysis.m2, analysis
        )
        got = reconstruct(pair, level)
        assert got == reference_reconstruct(pair, level)
        assert got.k2_hat == witness.k2
        assert got.a_hat - a == e2
        assert _assert_crt_matches_reference(residues) and crt_pair(residues) == a


def _outcome(fn, a, b):
    """``fn(a, b)``, or the type and message of the zero-input error it raises."""
    try:
        return fn(a, b)
    except (BothZeroError, ZeroInputError) as exc:
        return type(exc), str(exc)


def _euclid_cases(field, rng):
    """Operand pairs for gcd/xgcd/lcm: random pairs sharing a factor, then edge cases.

    Every operand has a random nonzero lead, so a result that is not made
    monic differs from the reference at odd p.
    """

    def draw(degree):
        return sample_monic(degree, field, rng) * Polynomial(field, [rng.randrange(1, field.p)])

    zero = Polynomial(field)
    # (gcd degree, cofactor degrees): tiny, equal degrees, and the bench shape.
    for shared, d1, d2 in ((0, 1, 2), (1, 3, 4), (2, 5, 5), (8, 16, 17), (64, 128, 129)):
        m = draw(shared)
        a, b = m * draw(d1), m * draw(d2)
        yield from ((a, b), (b, a))
    c, d = draw(0), draw(0)
    yield from (
        (a, a), (a, c * a), (a * b, b), (b, a * b), (c, a), (a, c), (c, d),
        (a, zero), (zero, a), (c, zero), (zero, zero),
    )


@pytest.mark.parametrize("p", [2, 3, 13, 65521, 1048573, 2**61 - 1])
def test_gcd_xgcd_lcm_match_reference(p):
    field = PrimeField(p)
    rng = random.Random(f"differential-euclid:{p}")
    for a, b in _euclid_cases(field, rng):
        assert _outcome(gcd, a, b) == _outcome(reference_gcd, a, b)
        assert _outcome(xgcd, a, b) == _outcome(reference_xgcd, a, b)
        assert _outcome(lcm, a, b) == _outcome(reference_lcm, a, b)
        if a.is_zero and b.is_zero:
            continue
        g, s, t = xgcd(a, b)
        assert s * a + t * b == g and g.lead == 1
        # Reduced cofactors, unless both operands have the degree of the gcd.
        if max(a.degree, b.degree) > g.degree:
            assert s.degree < b.degree - g.degree and t.degree < a.degree - g.degree
