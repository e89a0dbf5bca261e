import random

import pytest

from polycrt import (
    Branch,
    DegreeOutOfRangeError,
    ErroneousResiduePair,
    LevelOutOfRangeError,
    MixedFieldsError,
    Polynomial,
    PrimeField,
    analyze_pair,
    classify,
    encode,
    gcd,
    random_moduli_pair,
    reconstruct,
    xgcd,
)
from polycrt.kronecker import _STEP_WINDOW
from polycrt.simulation import sample_error, sample_monic, sample_polynomial

from conftest import REF_A, difference_window_violations, enumerate_polynomials, poly
from reference_decoder import pack_chain, reference_gcd, reference_xgcd, two_row_reconstruct


def corrupted_pair(analysis, residues, e1, e2):
    r1 = (residues.a1 + e1) % analysis.m1
    r2 = (residues.a2 + e2) % analysis.m2
    return ErroneousResiduePair(r1, r2, analysis)


def cascade_tail(v, analysis, level):
    """The decoder's cascade tail for ``q21 = v``, from residues ``r1 = 0`` and ``r2 = -v``."""
    return reconstruct(ErroneousResiduePair(Polynomial(v.field), -v, analysis), level).cascade_tail


def divmod_cascade(v, analysis, level):
    """``v mod m1 mod m*sigma_1 ... mod m*sigma_level``, one ``divmod`` per step."""
    for step in (analysis.m1,) + analysis.cascade_moduli[:level]:
        v = divmod(v, step)[1]
    return v


class TestRemainderCascade:
    def test_reference_chain_values(self, f2, reference_pair):
        q21 = poly(f2, "x^7+x^5+x^4+1")
        assert cascade_tail(q21, reference_pair, 1) == poly(f2, "x^4+1")
        assert cascade_tail(q21, reference_pair, 2) == poly(f2, "x^4+1")
        assert cascade_tail(q21, reference_pair, 3) == poly(f2, "x^2+1")

    def test_zero_input(self, f2, reference_pair):
        assert cascade_tail(Polynomial(f2), reference_pair, 4).is_zero

    def test_small_input_unchanged(self, f2, reference_pair):
        # Below every step modulus degree, all reductions are vacuous.
        v = poly(f2, "x+1")
        assert cascade_tail(v, reference_pair, 4) == v

    @pytest.mark.parametrize(
        "p, gcd_degree, cofactor_degree",
        [(2, (16, 16), (200, 201)), (13, (4, 6), (10, 14)), (65521, (3, 5), (8, 12))],
    )
    def test_matches_step_by_step_divmod_at_every_level(self, p, gcd_degree, cofactor_degree):
        field = PrimeField(p)
        rng = random.Random(f"cascade:{p}")
        analysis = random_moduli_pair(field, rng, gcd_degree, cofactor_degree)
        if p == 2:
            assert analysis.K > 100
        inputs = [sample_polynomial(analysis.m1.degree, field, rng) for _ in range(2)]
        # Up to degree deg(m2) - 1, which step 0 reduces by m1 when deg(m1) < deg(m2).
        inputs += [sample_polynomial(analysis.m2.degree, field, rng) for _ in range(2)]
        inputs += [Polynomial(field, [0] * (analysis.m2.degree - 1) + [1])]
        inputs += [Polynomial(field, [p - 1] * analysis.m2.degree), Polynomial(field)]
        for level in range(1, analysis.K + 2):
            for v in inputs:
                assert cascade_tail(v, analysis, level) == divmod_cascade(v, analysis, level)

    @pytest.mark.parametrize("p", [2, 13, 65521])
    def test_inputs_longer_than_m2(self, p):
        # A residue r2 as long as m2 or longer is rejected, so q21 stays
        # below deg(m2); the longest q21 runs every step.
        field = PrimeField(p)
        rng = random.Random(f"long-cascade:{p}")
        analysis = random_moduli_pair(field, rng, (3, 6), (8, 12))
        top = analysis.m2.degree
        for degree in (top, top + 1, 3 * top):
            with pytest.raises(DegreeOutOfRangeError):
                cascade_tail(Polynomial(field, [0] * degree + [1]), analysis, 1)
        v = sample_polynomial(top - 1, field, rng) + Polynomial(field, [0] * (top - 1) + [1])
        for level in (1, analysis.K + 1):
            assert cascade_tail(v, analysis, level) == divmod_cascade(v, analysis, level)

    def test_rejects_other_field_and_levels_outside_the_range(self, f2, f13, reference_pair):
        with pytest.raises(MixedFieldsError):
            cascade_tail(poly(f13, "x^9+x+1"), reference_pair, 1)
        v = poly(f2, "x^9+x+1")
        for level in (0, reference_pair.K + 2):
            with pytest.raises(LevelOutOfRangeError):
                cascade_tail(v, reference_pair, level)

    def test_zero_step_modulus_raises_instead_of_looping(self, f2, reference_pair):
        # analyze_pair never builds one, and no chain can be built with one,
        # so no analysis holds a zero step for a decode to loop on.
        an = reference_pair
        zero = Polynomial(f2)
        with pytest.raises(ValueError):
            pack_chain(
                f2, (an.m1,) + (zero,) * (an.K + 1), (zero,) + an.cascade_cofactors,
                an.m2.degree + 1,
            )


class TestClassify:
    def test_reference_difference_is_folded(self, f2, reference_pair):
        # deg(m1) = 8 > 7 = deg(q21) >= deg(m) + deg(sigma_3) = 3.
        assert classify(poly(f2, "x^7+x^5+x^4+1"), reference_pair, 3) is Branch.FOLDED_DIFFERENCE

    def test_zero_difference_means_equal_residues(self, f2, reference_pair):
        assert classify(Polynomial(f2), reference_pair, 3) is Branch.EQUAL_RESIDUES

    @pytest.mark.parametrize("deg", [8, 9, 10])
    def test_large_difference(self, deg, f2, reference_pair):
        # Reachable degrees above deg(m1): a2 may reach degree 10 < deg(m2).
        q21 = poly(f2, f"x^{deg}")
        assert classify(q21, reference_pair, 3) is Branch.LARGE_RESIDUE

    def test_thresholds_are_sharp(self, f2, reference_pair):
        assert classify(poly(f2, "x^2"), reference_pair, 3) is Branch.EQUAL_RESIDUES
        assert classify(poly(f2, "x^3"), reference_pair, 3) is Branch.FOLDED_DIFFERENCE
        assert classify(poly(f2, "x^7"), reference_pair, 3) is Branch.FOLDED_DIFFERENCE
        assert classify(poly(f2, "x^8"), reference_pair, 3) is Branch.LARGE_RESIDUE


class TestReconstruct:
    def test_reference_decode(self, f2, reference_pair):
        pair = ErroneousResiduePair(poly(f2, "x^7"), poly(f2, "x^5+x^4+1"), reference_pair)
        result = reconstruct(pair, 3)
        assert result.branch is Branch.FOLDED_DIFFERENCE
        assert result.q21 == poly(f2, "x^7+x^5+x^4+1")
        assert result.cascade_tail == poly(f2, "x^2+1")
        assert result.k2_hat == poly(f2, "x^4")
        assert result.a_hat == poly(f2, "x^15+x^11+x^7+x^6+1")
        residual = result.a_hat - poly(f2, REF_A)
        assert residual.degree == 1

    def test_equal_residues_return_r2(self, f2, reference_pair):
        r = poly(f2, "x^5+x^3+1")
        result = reconstruct(ErroneousResiduePair(r, r, reference_pair), 3)
        assert result.branch is Branch.EQUAL_RESIDUES
        assert result.k2_hat.is_zero
        assert result.a_hat == r
        assert result.cascade_tail.is_zero

    def test_equal_residues_tail_is_the_difference(self, f2, reference_pair):
        # deg(q21) = 1 is below the level-3 bound 3: the cascade leaves q21.
        r2 = poly(f2, "x^5+x^3+1")
        pair = ErroneousResiduePair(r2 + poly(f2, "x"), r2, reference_pair)
        result = reconstruct(pair, 3)
        assert result.branch is Branch.EQUAL_RESIDUES
        assert result.k2_hat.is_zero
        assert result.cascade_tail == poly(f2, "x")

    def test_result_identity_always_holds(self, f13):
        rng = random.Random(14)
        for _ in range(50):
            analysis = random_moduli_pair(f13, rng)
            level = rng.randint(1, analysis.K + 1)
            r1 = sample_polynomial(analysis.m1.degree, f13, rng)
            r2 = sample_polynomial(analysis.m2.degree, f13, rng)
            result = reconstruct(ErroneousResiduePair(r1, r2, analysis), level)
            assert result.k2_hat * analysis.m2 + r2 == result.a_hat

    def test_level_validation(self, f2, reference_pair):
        pair = ErroneousResiduePair(Polynomial(f2), Polynomial(f2), reference_pair)
        with pytest.raises(LevelOutOfRangeError):
            reconstruct(pair, 0)
        with pytest.raises(LevelOutOfRangeError):
            reconstruct(pair, 5)

    def test_residue_degrees_validated(self, f2, reference_pair):
        with pytest.raises(DegreeOutOfRangeError):
            ErroneousResiduePair(poly(f2, "x^8"), Polynomial(f2), reference_pair)

    def test_exhaustive_micro_oracle(self, f2, micro_pair):
        # Every message in range, every error pair within tau = 1: the
        # folding polynomial is recovered exactly and the residual is e2.
        spec = micro_pair.level_spec(1)
        errors = list(enumerate_polynomials(f2, 2))
        for a in enumerate_polynomials(f2, spec.dynamic_range_exclusive):
            residues, witness = encode(a, micro_pair)
            for e1 in errors:
                for e2 in errors:
                    pair = corrupted_pair(micro_pair, residues, e1, e2)
                    result = reconstruct(pair, 1)
                    assert result.k2_hat == witness.k2
                    assert result.a_hat - a == e2

    def test_guarantee_on_random_pairs(self, f2, f13):
        rng = random.Random(15)
        for field in (f2, f13):
            for _ in range(10):
                analysis = random_moduli_pair(field, rng)
                for level in range(1, analysis.K + 2):
                    spec = analysis.level_spec(level)
                    tau = spec.error_bound_exclusive - 1
                    for _ in range(10):
                        a = sample_polynomial(spec.dynamic_range_exclusive, field, rng)
                        e1 = sample_error(tau, field, rng)
                        e2 = sample_error(tau, field, rng)
                        residues, witness = encode(a, analysis)
                        pair = corrupted_pair(analysis, residues, e1, e2)
                        result = reconstruct(pair, level)
                        assert result.k2_hat == witness.k2
                        assert result.a_hat - a == e2
                        assert (result.a_hat - a).degree <= tau

    def test_guarantee_at_large_f2_degree(self, f2):
        # gcd degree 256, cofactors 512/513: moduli of degree 768/769.
        rng = random.Random(16)
        analysis = random_moduli_pair(
            f2, rng, gcd_degree=(256, 256), cofactor_degree=(512, 513)
        )
        assert analysis.m.degree == 256 and analysis.K > 100
        top = analysis.K + 1
        for level in (1, 2, top // 2, top - 1, top):
            spec = analysis.level_spec(level)
            tau = spec.error_bound_exclusive - 1
            for _ in range(3):
                a = sample_polynomial(spec.dynamic_range_exclusive, f2, rng)
                e1 = sample_error(tau, f2, rng)
                e2 = sample_error(tau, f2, rng)
                residues, witness = encode(a, analysis)
                result = reconstruct(corrupted_pair(analysis, residues, e1, e2), level)
                assert result.k2_hat == witness.k2
                assert result.a_hat - a == e2


def assert_bounds_are_tight(analysis):
    """One degree past either bound of every level, a closed-form input decodes wrong.

    The message ``x^R_i`` with clean residues, ``R_i`` the level's range,
    and the error ``e1 = x^A_i`` on ``a = 0`` (so ``k2 = 0``), ``A_i`` the
    level's error bound.  At level ``K + 1`` the range is ``deg(lcm)``, so
    ``encode`` rejects the message.
    """
    field = analysis.field
    zero = Polynomial(field)
    for level in range(1, analysis.K + 2):
        spec = analysis.level_spec(level)
        a = Polynomial(field, [0] * spec.dynamic_range_exclusive + [1])
        if level <= analysis.K:
            residues, witness = encode(a, analysis)
            pair = ErroneousResiduePair(residues.a1, residues.a2, analysis)
            assert reconstruct(pair, level).k2_hat != witness.k2
        else:
            with pytest.raises(DegreeOutOfRangeError):
                encode(a, analysis)
        e1 = Polynomial(field, [0] * spec.error_bound_exclusive + [1])
        assert not reconstruct(ErroneousResiduePair(e1, zero, analysis), level).k2_hat.is_zero


class TestBoundsAreTight:
    def test_reference_pair(self, reference_pair):
        assert_bounds_are_tight(reference_pair)

    @pytest.mark.parametrize("p", [2, 3, 13, 65521, 2**61 - 1])
    def test_random_pairs(self, p):
        rng = random.Random(f"tight:{p}")
        for _ in range(3):
            assert_bounds_are_tight(random_moduli_pair(PrimeField(p), rng, (1, 4), (4, 10)))


def assert_witnesses_hold(analysis, rng):
    """The witness of every step, read off the stored chain, with its identities and trial.

    Step ``j`` is ``m*sigma_j`` with Bezout cofactor ``s_j``, so ``d_j =
    m*sigma_j - s_j*m2`` (``t_j*m1``) has residues ``(0, m*sigma_j)`` and
    degree ``R_{j-1}``, the range one level down, with ``R_0 = deg(m2)``.
    So a message ``a`` below ``R_j`` under ``e2 = m*sigma_j``, one degree
    past level ``j``'s error bound, and ``a + d_j`` under no error give the
    same received pair: no decoder is right on both, and this one returns
    ``a + d_j``.
    """
    field, m1, m2 = analysis.field, analysis.m1, analysis.m2
    ranges = [m2.degree] + [spec.dynamic_range_exclusive for spec in analysis.levels]
    steps = zip(analysis.cascade_moduli, analysis.cascade_cofactors)
    for j, (step, cofactor) in enumerate(steps, start=1):
        d = step - cofactor * m2
        assert (d % m1).is_zero
        assert d % m2 == step
        assert d.degree == ranges[j - 1]
        a = sample_polynomial(ranges[j], field, rng)
        residues, _ = encode(a, analysis)
        received = ErroneousResiduePair(residues.a1, residues.a2 + step, analysis)
        clean, _ = encode(a + d, analysis)
        assert (clean.a1, clean.a2) == (received.r1, received.r2)
        assert reconstruct(received, j).a_hat == a + d


class TestWitnesses:
    def test_reference_pair(self, reference_pair):
        assert_witnesses_hold(reference_pair, random.Random("witness"))

    @pytest.mark.parametrize("p", [2, 13, 2**61 - 1])
    def test_random_pairs(self, p):
        rng = random.Random(f"witness:{p}")
        for _ in range(4):
            assert_witnesses_hold(random_moduli_pair(PrimeField(p), rng, (1, 4), (3, 10)), rng)


class TestLinearity:
    """``reconstruct`` is F_p-linear in ``(r1, r2)``, so a few decodes certify it on a pair.

    Every output but the branch is linear: ``q21``, the cascade's remainder
    and weighted quotient sum, and ``a_hat = k2_hat * m2 + r2``.  Decoding
    ``x^j`` and ``(p - 1) * x^j`` in each residue, and dense residues as the
    sum of their coefficients' images, catches a slot that carries into its
    neighbour.  2**61 - 1 and 2**64 - 59 have slots wider than a machine
    word.
    """

    @pytest.mark.parametrize("p", [2, 13, 65521, 2**61 - 1, 2**64 - 59])
    def test_every_level_is_linear_in_the_residues(self, p):
        field = PrimeField(p)
        rng = random.Random(f"linear:{p}")
        an = random_moduli_pair(field, rng, (3, 6), (10, 14))
        zero = Polynomial(field)

        def decode(r1, r2, level):
            got = reconstruct(ErroneousResiduePair(r1, r2, an), level)
            return got.q21, got.cascade_tail, got.k2_hat, got.a_hat

        moduli = (an.m1, an.m2)
        dense = [tuple(sample_polynomial(m.degree, field, rng) for m in moduli) for _ in range(3)]
        dense.append(tuple(Polynomial(field, [p - 1] * m.degree) for m in moduli))
        for level in range(1, an.K + 2):
            images = []
            for side, modulus in enumerate(moduli):
                images.append([])
                for j in range(modulus.degree):
                    unit = [zero, zero]
                    unit[side] = Polynomial(field, [0] * j + [1])
                    image = decode(*unit, level)
                    unit[side] = Polynomial(field, [0] * j + [p - 1])
                    assert decode(*unit, level) == tuple(-v for v in image)
                    images[side].append(image)
            for pair in dense:
                want = [zero] * 4
                for r, side_images in zip(pair, images):
                    for c, image in zip(r.coeffs, side_images):
                        scalar = Polynomial(field, [c])
                        want = [w + scalar * v for w, v in zip(want, image)]
                assert decode(*pair, level) == tuple(want)


def decoder_inputs(an, level, rng):
    """Residue pairs to decode at ``level``.

    Messages inside the level's range with errors inside and at the bound,
    one anywhere below deg(lcm) with errors past it, then residues that no
    message has.
    """
    field, spec = an.m1.field, an.level_spec(level)
    bound = spec.error_bound_exclusive
    pairs = []
    for length, tau in (
        (spec.dynamic_range_exclusive, bound - 1),
        (spec.dynamic_range_exclusive, bound),
        (an.lcm.degree, bound + 1),
    ):
        a = sample_polynomial(length, field, rng)
        e1, e2 = (sample_error(tau, field, rng) for _ in range(2))
        residues, _ = encode(a, an)
        pairs.append(corrupted_pair(an, residues, e1, e2))
    r1, r2 = (sample_polynomial(m.degree, field, rng) for m in (an.m1, an.m2))
    return pairs + [ErroneousResiduePair(r1, r2, an)]


class TestTwoRowDecoder:
    """``reconstruct`` against rounding in two Euclid rows, which shares no code with it."""

    @pytest.mark.parametrize("p", [2, 3, 13, 65521, 1048573, 2**61 - 1])
    def test_matches_reconstruct_inside_and_outside_the_bounds(self, p):
        field = PrimeField(p)
        rng = random.Random(f"two-row:{p}")
        for shape in [((1, 4), (1, 6))] * 6 + [((3, 6), (10, 14))]:
            an = random_moduli_pair(field, rng, *shape)
            for level in range(1, an.K + 2):
                for pair in decoder_inputs(an, level, rng):
                    got = reconstruct(pair, level)
                    assert two_row_reconstruct(pair, level) == (got.k2_hat, got.a_hat)


class TestLopsidedPairs:
    """Odd-p pairs whose pass and cascade take steps of several windows of digits."""

    @pytest.mark.parametrize("p", [13, 65521, 2**61 - 1])
    def test_decodes_match_the_references_at_every_level(self, p):
        field = PrimeField(p)
        rng = random.Random(f"lopsided:{p}")
        for short, long in ((1, 70), (2, 100), (1, 100), (2, 70)):
            m = sample_monic(rng.randint(1, 6), field, rng)
            c1, c2 = sample_monic(short, field, rng), sample_monic(long, field, rng)
            while gcd(c1, c2).degree:
                c1 = sample_monic(short, field, rng)
            an = analyze_pair(m * c1, m * c2)
            assert an.m2.degree - an.m1.degree + 1 > 2 * _STEP_WINDOW
            inputs = [sample_polynomial(an.m2.degree, field, rng) for _ in range(2)]
            inputs += [Polynomial(field, [p - 1] * an.m2.degree)]
            for level in range(1, an.K + 2):
                for pair in decoder_inputs(an, level, rng):
                    got = reconstruct(pair, level)
                    assert two_row_reconstruct(pair, level) == (got.k2_hat, got.a_hat)
                for v in inputs:
                    assert cascade_tail(v, an, level) == divmod_cascade(v, an, level)

    @pytest.mark.parametrize("p", [13, 65521, 2**61 - 1])
    def test_gcd_and_xgcd_over_degrees_3000_and_2(self, p):
        field = PrimeField(p)
        rng = random.Random(f"lopsided-gcd:{p}")
        m = sample_monic(1, field, rng)
        shared = (m * sample_monic(2999, field, rng), m * sample_monic(1, field, rng))
        for a, b in [(sample_monic(3000, field, rng), sample_monic(2, field, rng)), shared]:
            for x, y in ((a, b), (b, a)):
                assert gcd(x, y) == reference_gcd(x, y)
                assert xgcd(x, y) == reference_xgcd(x, y)
        assert gcd(*shared).degree >= 1


class TestFullRangeReconstruct:
    def test_recovers_full_range_with_small_errors(self, f2, reference_pair):
        rng = random.Random(16)
        for _ in range(200):
            a = sample_polynomial(17, f2, rng)
            e1 = sample_error(1, f2, rng)
            e2 = sample_error(1, f2, rng)
            residues, witness = encode(a, reference_pair)
            pair = corrupted_pair(reference_pair, residues, e1, e2)
            result = reconstruct(pair, reference_pair.K + 1)
            assert result.k2_hat == witness.k2
            assert result.a_hat - a == e2

    def test_zero_errors_reconstruct_exactly(self, f2, reference_pair):
        rng = random.Random(17)
        for _ in range(100):
            a = sample_polynomial(17, f2, rng)
            residues, _ = encode(a, reference_pair)
            pair = ErroneousResiduePair(residues.a1, residues.a2, reference_pair)
            assert reconstruct(pair, reference_pair.K + 1).a_hat == a


class TestStructuralProperties:
    def test_clean_difference_window(self, f2, micro_pair, reference_pair):
        # Clean residues that differ while a2 stays below deg(m1) have their
        # difference degree inside [deg(m) + deg(sigma_i), deg(m1)).
        for analysis, level in ((micro_pair, 1), (reference_pair, 1)):
            assert difference_window_violations(analysis, level) == []

    def test_branch_reflects_clean_residue_relation(self, f2, micro_pair):
        # With in-bound errors, the branch matches the clean residues: the
        # folded branch implies differing residues below deg(m1), the large
        # branch implies deg(a2) >= deg(m1), the equal branch implies a1 == a2.
        spec = micro_pair.level_spec(1)
        errors = list(enumerate_polynomials(f2, 2))
        for a in enumerate_polynomials(f2, spec.dynamic_range_exclusive):
            residues, _ = encode(a, micro_pair)
            a1, a2 = residues.a1, residues.a2
            clean_branch = classify(a1 - a2, micro_pair, 1)
            for e1 in errors:
                for e2 in errors:
                    pair = corrupted_pair(micro_pair, residues, e1, e2)
                    branch = classify(pair.r1 - pair.r2, micro_pair, 1)
                    assert branch is clean_branch
                    if branch is Branch.FOLDED_DIFFERENCE:
                        assert a1 != a2 and a2.degree < micro_pair.m1.degree
                    elif branch is Branch.LARGE_RESIDUE:
                        assert a2.degree >= micro_pair.m1.degree
                    else:
                        assert a1 == a2

    def test_cascade_vanishes_on_clean_folded_difference(self, f2, micro_pair, reference_pair):
        for analysis in (micro_pair, reference_pair):
            for level in range(1, analysis.K + 2):
                spec = analysis.level_spec(level)
                bound = min(2 ** spec.dynamic_range_exclusive, 4096)
                count = 0
                for a in enumerate_polynomials(f2, spec.dynamic_range_exclusive):
                    count += 1
                    if count > bound:
                        break
                    residues, _ = encode(a, analysis)
                    diff = residues.a1 - residues.a2
                    if classify(diff, analysis, level) is Branch.FOLDED_DIFFERENCE:
                        pair = ErroneousResiduePair(residues.a1, residues.a2, analysis)
                        assert reconstruct(pair, level).cascade_tail.is_zero
