import copy
import pickle
import random
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

import polycrt.poly
from polycrt import (
    NEG_INF,
    BothZeroError,
    DivisionByZeroError,
    ErroneousResiduePair,
    MixedFieldsError,
    ParseError,
    Polynomial,
    PrimeField,
    ResiduePair,
    ZeroInputError,
    analyze_pair,
    gcd,
    lcm,
    parse_polynomial,
    random_moduli_pair,
    reconstruct,
    sample_polynomial,
    xgcd,
)
from polycrt import gf2, kronecker
from polycrt.errors import DegreeOutOfRangeError
from polycrt.gf2 import _clbyte_table
from polycrt.kronecker import _pack
from polycrt.poly import _MAX_PARSE_DEGREE, PackedChain, _from_bits
from conftest import REF_M1, REF_M2, enumerate_polynomials, poly
from reference_decoder import pack_chain


def random_poly(field, max_len, rng):
    return Polynomial(field, (rng.randrange(field.p) for _ in range(rng.randint(0, max_len))))


class TestCanonicalForm:
    def test_trailing_zeros_stripped(self, f2):
        assert Polynomial(f2, [1, 1, 0, 0]).coeffs == (1, 1)
        assert Polynomial(f2, [0, 0, 0]).coeffs == ()

    def test_coefficients_reduced_mod_p(self, f7):
        assert Polynomial(f7, [9, -1]).coeffs == (2, 6)

    @pytest.mark.parametrize("p", [2, 13, 2**61 - 1])
    def test_non_integer_coefficients_rejected(self, p):
        field = PrimeField(p)
        for bad in (1.5, 1.0, Fraction(1, 2), "1"):
            with pytest.raises(TypeError):
                Polynomial(field, [bad, 2])
        # bools and other __index__ types are integers.
        assert Polynomial(field, [True, False, 1]).coeffs == (1, 0, 1)

    def test_non_polynomials_compare_unequal(self, f2):
        one = Polynomial(f2, [1])
        assert (one == 5) is False
        assert (one != "x") is True

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
        with pytest.raises(TypeError, match="expected Polynomial, got int"):
            poly(f2, "x") + 1


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


def chain_reference(v, moduli, cofactors):
    """Step-by-step divmod cascade and the sum of its quotients times the cofactors."""
    total = Polynomial(v.field)
    for step, cofactor in zip(moduli, cofactors):
        q, v = divmod(v, step)
        total = total + q * cofactor
    return v, total


def fold(v, chain, stop):
    """The cascade of ``v`` over steps ``0 .. stop - 1`` of a stored chain, by the field's decode kernel.

    Returns the remainder and the sum of the quotients times the cofactors,
    as polynomials: the ``tail`` and ``k2_hat`` of
    :func:`~polycrt.gf2._decode` over F_2 and
    :func:`~polycrt.kronecker._decode` over odd p, as the decoder runs them.
    The kernel decodes ``r1 = v + r2`` and ``r2 = x + 1`` against ``m2 =
    x^3 + x + 1``, so its ``q21`` must be ``v`` and its ``a_hat`` must be
    ``k2_hat * m2 + r2``.  ``v`` has at most ``chain.size`` coefficients.
    """
    field = chain.field
    m2, r2 = Polynomial(field, [1, 1, 0, 1]), Polynomial(field, [1, 1])
    r1 = v + r2
    if field.p == 2:
        mults2 = _clbyte_table(m2._value)[0]
        out = gf2._decode(chain.layout, chain.index, stop, mults2, r1._value, r2._value)
    else:
        out = kronecker._decode(
            chain.steps, chain.cofs, *chain.layout, field.p, stop, m2._value, r1._value, r2._value
        )
    q21, tail, k2_hat, a_hat = (_from_bits(field, value) for value in out)
    assert q21 == v and a_hat == k2_hat * m2 + r2
    return tail, k2_hat


def reduce_chain(v, moduli, cofactors):
    """:func:`fold` over the chain packed from these steps.

    The chain takes inputs as long as ``v`` or as step 0, whichever is longer.
    """
    chain = pack_chain(v.field, moduli, cofactors, max(len(v.coeffs), len(moduli[0].coeffs)))
    return fold(v, chain, len(moduli))


def random_chain(field, degrees, rng):
    """Moduli of the given degrees and random cofactors of random lengths."""
    moduli = [
        Polynomial(field, [rng.randrange(field.p) for _ in range(d)] + [rng.randrange(1, field.p)])
        for d in degrees
    ]
    return moduli, [random_poly(field, 50, rng) for _ in degrees]


class TestReduceChain:
    """The cascade kernels, through :func:`fold`, against a step-by-step ``divmod`` loop."""

    # 3, 13 and 65521 have one-word slots, and 1048573 has them up to inputs
    # of length 300; 2**31 - 1, 2**61 - 1 and 2**64 - 59 have wider, joined
    # slots.
    PRIMES = [2, 3, 13, 65521, 1048573, 2**31 - 1, 2**61 - 1, 2**64 - 59]

    @pytest.mark.parametrize("p", PRIMES)
    def test_analysis_chains_at_every_level(self, p):
        field = PrimeField(p)
        rng = random.Random(f"chain:{p}")
        for shape in ({}, {"gcd_degree": (3, 6), "cofactor_degree": (20, 30)}):
            for _ in range(4):
                an = random_moduli_pair(field, rng, **shape)
                inputs = [random_poly(field, an.m1.degree, rng) for _ in range(3)]
                inputs += [an.m2, Polynomial(field)]
                # The stored chain: step 0 is m1 with cofactor 0.
                moduli = (an.m1,) + an.cascade_moduli
                cofactors = (Polynomial(field),) + an.cascade_cofactors
                for level in range(1, an.K + 2):
                    for v in inputs:
                        got = fold(v, an.chain, level + 1)
                        assert got == chain_reference(v, moduli[: level + 1], cofactors[: level + 1])

    @pytest.mark.parametrize("p", PRIMES)
    def test_long_quotients_and_degree_gaps(self, p):
        # Degree drops of 2 and more give quotients of several coefficients
        # or bits; a dividend of degree 150 over a divisor of degree 60
        # takes division steps over several windows at odd p.
        field = PrimeField(p)
        rng = random.Random(f"chain-gaps:{p}")
        for degrees in ([60, 57, 50, 49, 20, 3, 0], [100, 40, 39, 10, 1], [5, 4, 2]):
            moduli, cofactors = random_chain(field, degrees, rng)
            for v_len in (0, 1, 30, degrees[0] + 1, 151):
                v = random_poly(field, v_len, rng)
                got = reduce_chain(v, moduli, cofactors)
                assert got == chain_reference(v, moduli, cofactors)

    def test_readme_pair_drops(self, reference_pair):
        # Cascade moduli of degrees 6, 5, 3, 2 (sigma degrees 4, 3, 1, 0).
        an = reference_pair
        assert [c.degree for c in an.cascade_moduli] == [6, 5, 3, 2]
        moduli = (an.m1,) + an.cascade_moduli
        cofactors = (Polynomial(an.field),) + an.cascade_cofactors
        for v in enumerate_polynomials(an.field, an.chain.size):
            got = fold(v, an.chain, an.K + 2)
            assert got == chain_reference(v, moduli, cofactors)

    @pytest.mark.parametrize("p", PRIMES)
    def test_skipped_steps_add_nothing(self, p):
        # After the degree-12 step the remainder is below degree 10, so the
        # degree-10 step is skipped and its cofactor must not show up.
        field = PrimeField(p)
        rng = random.Random(f"chain-skip:{p}")
        moduli, cofactors = random_chain(field, [12, 10, 5], rng)
        cofactors[1] = Polynomial(field, [1, 2, 3])
        low = Polynomial(field, [1, 1])
        v = (random_poly(field, 18, rng) + Polynomial(field, [0] * 18 + [1])) * moduli[0]
        v += random_poly(field, 10, rng)
        got = reduce_chain(v, moduli, cofactors)
        assert got == chain_reference(v, moduli, cofactors)
        assert got == chain_reference(v, moduli[::2], cofactors[::2])
        assert reduce_chain(low, moduli, cofactors) == (low, Polynomial(field))

    @pytest.mark.parametrize("p", PRIMES)
    def test_zero_modulus_raises(self, p):
        # The Euclid pass never stores a zero step, and no chain holds one,
        # so no cascade can divide by zero or loop on it.
        field = PrimeField(p)
        zero, one = Polynomial(field), Polynomial(field, [1])
        for moduli in ((zero,), (Polynomial(field, [0, 1]), zero), (zero, one)):
            with pytest.raises(ValueError):
                pack_chain(field, moduli, (one,) * len(moduli), 3)

    @pytest.mark.parametrize("p", [2, 13])
    def test_steps_must_fall_from_the_input_size(self, p):
        # Rising or repeated degrees and a first step longer than an input
        # are shapes the Euclid pass never builds.  A first step as long as
        # an input is the longest it builds.
        field = PrimeField(p)
        rng = random.Random(f"chain-shape:{p}")
        for degrees in ([3, 5], [4, 4], [6, 2, 2], [5, 1, 3], [8, 7]):
            moduli, cofactors = random_chain(field, degrees, rng)
            with pytest.raises(ValueError):
                pack_chain(field, moduli, cofactors, 8)
        moduli, cofactors = random_chain(field, [7, 4, 0], rng)
        chain = pack_chain(field, moduli, cofactors, 8)
        v = random_poly(field, 8, rng)
        assert fold(v, chain, 3) == chain_reference(v, moduli, cofactors)

    @pytest.mark.parametrize(
        "p, n",
        [(3, 64), (13, 2), (13, 456), (65521, 2), (65521, 300), (1048573, 300), (1048573, 456),
         (2**31 - 1, 5), (2**61 - 1, 65), (2**64 - 59, 2)],
    )
    def test_worst_case_slots(self, p, n):
        # Moduli of lengths n, n - 1, ..., 1 take one quotient digit each, so
        # the cascade has n digits, the most an input of n coefficients
        # allows.  Every modulus and cofactor coefficient below the lead is
        # p - 1, stored as 3p - 1, the most a slot of the chain may hold,
        # every lead is 1, and v is chosen so that every step meets a top
        # coefficient of 1: every quotient is 1, which the fold adds as the
        # digit -1 = p - 1.  So the lowest remainder slot collects n - 1 and
        # the middle sum slot n additions of (p - 1) * (3p - 1).
        field = PrimeField(p)
        moduli = [Polynomial(field, [p - 1] * (n - i) + [1]) for i in range(1, n + 1)]
        cofactors = [Polynomial(field, [p - 1] * n)] * n
        # Step i's top slot holds v[n - i] plus i - 1 additions of
        # (p - 1) * (3p - 1) = 1 (mod p).
        v = Polynomial(field, [j - n + 2 for j in range(n)])
        rem = v
        for step in moduli:
            q, rem = divmod(rem, step)
            assert q == Polynomial(field, [1])
        packed = pack_chain(field, moduli, cofactors, n)

        def raised(x, size):
            # Every slot 2p higher: 3p - 1 in place of p - 1, the same mod p.
            return x + _pack([2 * p] * size, *packed.layout)

        steps = [(k, raised(low, k - 1), neg_inv, lead) for k, low, neg_inv, lead in packed.steps]
        chain = PackedChain(field, n, packed.layout, steps, [raised(s, n) for s in packed.cofs])
        # The raised slots read back as the same polynomials.
        assert [*map(chain.modulus, range(n))] == moduli
        assert [*map(chain.cofactor, range(n))] == cofactors
        got = fold(v, chain, n)
        assert got == chain_reference(v, moduli, cofactors)

    def test_one_cofactor_per_modulus(self, f13):
        steps = (Polynomial(f13, [1, 1, 1]), Polynomial(f13, [1, 1]))
        for moduli, cofactors in ((steps, steps[:1]), (steps[:1], steps)):
            with pytest.raises(ValueError):
                pack_chain(f13, moduli, cofactors, 4)

    @pytest.mark.parametrize("p", [2, 13])
    def test_input_longer_than_the_chain_raises(self, p):
        # The kernels take up to chain.size coefficients, as many as m2
        # has, and check nothing.  The decoder's input is r1 - r2, so the
        # residue pairs keep it inside: each rejects a residue as long as its
        # modulus before anything is decoded, and the longest residues they
        # take leave a difference shorter than the chain.
        field = PrimeField(p)
        step, v = Polynomial(field, [1, 1]), Polynomial(field, [1, 1, 1])
        chain = pack_chain(field, (step,), (step,), 3)
        assert fold(v, chain, 1) == chain_reference(v, (step,), (step,))
        m1, m2 = {2: (REF_M1, REF_M2), 13: ("x^5+x^3+2*x^2+2", "x^6+x^4+x^3+3*x^2+x+3")}[p]
        an = analyze_pair(poly(field, m1), poly(field, m2))
        assert an.chain.size == an.m2.degree + 1
        x = Polynomial(field, [0, 1])
        top1, top2 = (Polynomial(field, [p - 1] * m.degree) for m in (an.m1, an.m2))
        for pair_type in (ResiduePair, ErroneousResiduePair):
            for r1, r2 in ((top1 * x, top2), (top1, top2 * x)):
                with pytest.raises(DegreeOutOfRangeError):
                    pair_type(r1, r2, an)
        q21 = top1 - top2
        assert len(q21.coeffs) < an.chain.size
        for level in range(1, an.K + 2):
            got = reconstruct(ErroneousResiduePair(top1, top2, an), level)
            assert (got.cascade_tail, got.k2_hat) == fold(q21, an.chain, level + 1)


def cascade_prefixes(v, moduli, cofactors):
    """``chain_reference`` over ``moduli[:k]`` for every k, in one pass."""
    total = Polynomial(v.field)
    out = [(v, total)]
    for step, cofactor in zip(moduli, cofactors):
        q, v = divmod(v, step)
        total = total + q * cofactor
        out.append((v, total))
    return out


def assert_index_structure(chain):
    """The F_2 index holds, at each bit length n, the first step of at most
    n bits shifted to n bits; each step's shift-0 entry is the fused step
    itself, and only its other entries are new ints.  The floors are the
    input size plus 1, then each step's degree plus 1."""
    at, floors = chain.index
    w, steps = chain.layout, chain.steps
    assert chain.cofs is steps
    assert floors == (chain.size + 1, *(step.bit_length() - w for step in steps))
    assert len(at) == w + chain.size + 1
    owners = [
        next((j for j, step in enumerate(steps) if step.bit_length() <= n), None)
        for n in range(len(at))
    ]
    for n, (entry, j) in enumerate(zip(at, owners)):
        if j is None:
            assert entry is None
        else:
            assert entry.bit_length() == n
            assert entry == steps[j] << n - steps[j].bit_length()
    runs = Counter(j for j in owners if j is not None)
    for j in runs:
        assert at[steps[j].bit_length()] is steps[j]
    shared = set(map(id, steps))
    others = sum(entry is not None and id(entry) not in shared for entry in at)
    assert others == sum(run - 1 for run in runs.values())


# Euclid-shaped step degrees, strictly falling, for inputs of 16
# coefficients: gaps of one and of many, a first step of 16 coefficients,
# and constant last steps.
HAND_BUILT_DEGREES = [
    [9, 6, 2, 1], [12, 4, 0], [8, 5, 3, 1], [15, 14, 13, 0], [7, 3], [11, 10, 6, 5, 0],
    [15, 1], [6, 2], [4, 3, 2, 1, 0],
]


class TestF2FusedChain:
    """The F_2 cascade on fused steps: one XOR of an indexed, shifted step per quotient bit."""

    @pytest.mark.parametrize("seed", range(3))
    def test_long_analysis_chains_at_every_level(self, f2, seed):
        rng = random.Random(f"fused:{seed}")
        an = random_moduli_pair(f2, rng, gcd_degree=(64, 72), cofactor_degree=(128, 136))
        chain = an.chain
        # Every quotient sum stays below deg(gamma1), so the cofactor field
        # is that wide and no wider.
        assert chain.layout == an.gamma1.degree
        moduli = (an.m1,) + an.cascade_moduli
        cofactors = (Polynomial(f2),) + an.cascade_cofactors
        ones = Polynomial(f2, [1] * chain.size)
        inputs = [random_poly(f2, chain.size, rng) for _ in range(2)] + [ones, an.m2]
        for v in inputs:
            want = cascade_prefixes(v, moduli, cofactors)
            for level in range(1, an.K + 2):
                assert fold(v, chain, level + 1) == want[level + 1]

    def test_all_ones_inputs_fill_the_cofactor_field(self, f2):
        # An all-ones input of chain.size bits takes long quotients; the top
        # level's sum reaches degree deg(gamma1) - 1, the most the cofactor
        # field holds.
        rng = random.Random("fused-ones")
        full = 0
        for _ in range(6):
            an = random_moduli_pair(f2, rng, gcd_degree=(64, 80), cofactor_degree=(128, 160))
            moduli = (an.m1,) + an.cascade_moduli
            cofactors = (Polynomial(f2),) + an.cascade_cofactors
            v = Polynomial(f2, [1] * an.chain.size)
            want = cascade_prefixes(v, moduli, cofactors)
            for level in range(1, an.K + 2):
                assert fold(v, an.chain, level + 1) == want[level + 1]
            assert want[-1][1].degree < an.chain.layout
            full += want[-1][1].degree == an.chain.layout - 1
        assert full

    @pytest.mark.parametrize("degrees", HAND_BUILT_DEGREES)
    def test_hand_built_chains_at_every_start_and_stop(self, degrees):
        # At F_2 and odd p alike.  Each start packs the chain from that step
        # on, so its step 0 has a nonzero cofactor.
        for p in (2, 13):
            field = PrimeField(p)
            rng = random.Random(f"fused-hand:{p}:{degrees}")
            moduli = [
                random_poly(field, d, rng) + Polynomial(field, [0] * d + [1]) for d in degrees
            ]
            cofactors = [
                Polynomial(field, [rng.randrange(p) for _ in range(11)] + [1]) for _ in degrees
            ]
            inputs = [random_poly(field, 16, rng) for _ in range(12)]
            inputs += [Polynomial(field, [1] * 16), Polynomial(field)]
            for start in range(len(moduli) + 1):
                steps, cofs = moduli[start:], cofactors[start:]
                chain = pack_chain(field, steps, cofs, 16)
                for v in inputs:
                    want = cascade_prefixes(v, steps, cofs)
                    for stop in range(len(steps) + 1):
                        assert fold(v, chain, stop) == want[stop]

    def test_index_structure_of_analysis_chains(self, f2, reference_pair):
        rng = random.Random("fused-index")
        assert_index_structure(reference_pair.chain)
        for _ in range(3):
            an = random_moduli_pair(f2, rng, gcd_degree=(64, 72), cofactor_degree=(128, 136))
            assert_index_structure(an.chain)

    @pytest.mark.parametrize("degrees", HAND_BUILT_DEGREES)
    def test_index_structure_of_hand_built_chains(self, f2, degrees):
        # The chains of test_hand_built_chains_at_every_start_and_stop at p = 2.
        rng = random.Random(f"fused-hand:2:{degrees}")
        moduli = [random_poly(f2, d, rng) + Polynomial(f2, [0] * d + [1]) for d in degrees]
        cofactors = [Polynomial(f2, [rng.randrange(2) for _ in range(11)] + [1]) for _ in degrees]
        for start in range(len(moduli) + 1):
            assert_index_structure(pack_chain(f2, moduli[start:], cofactors[start:], 16))

    @pytest.mark.parametrize(
        "clone",
        [copy.deepcopy, lambda a: pickle.loads(pickle.dumps(a))],
        ids=["deepcopy", "pickle"],
    )
    def test_copies_decode_alike_and_share_shift_zero_entries(self, f2, clone):
        rng = random.Random("fused-copies")
        an = random_moduli_pair(f2, rng, gcd_degree=(64, 72), cofactor_degree=(128, 136))
        restored = clone(an)
        assert restored.chain is not an.chain
        assert_index_structure(restored.chain)
        assert restored.chain.index == an.chain.index
        for level in range(1, an.K + 2):
            r1 = sample_polynomial(an.m1.degree, f2, rng)
            r2 = sample_polynomial(an.m2.degree, f2, rng)
            want = reconstruct(ErroneousResiduePair(r1, r2, an), level)
            assert reconstruct(ErroneousResiduePair(r1, r2, restored), level) == want

    def test_counts_of_moduli_and_cofactors_must_match(self, f2):
        steps = (Polynomial(f2, [1, 1, 1]), Polynomial(f2, [1, 1]))
        for moduli, cofactors in ((steps, steps[:1]), (steps[:1], steps)):
            with pytest.raises(ValueError):
                pack_chain(f2, moduli, cofactors, 4)


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

    def test_cross_check_catches_a_wrong_cofactor(self, f13, monkeypatch):
        # xgcd divides g - s * a by b to find t; a cofactor off by one
        # leaves -a mod b, nonzero since b does not divide a.  The check is
        # an explicit raise, so it holds under python -O as well.
        euclid = polycrt.poly._euclid

        def off_by_one(name, a, b):
            x, y, g, s, last = euclid(name, a, b)
            return x, y, g, s + Polynomial(s.field, (1,)), last

        a, b = poly(f13, "x^5+3*x^2+1"), poly(f13, "2*x^3+x+5")
        assert not (a % b).is_zero
        monkeypatch.setattr(polycrt.poly, "_euclid", off_by_one)
        with pytest.raises(AssertionError) as caught:
            xgcd(a, b)
        assert str(caught.value) == "the Euclid pass's cofactor leaves a remainder"


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


class TestEuclidPassMemory:
    # The Euclid pass streams its rows, and gcd, xgcd and lcm keep only the
    # last, so each holds a few polynomials of the operands' size however
    # many steps the pass takes.  A pass that keeps every step and cofactor
    # peaks at 13 MiB on the p = 65521 pair and 10 MiB on the F_2 pair.
    @pytest.mark.parametrize(
        "p, shared, degrees", [(65521, 512, (1024, 1025)), (2, 0, (12288, 12289))]
    )
    def test_gcd_xgcd_and_lcm_peak_under_1_mib(self, p, shared, degrees):
        field, rng = PrimeField(p), random.Random(f"pass memory:{p}")

        def draw(degree):
            return Polynomial(field, [rng.randrange(p) for _ in range(degree)] + [rng.randrange(1, p)])

        m = draw(shared).monic()
        a, b = m * draw(degrees[0]), m * draw(degrees[1])
        results, peaks = {}, {}
        tracemalloc.start()
        try:
            for run in (gcd, xgcd, lcm):
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                results[run] = run(a, b)
                peaks[run.__name__] = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert max(peaks.values()) < 1 << 20, peaks
        g, s, t = results[xgcd]
        assert s * a + t * b == g == results[gcd]
        assert (g % m).is_zero
        assert results[lcm] * g == (a * b).monic()


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

    @pytest.mark.parametrize(
        "text, position",
        [
            ("1" * 5000, 0),
            ("x^" + "1" * 5000, 0),
            ("[" + "1" * 5000 + "]", 1),
            ("x+2*x^" + "1" * 5000 + "+1", 2),
            ("x+" + "1" * 5000 + "*x", 2),
            ("[0, " + "1" * 5000 + "]", 3),
        ],
        ids=["coeff", "exponent", "entry", "second-exponent", "second-coeff", "second-entry"],
    )
    def test_over_long_integer_literals_are_parse_errors(self, text, position):
        with pytest.raises(ParseError) as info:
            parse_polynomial(text, PrimeField(13))
        assert info.value.position == position

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no int digit limit to lift"
    )
    def test_list_entry_length_is_bounded_without_the_interpreter_limit(self, f13):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            with pytest.raises(ParseError) as info:
                parse_polynomial("[" + "1" * 5000 + "]", f13)
            assert info.value.position == 1
            assert parse_polynomial("[" + "1" * 4300 + "]", f13).coeffs == (int("1" * 4300) % 13,)
        finally:
            sys.set_int_max_str_digits(limit)

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no int digit limit to lower"
    )
    def test_list_entry_over_a_lower_interpreter_limit_is_a_parse_error(self, f13):
        # 1000 digits pass the parser's own bound, and int() then refuses them.
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            with pytest.raises(ParseError) as info:
                parse_polynomial("[" + "1" * 1000 + "]", f13)
            assert info.value.position == 1
        finally:
            sys.set_int_max_str_digits(limit)

    def test_leading_zeros_are_stripped_before_the_length_check(self, f13):
        assert str(parse_polynomial("007*x^0003+x^00", f13)) == "7*x^3+1"
        long_zero = "0" * 5000
        assert str(parse_polynomial(f"{long_zero}7*x^{long_zero}3", f13)) == "7*x^3"
        for text in (f"1{long_zero}", f"x^1{long_zero}"):
            with pytest.raises(ParseError, match=r"\.\.\. (not in|too large)"):
                parse_polynomial(text, f13)

    def test_degree_cap_is_the_same_in_both_forms(self, f2):
        cap = _MAX_PARSE_DEGREE
        top = Polynomial(f2, [0] * cap + [1])
        assert parse_polynomial(f"x^{cap}", f2) == top
        assert parse_polynomial("[" + "0," * cap + "1]", f2) == top
        with pytest.raises(ParseError, match="too large"):
            parse_polynomial(f"x^{cap + 1}", f2)
        with pytest.raises(ParseError, match="too long"):
            parse_polynomial("[" + "0," * (cap + 1) + "1]", f2)

    def test_long_list_rejected_before_any_entry_is_parsed(self, f2, monkeypatch):
        class Refuse:
            def match(self, chunk):
                raise AssertionError("entry parsed before the length check")

        monkeypatch.setattr(polycrt.poly, "_INT_RE", Refuse())
        # Over-long and malformed at once: the length is reported, at "[".
        with pytest.raises(ParseError, match="too long") as info:
            parse_polynomial("  [" + "y," * (_MAX_PARSE_DEGREE + 1) + "1]", f2)
        assert info.value.position == 2

    def test_non_string_input_rejected(self, f2):
        with pytest.raises(ParseError, match="expected string input, got int") as info:
            parse_polynomial(5, f2)
        assert info.value.position == 0

    def test_text_after_coefficient_list_rejected(self, f2):
        with pytest.raises(ParseError, match="trailing text") as info:
            parse_polynomial("[1,0,1] x", f2)
        assert info.value.position == 7


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
