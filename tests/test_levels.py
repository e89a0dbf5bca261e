import dataclasses
import json
import os
import random
import subprocess
import sys
import textwrap

import pytest

from polycrt import (
    CoprimeModuliError,
    DegenerateModuliError,
    LevelOutOfRangeError,
    MixedFieldsError,
    Polynomial,
    PrimeField,
    TooFewModuliError,
    ZeroModulusError,
    analysis_to_json,
    analyze_pair,
    lcm,
    parse_polynomial,
    random_moduli_pair,
    render_level_table,
    residue_error_bound,
)
from polycrt.levels import _assert_invariants
from polycrt.simulation import enumerate_polynomials, sample_monic

from conftest import REF_M1, REF_M2, SRC, poly


class TestAnalyzePair:
    def test_reference_structure(self, f2, reference_pair):
        an = reference_pair
        assert an.m == poly(f2, "x^2+1")
        assert an.gamma1 == poly(f2, "x^6+x^3+1")
        assert an.gamma2 == poly(f2, "x^9+x^7+x+1")
        assert an.lcm.degree == 17
        assert [str(s) for s in an.remainders] == ["x^4", "x^3+1", "x", "1"]
        assert an.K == 3
        assert an.gamma_inv21 == poly(f2, "x^5")
        assert not an.swapped

    def test_micro_pair_structure(self, f2):
        an = analyze_pair(poly(f2, "x^2+x"), poly(f2, "x^3+x^2+x"))
        assert an.m == poly(f2, "x")
        assert an.gamma1 == poly(f2, "x+1")
        assert an.gamma2 == poly(f2, "x^2+x+1")
        assert an.K == 0
        assert an.lcm.degree == 4
        spec = an.level_spec(1)
        assert spec.error_bound_exclusive == 1
        assert spec.dynamic_range_exclusive == 4

    def test_swap_normalization(self, f2, reference_pair):
        swapped = analyze_pair(reference_pair.m2, reference_pair.m1)
        assert swapped.swapped
        assert swapped.m1 == reference_pair.m1
        assert swapped.m2 == reference_pair.m2
        assert swapped.levels == reference_pair.levels

    def test_equal_degree_moduli_keep_order(self, f2):
        shared = poly(f2, "x^2+1")
        m1 = shared * poly(f2, "x")
        m2 = shared * poly(f2, "x+1")
        an = analyze_pair(m1, m2)
        assert not an.swapped
        assert an.m1 == m1 and an.m2 == m2
        assert an.K == 0

    def test_identical_moduli_rejected(self, f2):
        m = poly(f2, "x^2+1")
        with pytest.raises(DegenerateModuliError):
            analyze_pair(m, m)

    def test_dividing_moduli_rejected(self, f2):
        m = poly(f2, "x^2+1")
        with pytest.raises(DegenerateModuliError):
            analyze_pair(m, m * poly(f2, "x^3+1"))

    def test_coprime_moduli_rejected(self, f2):
        with pytest.raises(CoprimeModuliError):
            analyze_pair(poly(f2, "x"), poly(f2, "x+1"))

    def test_zero_modulus_rejected(self, f2):
        with pytest.raises(ZeroModulusError):
            analyze_pair(Polynomial(f2), poly(f2, "x^2+x"))

    def test_mixed_fields_rejected(self, f2, f7):
        with pytest.raises(MixedFieldsError):
            analyze_pair(poly(f2, "x^2+x"), poly(f7, "x^2+x"))


class TestLevelTable:
    def test_reference_table_rows(self, reference_pair):
        rows = [
            (spec.index, spec.sigma_deg, spec.error_bound_exclusive, spec.dynamic_range_exclusive)
            for spec in reference_pair.levels
        ]
        assert rows == [(1, 4, 6, 13), (2, 3, 5, 14), (3, 1, 3, 16), (4, 0, 2, 17)]

    def test_top_level_covers_full_range(self, f2, f13):
        rng = random.Random(4)
        for field in (f2, f13):
            for _ in range(20):
                an = random_moduli_pair(field, rng)
                top = an.levels[-1]
                assert top.sigma_deg == 0
                assert top.dynamic_range_exclusive == an.lcm.degree
                assert top.error_bound_exclusive == an.m.degree

    def test_trade_off_is_strictly_monotone(self, f2, f13):
        rng = random.Random(5)
        for field in (f2, f13):
            for _ in range(20):
                an = random_moduli_pair(field, rng)
                bounds = [spec.error_bound_exclusive for spec in an.levels]
                ranges = [spec.dynamic_range_exclusive for spec in an.levels]
                assert bounds == sorted(bounds, reverse=True)
                assert len(set(bounds)) == len(bounds)
                assert ranges == sorted(ranges)
                assert len(set(ranges)) == len(ranges)

    def test_level_spec_bounds_checked(self, reference_pair):
        with pytest.raises(LevelOutOfRangeError):
            reference_pair.level_spec(0)
        with pytest.raises(LevelOutOfRangeError):
            reference_pair.level_spec(5)


class TestChainInvariants:
    def test_chain_is_euclidean_remainder_sequence(self, f2, f13):
        rng = random.Random(6)
        # At p = 65521 the gcd has >= 41 coefficients and the first chain
        # entries >= 8, so deriving sigma divides by m on the Newton path.
        large = {"gcd_degree": (40, 48), "cofactor_degree": (16, 24)}
        for field, count, shape in (
            (f2, 25, {}),
            (f13, 25, {}),
            (PrimeField(65521), 5, large),
        ):
            for _ in range(count):
                an = random_moduli_pair(field, rng, **shape)
                expected = [an.gamma2, an.gamma1]
                while expected[-1].degree > 0:
                    expected.append(expected[-2] % expected[-1])
                assert list(an.sigma) == expected

    def test_chain_degrees_and_product_identities(self, f2, f13):
        rng = random.Random(7)
        for field in (f2, f13):
            for _ in range(25):
                an = random_moduli_pair(field, rng)
                degs = [s.degree for s in an.sigma]
                assert all(degs[i] > degs[i + 1] for i in range(1, len(degs) - 1))
                assert degs[-1] == 0 and not an.sigma[-1].is_zero
                assert an.m * an.gamma1 == an.m1
                assert an.m * an.gamma2 == an.m2
                assert an.lcm.degree == an.m.degree + an.gamma1.degree + an.gamma2.degree
                one = Polynomial(field, (1,))
                assert (an.gamma_inv21 * an.gamma2) % an.gamma1 == one

    def test_invariants_reject_corrupted_analysis(self, reference_pair):
        an = reference_pair
        cm = an.cascade_moduli
        one = Polynomial(an.field, (1,))
        _assert_invariants(an)
        for broken, message in (
            ({"m1": an.m2, "m2": an.m1}, "starting entries out of order"),
            ({"cascade_moduli": cm[:-1]}, "chain does not end in a nonzero scalar"),
            (
                {"cascade_moduli": (cm[1], cm[0]) + cm[2:]},
                "chain degrees do not strictly decrease",
            ),
            (
                {"gamma_inv21": an.gamma_inv21 + one},
                "gamma_inv21 * gamma2 != 1 (mod gamma1)",
            ),
        ):
            with pytest.raises(AssertionError) as exc:
                _assert_invariants(dataclasses.replace(an, **broken))
            assert str(exc.value) == message


# Runs under python -O: analyze_pair on a good product, then again with a
# Polynomial.__mul__ that is off by one; prints what the second call raised.
_WRONG_PRODUCT_SCRIPT = textwrap.dedent(
    f"""
    import sys
    from polycrt import Polynomial, PrimeField, analyze_pair, parse_polynomial

    assert False, "assert statements run; this must be python -O"
    f2 = PrimeField(2)
    m1 = parse_polynomial("{REF_M1}", f2)
    m2 = parse_polynomial("{REF_M2}", f2)
    analyze_pair(m1, m2)
    right = Polynomial.__mul__

    def wrong(self, other):
        return right(self, other) + Polynomial(self.field, (1,))

    Polynomial.__mul__ = wrong
    try:
        analyze_pair(m1, m2)
    except AssertionError as exc:
        print("raised:", exc)
        sys.exit(0)
    sys.exit(1)
    """
)


class TestInvariantsUnderOptimize:
    def test_wrong_product_raises_under_python_O(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        run = subprocess.run(
            [sys.executable, "-O", "-c", _WRONG_PRODUCT_SCRIPT],
            capture_output=True,
            env=env,
            text=True,
            timeout=60,
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout == "raised: m * gamma1 != m1\n"


class TestResidueErrorBound:
    def test_reference_pair_bound(self, reference_pair):
        assert residue_error_bound([reference_pair.m1, reference_pair.m2]) == 2

    def test_pairwise_coprime_moduli_give_zero(self, f2):
        mods = [poly(f2, "x"), poly(f2, "x+1"), poly(f2, "x^2+x+1")]
        assert residue_error_bound(mods) == 0

    def test_three_moduli_known_value(self, f2):
        mods = [
            poly(f2, "x^2") * poly(f2, "x+1"),
            poly(f2, "x^2") * poly(f2, "x^2+x+1"),
            poly(f2, "x") * poly(f2, "x+1") * poly(f2, "x^2+x+1"),
        ]
        assert residue_error_bound(mods) == 2

    def test_matches_divisor_enumeration_oracle(self, f2):
        # Independent max-min via trial division instead of Euclid.
        def gcd_degree_oracle(a, b):
            best = 0
            max_d = min(a.degree, b.degree)
            for d in range(1, max_d + 1):
                for low in enumerate_polynomials(f2, d):
                    cand = Polynomial(f2, list(low.coeffs) + [0] * (d - len(low.coeffs)) + [1])
                    if (a % cand).is_zero and (b % cand).is_zero:
                        best = max(best, d)
            return best

        rng = random.Random(8)
        for _ in range(10):
            mods = [sample_monic(rng.randint(1, 5), f2, rng) for _ in range(rng.randint(2, 4))]
            expected = max(
                min(gcd_degree_oracle(mi, mj) for j, mj in enumerate(mods) if i != j)
                for i, mi in enumerate(mods)
            )
            assert residue_error_bound(mods) == expected

    def test_two_moduli_bound_is_gcd_degree(self, f2, f13):
        rng = random.Random(9)
        for field in (f2, f13):
            for _ in range(25):
                an = random_moduli_pair(field, rng)
                bound = residue_error_bound([an.m1, an.m2])
                assert bound == an.m.degree
                assert bound == an.levels[-1].error_bound_exclusive

    @pytest.mark.parametrize("p", [2, 3])
    def test_bound_suffices_for_three_moduli(self, p):
        # The robust-CRT claim with a' = a + d: if every residue of d has
        # degree <= tau < bound, then deg d <= tau.  Exhaustive over d.  The
        # bound is not tight (some triples tolerate more), so only this
        # direction is checked.
        field = PrimeField(p)
        rng = random.Random(p)
        kept = strong = 0
        for _ in range(40):
            s12, s13, s23 = (sample_monic(rng.randint(0, 2), field, rng) for _ in range(3))
            c1, c2, c3 = (sample_monic(rng.randint(1, 2), field, rng) for _ in range(3))
            mods = [c1 * s12 * s13, c2 * s12 * s23, c3 * s13 * s23]
            big = lcm(lcm(mods[0], mods[1]), mods[2])
            if len(set(mods)) < 3 or p**big.degree > 4096:
                continue
            bound = residue_error_bound(mods)
            kept += 1
            strong += bound >= 2
            residue_degs = [
                (d, max((d % m).degree for m in mods))
                for d in enumerate_polynomials(field, big.degree)
                if not d.is_zero
            ]
            for tau in range(bound):
                bad = [d for d, t in residue_degs if t <= tau and d.degree > tau]
                assert not bad, (mods, tau, bad[:3])
        assert kept >= 25 and strong >= 10

    def test_too_few_moduli(self, f2):
        with pytest.raises(TooFewModuliError):
            residue_error_bound([poly(f2, "x")])

    def test_zero_modulus_rejected(self, f2):
        with pytest.raises(ZeroModulusError):
            residue_error_bound([poly(f2, "x"), Polynomial(f2)])


class TestRendering:
    def test_table_mirrors_levels(self, reference_pair):
        table = render_level_table(reference_pair)
        lines = table.splitlines()
        assert lines[0].split() == ["level", "deg(sigma_i)", "residue", "error", "bound", "dynamic", "range"]
        assert len(lines) == 1 + len(reference_pair.levels)
        assert "tau < 6" in lines[1] and "deg(a) < 13" in lines[1]
        assert "tau < 2" in lines[4] and "deg(a) < 17" in lines[4]

    def test_json_summary(self, f2, reference_pair):
        payload = analysis_to_json(reference_pair)
        assert payload["degM"] == 17
        assert payload["K"] == 3
        assert payload["m"] == "x^2+1"
        assert payload["sigma"] == ["x^4", "x^3+1", "x", "1"]
        assert [lvl["errorBoundExclusive"] for lvl in payload["levels"]] == [6, 5, 3, 2]
        # Every polynomial string in the payload parses back identically.
        for key in ("m1", "m2", "m", "gamma1", "gamma2"):
            assert str(parse_polynomial(payload[key], f2)) == payload[key]
        json.dumps(payload)
