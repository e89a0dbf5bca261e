import ast
import copy
import dataclasses
import functools
import itertools
import json
import os
import pickle
import random
import subprocess
import sys
import textwrap

import pytest

from polycrt import (
    CoprimeModuliError,
    DegenerateModuliError,
    LevelOutOfRangeError,
    LevelSpec,
    MixedFieldsError,
    Polynomial,
    PrimeField,
    TooFewModuliError,
    TrialConfig,
    ZeroModulusError,
    analysis_to_json,
    analyze_pair,
    encode,
    gcd,
    lcm,
    parse_polynomial,
    random_moduli_pair,
    render_level_table,
    residue_error_bound,
    run_campaign,
    xgcd,
)
from polycrt import levels
from polycrt.levels import _assert_invariants
from polycrt.poly import PackedChain
from polycrt.simulation import sample_monic

from conftest import REF_A, REF_M1, REF_M2, SRC, enumerate_polynomials, poly
from reference_decoder import pack_chain


def readme_factors_pair(field):
    """The README pair's factors multiplied out over ``field``."""
    shared = poly(field, "x^2+1")
    return analyze_pair(
        shared * poly(field, "x^6+x^3+1"), shared * poly(field, "x^9+x^7+x+1")
    )


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
        assert [str(s) for s in an.cascade_cofactors] == ["1", "x^2", "x^3+1", "x^5"]
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

    @pytest.mark.parametrize("p", [2, 13, 65521])
    def test_rows_equal_public_level_specs(self, p):
        # analyze_pair builds its rows without LevelSpec.__init__; each must
        # be indistinguishable from one built the public way.
        rng = random.Random(f"rows:{p}")
        for _ in range(5):
            an = random_moduli_pair(PrimeField(p), rng)
            for row in an.levels:
                public = LevelSpec(**dataclasses.asdict(row))
                assert type(row) is LevelSpec
                assert row == public and hash(row) == hash(public)
                assert repr(row) == repr(public)
                assert dataclasses.astuple(row) == dataclasses.astuple(public)
                assert vars(row) == vars(public)
                assert copy.deepcopy(row) == pickle.loads(pickle.dumps(row)) == public
                with pytest.raises(dataclasses.FrozenInstanceError):
                    row.index = 0

    def test_no_decoder_serves_a_wider_range_than_the_table(self):
        # The frontier, by plain loops with no library cascade: errors of
        # degree below A leave a + d and a indistinguishable whenever both
        # residues of d have degree below A, so no decoder serves messages
        # past the least degree >= A of such a nonzero d.  Scaling d keeps
        # its residue degrees, so the monic ones of each degree suffice, and
        # lcm itself, with zero residues, caps the search at deg(lcm).
        def residue_degree(d, m, p):
            r, n = list(d), len(m)
            inv = pow(m[-1], p - 2, p)
            for shift in range(len(r) - n, -1, -1):
                c = r[shift + n - 1] * inv % p
                for k, mk in enumerate(m):
                    r[shift + k] = (r[shift + k] - c * mk) % p
            deg = min(len(r), n - 1) - 1
            while deg >= 0 and not r[deg]:
                deg -= 1
            return deg

        points = 0
        for p, count, cofactors in ((2, 24, (2, 4)), (3, 10, (1, 3))):
            rng = random.Random(f"frontier:{p}")
            for _ in range(count):
                an = random_moduli_pair(PrimeField(p), rng, (1, 2), cofactors)
                m1, m2, top = an.m1.coeffs, an.m2.coeffs, an.lcm.degree
                # best[D]: the least residue degree of a monic d of degree D.
                best = [
                    min(
                        max(residue_degree(d, m1, p), residue_degree(d, m2, p))
                        for d in (tail + (1,) for tail in itertools.product(range(p), repeat=D))
                    )
                    for D in range(top + 1)
                ]
                for A in range(1, an.m2.degree + 1):
                    frontier = min(D for D in range(A, top + 1) if best[D] < A)
                    served = [
                        spec.dynamic_range_exclusive
                        for spec in an.levels
                        if spec.error_bound_exclusive >= A
                    ]
                    assert frontier == max(served, default=an.m2.degree), (p, an, A)
                    points += 1
        assert points == 165

    def test_level_spec_bounds_checked(self, reference_pair):
        with pytest.raises(LevelOutOfRangeError):
            reference_pair.level_spec(0)
        with pytest.raises(LevelOutOfRangeError):
            reference_pair.level_spec(5)


class TestChainInvariants:
    def test_chain_is_euclidean_remainder_sequence(self, f2, f13):
        rng = random.Random(6)

        def check(an):
            expected = [an.gamma2, an.gamma1]
            while expected[-1].degree > 0:
                expected.append(expected[-2] % expected[-1])
            assert list(an.sigma) == expected

        # At p = 65521 the gcd has >= 41 coefficients and the cofactors >= 17,
        # so analyze_pair divides by m with division steps.
        large = {"gcd_degree": (40, 48), "cofactor_degree": (16, 24)}
        for field, count, shape in (
            (f2, 25, {}),
            (f13, 25, {}),
            (PrimeField(65521), 5, large),
        ):
            for _ in range(count):
                check(random_moduli_pair(field, rng, **shape))
        # The analyze-p65521 benchmark shape, gcd degree 64 and cofactors 128
        # and 129: a long chain (K about 127), and m2 // m takes division
        # steps over several windows.
        field = PrimeField(65521)
        shared, cof1, cof2 = (sample_monic(d, field, rng) for d in (64, 128, 129))
        an = analyze_pair(shared * cof1, shared * cof2)
        assert an.m == shared and an.K > 100
        check(an)

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
        self.check_corruptions(reference_pair)

    def test_invariants_reject_corrupted_odd_p_analysis(self):
        an = readme_factors_pair(PrimeField(13))
        self.check_corruptions(an)
        # A new top slot holding p leaves the cofactor's value but not its
        # degree as the slot count reads it.
        chain = an.chain
        bits = 8 * chain.layout[0]
        cofs = list(chain.cofs)
        cofs[-1] += 13 << -(-cofs[-1].bit_length() // bits) * bits
        broken = PackedChain(an.field, chain.size, chain.layout, chain.steps, cofs)
        assert broken.cofactor(-1) == chain.cofactor(-1)
        with pytest.raises(AssertionError, match="^cascade cofactor degrees do not match"):
            _assert_invariants(dataclasses.replace(an, chain=broken))
        # m scaled by 2 and the cofactors by its inverse keep both products.
        half = an.field.inv(2)
        scaled = dataclasses.replace(
            an, m=an.m._scale(2), gamma1=an.gamma1._scale(half), gamma2=an.gamma2._scale(half)
        )
        with pytest.raises(AssertionError, match="^m is not monic$"):
            _assert_invariants(scaled)

    @pytest.mark.parametrize("p", [2, 13])
    @pytest.mark.parametrize(
        "name", ["index", "sigma_deg", "error_bound_exclusive", "dynamic_range_exclusive"]
    )
    def test_every_row_field_is_read_off_the_chain(self, p, name):
        # Every field of every row follows the level formulas in deg(m),
        # deg(sigma_i) and deg(lcm): encode bounds its messages by the top
        # row's range, and trials draw each row's range.  The rows are read
        # off the packed chain; sigma_i here comes from the second Euclid
        # pass over the cofactors, and lcm from its own product.
        an = readme_factors_pair(PrimeField(p))
        want = {
            "index": lambda i, s: i,
            "sigma_deg": lambda i, s: s,
            "error_bound_exclusive": lambda i, s: an.m.degree + s,
            "dynamic_range_exclusive": lambda i, s: an.lcm.degree - s,
        }[name]
        rows = an.levels
        assert an.levels is rows and len(rows) == an.K + 1
        assert [getattr(row, name) for row in rows] == [
            want(i, sigma.degree) for i, sigma in enumerate(an.remainders, start=1)
        ]

    def test_lcm_and_k_are_derived_not_settable(self, reference_pair):
        for name in ("lcm", "K", "levels", "tables"):
            with pytest.raises(TypeError):
                dataclasses.replace(reference_pair, **{name: getattr(reference_pair, name)})

    def test_invariants_reject_a_corrupted_byte_table(self, monkeypatch, reference_pair):
        an = reference_pair
        table1, table2 = an.tables
        mults, tops = table1

        def swapped(entries):
            entries = list(entries)
            entries[3], entries[5] = entries[5], entries[3]
            return tuple(entries)

        for tables, name in (
            (((swapped(mults), tops), table2), "m1"),
            # A low bit flipped, top bytes unchanged: 254 * m1 is no longer
            # 127 * m1 doubled, nor 255 * m1 that doubled plus m1.
            (((mults[:-2] + (mults[-2] ^ 1, mults[-1]), tops), table2), "m1"),
            (((mults[:-1] + (mults[-1] ^ 1,), tops), table2), "m1"),
            (((mults, swapped(tops)), table2), "m1"),
            ((table1, (table2[0], swapped(table2[1]))), "m2"),
            ((table2, table1), "m1"),
        ):
            # The tables are built on first read, so a corrupted one can only
            # come from the table builder itself.
            planted = dict(zip((an.m1._value, an.m2._value), tables))
            monkeypatch.setattr(levels, "_clbyte_table", planted.__getitem__)
            broken = analyze_pair(an.m1, an.m2)
            with pytest.raises(AssertionError) as exc:
                broken.tables
            assert str(exc.value) == f"byte table of {name} does not match it"

    @staticmethod
    def check_corruptions(an):
        cm, cf = an.cascade_moduli, an.cascade_cofactors
        zero, one = Polynomial(an.field), Polynomial(an.field, (1,))

        def chain(moduli=cm, cofactors=cf, first=an.m1, first_cofactor=zero):
            # Step 0 is m1 with cofactor 0, as analyze_pair stores it.
            return pack_chain(
                an.field, (first,) + moduli, (first_cofactor,) + cofactors, an.m2.degree + 1
            )

        _assert_invariants(an)
        _assert_invariants(dataclasses.replace(an, chain=chain()))
        # Rising steps and unmatched counts are no chain at all.
        for moduli, cofactors in (((cm[1], cm[0]) + cm[2:], cf), (cm[:-1], cf), (cm, cf[:-1])):
            with pytest.raises(ValueError):
                chain(moduli, cofactors)
        for broken, message in (
            ({"m1": an.m2, "m2": an.m1}, "starting entries out of order"),
            (
                # Same degree, so only step 0 differs from m1.
                {"chain": chain(first=an.m1 + one)},
                "chain does not start at m1 with cofactor 0",
            ),
            ({"chain": chain(first_cofactor=one)}, "chain does not start at m1 with cofactor 0"),
            (
                {"chain": chain(moduli=cm[:-1], cofactors=cf[:-1])},
                "chain does not end in a nonzero scalar",
            ),
            (
                # Same degree, so only the derived inverse is wrong.
                {"chain": chain(cofactors=cf[:-1] + (cf[-1] + one,))},
                "gamma_inv21 * gamma2 != 1 (mod gamma1)",
            ),
            (
                {"chain": chain(cofactors=cf[::-1])},
                "cascade cofactor degrees do not match the chain",
            ),
            (
                {"chain": chain(cofactors=cf[1:] + (one,))},
                "cascade cofactor degrees do not match the chain",
            ),
            # Same degrees, so only the products are wrong.
            ({"m": an.m + one}, "m * gamma1 != m1"),
            ({"gamma2": an.gamma2 + an.gamma1}, "m * gamma2 != m2"),
            # Another degree: the rows are read off m1, m2 and the chain.
            ({"gamma2": an.gamma2 * an.gamma1}, "m * gamma2 != m2"),
        ):
            with pytest.raises(AssertionError) as exc:
                _assert_invariants(dataclasses.replace(an, **broken))
            assert str(exc.value) == message


class TestCascadeCofactors:
    @pytest.mark.parametrize("p", [2, 3, 13, 65521])
    def test_bezout_congruence_and_degrees(self, p):
        # s_j * m2 + t_j * m1 = m * sigma_j, so s_j * gamma2 == sigma_j
        # (mod gamma1), and deg(s_j) = deg(m1) - deg(m * sigma_{j-1}).
        field = PrimeField(p)
        rng = random.Random(f"cofactors:{p}")
        shapes = [{}] * 15 + [{"gcd_degree": (8, 12), "cofactor_degree": (30, 40)}] * 3
        for shape in shapes:
            an = random_moduli_pair(field, rng, **shape)
            cofactors = an.cascade_cofactors
            assert len(cofactors) == an.K + 1
            previous = (an.m1,) + an.cascade_moduli
            for s, sigma, before in zip(cofactors, an.remainders, previous):
                assert (s * an.gamma2) % an.gamma1 == sigma % an.gamma1
                assert s.degree == an.m1.degree - before.degree
            inverse = cofactors[-1]._scale(field.inv(an.remainders[-1].lead))
            assert an.gamma_inv21 == inverse

    def test_repr_is_built_from_values(self):
        # Two analyses of the same pair print alike: the repr names neither
        # the chain nor the tables, which are derived from the moduli.
        first, second = (readme_factors_pair(PrimeField(2)) for _ in range(2))
        assert repr(first) == repr(second)
        assert "chain=" not in repr(first) and "tables=" not in repr(first)
        assert repr(first).endswith(", swapped=False)")

    @pytest.mark.parametrize("p", [2, 65521])
    def test_identity_never_unpacks_the_chain(self, monkeypatch, p):
        # The chain is a function of the moduli, which equality compares.
        first, second = (readme_factors_pair(PrimeField(p)) for _ in range(2))
        swapped = analyze_pair(first.m2, first.m1)

        def refuse(*args):
            raise AssertionError("the packed chain was read")

        for name in ("modulus", "cofactor", "degrees"):
            monkeypatch.setattr(PackedChain, name, refuse)
        assert first == second and hash(first) == hash(second)
        assert first != swapped

    def test_copy_deepcopy_and_pickle_keep_the_cofactors(self, reference_pair):
        self.check_copies(reference_pair)

    @pytest.mark.parametrize("p", [13, 65521])
    def test_copies_of_odd_p_analyses(self, p):
        self.check_copies(readme_factors_pair(PrimeField(p)))

    @staticmethod
    def check_copies(an):
        for clone in (copy.copy(an), copy.deepcopy(an), pickle.loads(pickle.dumps(an))):
            assert clone.cascade_cofactors == an.cascade_cofactors
            assert clone.cascade_moduli == an.cascade_moduli
            assert clone == an and hash(clone) == hash(an)
            _assert_invariants(clone)


def chain_state(chain):
    """Everything a packed chain stores, for comparing two chains."""
    return chain.field, chain.size, chain.layout, chain.steps, chain.cofs, chain.index


class TestRestores:
    """An analysis pickles and copies as its moduli: each restore is a fresh analyze_pair."""

    RESTORES = {
        "copy": copy.copy,
        "deepcopy": copy.deepcopy,
        "pickle": lambda an: pickle.loads(pickle.dumps(an)),
    }

    @pytest.mark.parametrize("restore", RESTORES)
    @pytest.mark.parametrize("p", [2, 13])
    def test_a_swapped_analysis_stays_swapped(self, restore, p):
        an = readme_factors_pair(PrimeField(p))
        swapped = analyze_pair(an.m2, an.m1)
        assert swapped.swapped and not an.swapped
        for original in (an, swapped):
            clone = self.RESTORES[restore](original)
            assert clone == original and clone.swapped == original.swapped

    @pytest.mark.parametrize("restore", RESTORES)
    @pytest.mark.parametrize("p", [2, 65521])
    def test_a_planted_chain_is_not_restored(self, restore, p):
        field = PrimeField(p)
        an = readme_factors_pair(field)
        other = random_moduli_pair(field, random.Random(f"planted:{p}"), (3, 4), (8, 9))
        broken = analyze_pair(an.m1, an.m2)
        object.__setattr__(broken, "chain", other.chain)
        clone = self.RESTORES[restore](broken)
        assert clone == an
        assert chain_state(clone.chain) == chain_state(an.chain) != chain_state(other.chain)

    @pytest.mark.parametrize("restore", RESTORES)
    def test_each_restore_runs_analyze_pair_and_its_checks_once(
        self, monkeypatch, reference_pair, restore
    ):
        # The spy on analyze_pair keeps its name, so pickles still find it.
        built, checked = [], []
        analyze, check = levels.analyze_pair, levels._assert_invariants

        @functools.wraps(analyze)
        def analyze_spy(*moduli):
            built.append(moduli)
            return analyze(*moduli)

        def check_spy(analysis, *rest):
            checked.append(analysis)
            return check(analysis, *rest)

        monkeypatch.setattr(levels, "analyze_pair", analyze_spy)
        monkeypatch.setattr(levels, "_assert_invariants", check_spy)
        clone = self.RESTORES[restore](reference_pair)
        assert built == [(reference_pair.m1, reference_pair.m2)]
        assert len(checked) == 1 and checked[0] is clone

    def test_a_large_f2_analysis_pickles_as_its_moduli(self):
        # At degree 12,288 the fused steps and their index took 9.2 MiB of
        # pickle; the two moduli take about 48 KiB.
        rng = random.Random("pickle size")
        an = random_moduli_pair(PrimeField(2), rng, (4096, 4096), (8192, 8193))
        assert an.m1.degree >= 12288
        data = pickle.dumps(an)
        assert len(data) < 64 << 10
        assert chain_state(pickle.loads(data).chain) == chain_state(an.chain)


class TestOneChainBuilder:
    """Only analyze_pair builds a PackedChain; gcd, xgcd, lcm and sigma read the bare pass."""

    @pytest.mark.parametrize("p", [2, 13, 65521])
    def test_pass_readers_build_no_chain(self, monkeypatch, p):
        field = PrimeField(p)
        rng = random.Random(f"one-chain-builder:{p}")
        an = random_moduli_pair(field, rng, gcd_degree=(8, 12), cofactor_degree=(20, 30))
        scalar, zero = Polynomial(field, (p - 1,)), Polynomial(field)
        operands = [
            (an.m1, an.m2), (an.m2, an.m1), (an.gamma1, an.gamma2), (an.m1, an.m1),
            (an.m1 * sample_monic(7, field, rng), an.m2), (scalar, an.m1), (an.m1, scalar),
        ]

        def results():
            values = [(gcd(x, y), xgcd(x, y), lcm(x, y)) for x, y in operands]
            return values, gcd(an.m1, zero), xgcd(zero, an.m2), an.sigma, an.remainders, analysis_to_json(an)

        before = results()

        def refuse(*args):
            raise AssertionError("a PackedChain was built")

        monkeypatch.setattr(PackedChain, "__init__", refuse)
        assert results() == before
        with pytest.raises(AssertionError, match="^a PackedChain was built$"):
            analyze_pair(an.m1, an.m2)

    def test_only_analyze_pair_calls_the_constructor(self):
        def calls(node):
            return sum(
                isinstance(n, ast.Call) and getattr(n.func, "id", None) == "PackedChain"
                for n in ast.walk(node)
            )

        total, callers = 0, []
        for path in sorted((SRC / "polycrt").glob("*.py")):
            tree = ast.parse(path.read_text())
            total += calls(tree)
            callers += [
                (path.name, node.name) for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and calls(node)
            ]
        assert total == 1 and callers == [("levels.py", "analyze_pair")]


class TestRowsAndTablesOnFirstRead:
    def test_only_decoding_builds_the_byte_tables(self, monkeypatch, reference_pair):
        # analyze_pair builds no level row and no byte table; the first
        # encode builds the two tables, and nothing builds them again.
        rows, tables = [], []
        record, build = levels._record, levels._clbyte_table

        def record_spy(cls, **fields):
            rows.append(cls)
            return record(cls, **fields)

        def build_spy(b):
            tables.append(b)
            return build(b)

        monkeypatch.setattr(levels, "_record", record_spy)
        monkeypatch.setattr(levels, "_clbyte_table", build_spy)
        an = analyze_pair(reference_pair.m1, reference_pair.m2)
        assert rows == [] and tables == []
        a = poly(an.field, REF_A)
        first = encode(a, an)
        assert tables == [an.m1._value, an.m2._value]
        assert first == encode(a, an)
        report = run_campaign(TrialConfig(an, 4, 1, 20, 1))
        assert report.successes == 20
        assert len(tables) == 2
        assert rows == [LevelSpec] * (an.K + 1)

    def test_odd_p_builds_no_byte_table(self, monkeypatch):
        # Over odd p, decoding divides without byte tables, and none is built.
        tables = []
        build = levels._clbyte_table

        def build_spy(b):
            tables.append(b)
            return build(b)

        monkeypatch.setattr(levels, "_clbyte_table", build_spy)
        an = readme_factors_pair(PrimeField(13))
        a = poly(an.field, REF_A)
        assert encode(a, an) == encode(a, an)
        report = run_campaign(TrialConfig(an, an.K + 1, 1, 20, 1))
        assert report.successes == 20
        assert an.tables == (None, None) and tables == []


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
