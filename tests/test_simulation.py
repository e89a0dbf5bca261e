import dataclasses
import hashlib
import json
import pickle
import random

import pytest

import polycrt.crt as crt
import polycrt.decoder as decoder
import polycrt.simulation as simulation
from polycrt import (
    ErroneousResiduePair,
    PolyCrtError,
    Polynomial,
    PrimeField,
    TrialConfig,
    analyze_pair,
    encode,
    random_moduli_pair,
    reconstruct,
    render_report,
    run_campaign,
    sample_error,
    sample_monic,
    sample_polynomial,
)

from conftest import poly
from reference_decoder import pack_chain, search_boundary_counterexample


class TestSampling:
    def test_zero_bound_always_zero(self, f2):
        rng = random.Random(0)
        for _ in range(20):
            assert sample_polynomial(0, f2, rng).is_zero

    def test_degree_stays_below_bound(self, f13):
        rng = random.Random(1)
        for _ in range(200):
            assert sample_polynomial(5, f13, rng).degree < 5

    def test_same_seed_same_sequence(self, f13):
        rng_a, rng_b = random.Random(42), random.Random(42)
        first = [sample_polynomial(6, f13, rng_a) for _ in range(50)]
        second = [sample_polynomial(6, f13, rng_b) for _ in range(50)]
        assert first == second

    def test_uniformity_chi_square(self, f2):
        # 8 equally likely outcomes over 8000 draws; the frozen seed keeps
        # the statistic fixed, well under the 0.999 quantile of chi2(7).
        rng = random.Random(1234)
        counts = {}
        for _ in range(8000):
            key = sample_polynomial(3, f2, rng).coeffs
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 8
        expected = 1000.0
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2 < 24.32

    def test_error_tau_minus_one_is_zero(self, f2):
        rng = random.Random(2)
        for _ in range(10):
            assert sample_error(-1, f2, rng).is_zero

    def test_error_degree_bounded_and_all_values_reachable(self, f2):
        rng = random.Random(7)
        seen = set()
        for _ in range(2000):
            e = sample_error(2, f2, rng)
            assert e.degree <= 2
            seen.add(e.coeffs)
        assert len(seen) == 8
        assert poly(f2, "x^2+x+1").coeffs in seen

    def test_invalid_bounds_rejected(self, f2):
        rng = random.Random(3)
        with pytest.raises(ValueError):
            sample_polynomial(-1, f2, rng)
        with pytest.raises(ValueError):
            sample_error(-2, f2, rng)
        with pytest.raises(ValueError):
            sample_monic(-1, f2, rng)

    def test_sample_monic(self, f13):
        rng = random.Random(4)
        for _ in range(100):
            d = rng.randint(0, 6)
            m = sample_monic(d, f13, rng)
            assert m.degree == d and m.lead == 1


# Past 2**32 each getrandbits call reads more than one 32-bit word.
STREAM_PRIMES = [2, 3, 13, 251, 65521, 2**31 - 1, 2**61 - 1, 2**64 - 59]


class TestSamplingStream:
    # The samplers must draw exactly what [rng.randrange(p) for ...] draws on
    # a twin generator and leave it in the same state; if a CPython release
    # changes randrange, this fails instead of silently changing reports.
    @pytest.mark.parametrize("p", STREAM_PRIMES)
    @pytest.mark.parametrize("seed", ["0", "3:17", "boundary:6:1"])
    def test_samplers_match_randrange(self, p, seed):
        field = PrimeField(p)
        rng, twin = random.Random(seed), random.Random(seed)
        for n in range(41):
            for sampler, count, tail in (
                (lambda: sample_polynomial(n, field, rng), n, []),
                (lambda: sample_error(n - 1, field, rng), n, []),
                (lambda: sample_monic(n, field, rng), n, [1]),
            ):
                drawn = sampler()
                expected = [twin.randrange(p) for _ in range(count)] + tail
                assert drawn == Polynomial(field, expected)
                assert rng.getstate() == twin.getstate()

    # 2**61 - 1 takes two 32-bit words per getrandbits call.
    @pytest.mark.parametrize("p", [2, 3, 13, 65521, 2**31 - 1, 2**61 - 1])
    @pytest.mark.parametrize("top", [(), (1,)])
    def test_one_draw_over_counts_matches_single_draws(self, p, top):
        field = PrimeField(p)
        for counts in [(), (0,), (0, 0), (5, 0, 3), (13, 6, 6), (0, 40, 1, 0)]:
            rng, twin = random.Random(f"draw:{p}"), random.Random(f"draw:{p}")
            drawn = simulation._draw(counts, field, rng, top)
            singles = [simulation._draw((n,), field, twin, top)[0] for n in counts]
            assert drawn == singles
            assert rng.getstate() == twin.getstate()

    @pytest.mark.parametrize("seed", ["0", "3:17", "boundary:6:1"])
    def test_reseeding_a_used_generator_matches_a_fresh_one(self, seed):
        rng = random.Random("used")
        sample_polynomial(40, PrimeField(2**61 - 1), rng)
        rng.gauss(0.0, 1.0)  # leaves gauss_next set
        rng.seed(seed)
        assert rng.getstate() == random.Random(seed).getstate()


def randrange_draws(field, counts, seed):
    """Per count, a polynomial of that many ``randrange(p)`` draws from ``random.Random(seed)``."""
    twin = random.Random(seed)
    return [Polynomial(field, [twin.randrange(field.p) for _ in range(n)]) for n in counts]


def counted_reads(rng):
    """The ``getrandbits`` sizes that ``rng`` is asked for, from now on."""
    reads, real = [], rng.getrandbits

    def counting(k):
        reads.append(k)
        return real(k)

    rng.getrandbits = counting
    return reads


def readme_trial_counts(analysis):
    """A trial's draw counts on the README pair, each level, guarantee and boundary tau."""
    counts = []
    for level in range(1, analysis.K + 2):
        spec = analysis.level_spec(level)
        for tau in (spec.error_bound_exclusive - 1, spec.error_bound_exclusive):
            counts.append((spec.dynamic_range_exclusive, tau + 1, tau + 1))
    return counts


# Reading the coefficient off bit 29 instead of bit 30, and keeping rejected words.
READ_AHEAD_MUTANTS = [
    (bytes(b"01"[b >> 5 & 1] for b in range(256)), simulation._REJECTED_TOP_BYTES),
    (simulation._TOP_BYTE_DIGIT, b""),
]


class TestF2ReadAhead:
    # A p = 2 trial reads its draws in one getrandbits call; the values must
    # be those of _draw and of randrange(2).  Only the state it leaves may differ.
    @pytest.mark.parametrize("seed", ["0", "3:17", "boundary:6:1", 7])
    def test_matches_draw_and_randrange(self, f2, reference_pair, seed):
        cases = [(), (0,), (1,), (0, 0, 0), (1, 0, 1), (1500,), (700, 0, 400)]
        for counts in cases + readme_trial_counts(reference_pair):
            drawn = simulation._draw_f2(counts, f2, random.Random(seed))
            assert drawn == simulation._draw(counts, f2, random.Random(seed))
            assert drawn == randrange_draws(f2, counts, seed)

    def test_a_campaign_trial_reads_once(self, f2, reference_pair):
        for counts in readme_trial_counts(reference_pair):
            for idx in range(50):
                rng = random.Random(f"3:{idx}")
                reads = counted_reads(rng)
                simulation._draw_f2(counts, f2, rng)
                assert len(reads) == 1

    def test_a_short_first_read_is_topped_up(self, f2):
        # Seed 1's first read of 2 * 1500 + 32 words accepts fewer than 1500.
        rng = random.Random(1)
        reads = counted_reads(rng)
        drawn = simulation._draw_f2((1500,), f2, rng)
        assert len(reads) == 2 and reads[0] == 32 * (2 * 1500 + simulation._READ_MARGIN)
        assert drawn == randrange_draws(f2, (1500,), 1)

    @pytest.mark.parametrize("digit, rejected", READ_AHEAD_MUTANTS)
    def test_planted_mutants_mismatch(self, f2, reference_pair, monkeypatch, digit, rejected):
        monkeypatch.setattr(simulation, "_TOP_BYTE_DIGIT", digit)
        monkeypatch.setattr(simulation, "_REJECTED_TOP_BYTES", rejected)
        for counts in readme_trial_counts(reference_pair):
            for idx in range(5):
                seed = f"3:{idx}"
                assert simulation._draw_f2(counts, f2, random.Random(seed)) != randrange_draws(
                    f2, counts, seed
                )


# Reports pinned before the samplers drew through getrandbits: the CI pairs
# at p = 13 and p = 2**61 - 1, in guarantee and boundary mode, seed 3.
ODD_P_PAIRS = {
    13: ("x^5+x^3+2*x^2+2", "x^6+x^4+x^3+3*x^2+x+3"),
    2**61 - 1: ("x^5+7*x^3+7*x^2+10*x+35", "x^6+8*x^4+x^3+26*x^2+5*x+55"),
}


def odd_p_pair(p):
    field = PrimeField(p)
    m1, m2 = ODD_P_PAIRS[p]
    return analyze_pair(poly(field, m1), poly(field, m2))


class TestOddPReportsPinned:
    @pytest.mark.parametrize(
        "p, level, tau, trials, boundary, failures, digest",
        [
            (13, 1, 2, 500, False, 0,
             "573c1d8d12ece466b1685aa638e4d4d6c910d9349e7f5820413e0514f2298fdc"),
            (13, 1, 4, 500, True, 495,
             "7a24b4940381348af039cf4254af10475fe9b08e25f85b9df215e789173c119a"),
            (2**61 - 1, 3, 1, 300, False, 0,
             "32ff49dd58bb73d39747b967781c23e5c069957c206209be19b62ee76e0a20e0"),
            (2**61 - 1, 3, 3, 300, True, 300,
             "fb4ccdeb8c5175ad698583bb804171db341186d0077e0ff66fdeed8f789f88f0"),
        ],
    )
    def test_campaign_report(self, p, level, tau, trials, boundary, failures, digest):
        cfg = TrialConfig(
            analysis=odd_p_pair(p), level=level, tau=tau, trials=trials,
            seed=3, boundary=boundary,
        )
        payload = run_campaign(cfg).to_json()
        assert payload["failures"] == failures
        text = json.dumps(payload, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_boundary_counterexample(self):
        an = odd_p_pair(13)
        inst = search_boundary_counterexample(an, 2, budget=300, seed=6)
        assert (inst.trial, inst.seed, inst.level, inst.tau) == (1, 6, 2, 2)
        assert [
            str(v) for v in (inst.a, inst.e1, inst.e2, inst.r1, inst.r2, inst.k2_true, inst.k2_hat)
        ] == [
            "x^8+11*x^7+12*x^6+11*x^5+5*x^4+11*x^3+12*x^2+5*x+4",
            "2*x^2+7*x+2",
            "4*x^2+3*x+4",
            "11*x^4+2*x^3+9*x^2+3*x+10",
            "12*x^5+6*x^4+5*x^3+8*x^2+3*x+1",
            "x^2+11*x+11",
            "9*x^2+9*x+5",
        ]
        assert inst.residual_deg == 8


# The README pair over F_2 at every level, guarantee mode at tau = bound - 1
# and boundary mode at tau = bound, seed 3, pinned before a trial drew its
# three polynomials in one call and built its outcome without __init__.
F2_REPORTS = [
    (1, False, 0, "d4c2f1948e2bad2a251fd0a263c75eba19167d2f03af7ebb303e1a5de9dffdb6"),
    (1, True, 272, "44c5e2df6dda7ebb2078998c8acdc1a01bbcd12ad9b819440e016f780d41b02e"),
    (2, False, 0, "90b819d2f6225e0fef012953f4f0678a780325d87d5a8f41bb00b7179968cb75"),
    (2, True, 246, "455c85ba1e466637641699d0d8a92eb37dfb89685470357024744dda454cd1c4"),
    (3, False, 0, "4b7bf8301976672a3c7d9c9ad93bbd3f48115cb740072184584d77d493adbf68"),
    (3, True, 249, "19e0d53fd84d635c66255c95d73fcbf6f1782531a7e3fba02ab5287df6c9c5a3"),
    (4, False, 0, "f35d99b81b9274a2c10f9e96b59c76de48c6a453c5a52c49cde86e5f11c521bf"),
    (4, True, 244, "6122e38b20d8816262dea1102839204316c5209e3c1139c5f8d34f597f0ed37b"),
]


class TestF2ReportsPinned:
    @pytest.mark.parametrize("level, boundary, failures, digest", F2_REPORTS)
    def test_campaign_report(self, reference_pair, level, boundary, failures, digest):
        bound = reference_pair.level_spec(level).error_bound_exclusive
        cfg = TrialConfig(
            analysis=reference_pair, level=level, tau=bound if boundary else bound - 1,
            trials=500, seed=3, boundary=boundary,
        )
        payload = run_campaign(cfg).to_json()
        assert payload["failures"] == failures
        text = json.dumps(payload, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_boundary_counterexample(self, reference_pair):
        inst = search_boundary_counterexample(reference_pair, 3, budget=300, seed=6)
        assert (inst.trial, inst.seed, inst.level, inst.tau) == (3, 6, 3, 3)
        assert [
            str(v) for v in (inst.a, inst.e1, inst.e2, inst.r1, inst.r2, inst.k2_true, inst.k2_hat)
        ] == [
            "x^15+x^13+x^10+x^9+x^5+x^2+x+1",
            "1",
            "x^3",
            "x^6+x^5+x^4+x^2+1",
            "x^10+x^6+x^5+x^3+x^2",
            "x^4+x^2+1",
            "x^4+x^3+x^2",
        ]
        assert inst.residual_deg == 14


class TestCampaignSkipsTheResidueCheck:
    # A trial's received residues are reduced by construction, so it skips
    # the check that an ErroneousResiduePair built by a caller still runs;
    # the report stays the one pinned above.
    def test_guarantee_campaign_report(self, reference_pair, monkeypatch):
        def refuse(*args):
            raise AssertionError("residue check ran")

        monkeypatch.setattr(crt, "_check_residues", refuse)
        monkeypatch.setattr(decoder, "_check_residues", refuse)
        level, _, failures, digest = F2_REPORTS[4]
        tau = reference_pair.level_spec(level).error_bound_exclusive - 1
        cfg = TrialConfig(analysis=reference_pair, level=level, tau=tau, trials=500, seed=3)
        payload = run_campaign(cfg).to_json()
        assert payload["failures"] == failures
        text = json.dumps(payload, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        zero = Polynomial(reference_pair.field)
        with pytest.raises(AssertionError, match="residue check ran"):
            ErroneousResiduePair(zero, zero, reference_pair)


def library_records(analysis):
    """A TrialOutcome, ReconstructionResult and FoldingWitness as the library builds them."""
    level = analysis.K + 1
    cfg = TrialConfig(
        analysis=analysis, level=level, tau=analysis.level_spec(level).error_bound_exclusive,
        trials=3, seed=8, boundary=True,
    )
    outcome = run_campaign(cfg).outcomes[-1]
    residues, witness = encode(outcome.a, analysis)
    result = reconstruct(ErroneousResiduePair(residues.a1, residues.a2, analysis), level)
    return [outcome, result, witness]


class TestLibraryBuiltRecords:
    # Records the library builds without __init__ must be indistinguishable
    # from the same records built by their public constructors.
    @pytest.mark.parametrize("p", [2, 13])
    def test_match_constructed_records(self, p, reference_pair):
        analysis = reference_pair if p == 2 else odd_p_pair(13)
        for record in library_records(analysis):
            values = {f.name: getattr(record, f.name) for f in dataclasses.fields(record)}
            built = type(record)(**values)
            assert record == built and built == record
            assert hash(record) == hash(built)
            assert repr(record) == repr(built)
            assert vars(record) == vars(built)
            restored = pickle.loads(pickle.dumps(record))
            assert type(restored) is type(record) and restored == built
            assert pickle.dumps(record) == pickle.dumps(built)
            assert dataclasses.replace(record) == built
            assert dataclasses.asdict(record) == dataclasses.asdict(built)
            for name, value in values.items():
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(record, name, value)


class TestRandomModuliPair:
    def test_pairs_are_valid(self, f2, f13):
        rng = random.Random(5)
        for field in (f2, f13):
            for _ in range(30):
                an = random_moduli_pair(field, rng)
                assert an.m.degree >= 1
                assert an.gamma1.degree >= 1
                assert an.K >= 0

    def test_degree_ranges_respected(self, f13):
        rng = random.Random(6)
        for _ in range(30):
            an = random_moduli_pair(f13, rng, gcd_degree=(2, 2), cofactor_degree=(1, 2))
            assert an.m.degree == 2
            assert 1 <= an.gamma1.degree <= 2
            assert 1 <= an.gamma2.degree <= 2

    def test_constant_factors_rejected(self, f2):
        rng = random.Random(8)
        with pytest.raises(ValueError, match="nonconstant"):
            random_moduli_pair(f2, rng, gcd_degree=(0, 2))
        with pytest.raises(ValueError, match="nonconstant"):
            random_moduli_pair(f2, rng, cofactor_degree=(0, 2))

    def test_gives_up_after_the_attempt_cap(self, f2, monkeypatch):
        monkeypatch.setattr(simulation, "_MAX_COPRIME_ATTEMPTS", 0)
        with pytest.raises(PolyCrtError, match="in 0 attempts"):
            random_moduli_pair(f2, random.Random(9))


class TestTrialConfig:
    def test_guarantee_mode_requires_tau_below_bound(self, reference_pair):
        with pytest.raises(ValueError):
            TrialConfig(analysis=reference_pair, level=3, tau=3, trials=10, seed=0)
        TrialConfig(analysis=reference_pair, level=3, tau=2, trials=10, seed=0)

    def test_boundary_mode_lifts_the_bound(self, reference_pair):
        cfg = TrialConfig(
            analysis=reference_pair, level=3, tau=3, trials=10, seed=0, boundary=True
        )
        assert cfg.boundary

    def test_invalid_tau_and_trials(self, reference_pair):
        with pytest.raises(ValueError):
            TrialConfig(analysis=reference_pair, level=3, tau=-2, trials=10, seed=0)
        with pytest.raises(ValueError):
            TrialConfig(analysis=reference_pair, level=3, tau=1, trials=-1, seed=0)


class TestRunCampaign:
    def test_guarantee_mode_never_fails(self, micro_pair):
        cfg = TrialConfig(analysis=micro_pair, level=1, tau=1, trials=300, seed=10)
        report = run_campaign(cfg)
        assert report.successes == 300
        assert report.failures == 0
        assert report.max_residual_deg <= 1
        assert all(o.residual_is_e2 for o in report.outcomes)

    def test_reference_level3_campaign(self, reference_pair):
        cfg = TrialConfig(analysis=reference_pair, level=3, tau=2, trials=500, seed=11)
        report = run_campaign(cfg)
        assert report.successes == 500 and report.failures == 0
        assert report.max_residual_deg <= 2

    def test_empty_campaign(self, micro_pair):
        report = run_campaign(
            TrialConfig(analysis=micro_pair, level=1, tau=1, trials=0, seed=0)
        )
        assert report.successes == 0 and report.failures == 0
        assert report.outcomes == []
        assert report.to_json()["maxErrDeg"] is None

    def test_determinism(self, reference_pair):
        cfg = TrialConfig(analysis=reference_pair, level=2, tau=3, trials=200, seed=12)
        a = run_campaign(cfg).to_json()
        b = run_campaign(cfg).to_json()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_branch_counts_cover_all_trials(self, reference_pair):
        cfg = TrialConfig(analysis=reference_pair, level=1, tau=5, trials=250, seed=13)
        report = run_campaign(cfg)
        assert sum(report.branch_counts.values()) == 250

    def test_report_text_rendering(self, micro_pair):
        cfg = TrialConfig(analysis=micro_pair, level=1, tau=1, trials=50, seed=14)
        text = render_report(run_campaign(cfg))
        assert "mode = guarantee" in text
        assert "successes = 50" in text
        assert "failures = 0" in text

    def test_boundary_mode_records_failures_without_raising(self, reference_pair):
        # tau equal to the level bound: failures are possible and recorded.
        cfg = TrialConfig(
            analysis=reference_pair, level=4, tau=2, trials=300, seed=15, boundary=True
        )
        report = run_campaign(cfg)
        assert report.successes + report.failures == 300
        payload = report.to_json()
        assert payload["failures"] == len(payload["failureDetails"])

    @pytest.mark.parametrize("p", [2, 3, 13])
    def test_decode_never_raises_outside_the_bounds(self, p):
        # tau at the level bound, at deg(m1) and at deg(m2) + 2: the larger
        # errors wrap mod m_i, and every trial still decodes to a verdict.
        field = PrimeField(p)
        rng = random.Random(f"decode-never-raises:{p}")
        failures = 0
        for _ in range(3):
            analysis = random_moduli_pair(field, rng)
            for level in range(1, analysis.K + 2):
                bound = analysis.level_spec(level).error_bound_exclusive
                for tau in (bound, analysis.m1.degree, analysis.m2.degree + 2):
                    cfg = TrialConfig(
                        analysis=analysis, level=level, tau=tau, trials=20,
                        seed=p, boundary=True,
                    )
                    report = run_campaign(cfg)
                    assert sum(report.branch_counts.values()) == 20
                    assert report.successes + report.failures == 20
                    details = report.to_json()["failureDetails"]
                    assert len(details) == report.failures
                    assert all(d["error"] is None for d in details)
                    failures += report.failures
        assert failures > 0


class TestBoundarySearch:
    def test_found_instance_replays(self, reference_pair):
        # Frozen seed known to produce a failure at tau = bound on level 4.
        inst = search_boundary_counterexample(reference_pair, 4, budget=300, seed=0)
        assert inst is not None
        assert inst.tau == reference_pair.level_spec(4).error_bound_exclusive
        # The instance replays the trial's a, e1 and e2 through encode and
        # reconstruct: the failure the trial judged shows in the replay.
        assert inst.k2_hat != inst.k2_true or inst.residual_deg > inst.tau
        a_hat = inst.k2_hat * reference_pair.m2 + inst.r2
        assert (a_hat - inst.a).degree == inst.residual_deg

    def test_search_within_guarantee_style_budget_can_miss(self, micro_pair):
        # A single trial may well find nothing; None is a valid outcome.
        outcome = search_boundary_counterexample(micro_pair, 1, budget=1, seed=123)
        assert outcome is None or outcome.trial == 0


# The primes of test_differential.py.
CRITERION_PRIMES = [2, 3, 13, 65521, 1048573, 2**61 - 1]


def criterion_mispredictions(analysis, trials, seed):
    """Campaign trials whose ``k2_match`` the exact decode criterion misjudges.

    At level i, with ``A_i`` and ``R_i`` its error bound and dynamic range,
    the decoder recovers ``k2`` exactly when ``deg(a) < R_i`` and ``deg(E
    mod m1) < A_i``, for ``E = (r1 - a1) - (r2 - a2)``, the residues rebuilt
    by ``encode``: the cascade then strips the clean difference and leaves
    ``E mod m1``, and otherwise it strips part of ``E`` too.  Every level is
    run at tau = A_i - 1 in guarantee mode and at A_i - 1, A_i and A_i + 1
    in boundary mode, each campaign on its own seed from ``seed`` up.
    """
    m1, m2 = analysis.m1, analysis.m2
    wrong = 0
    for level in range(1, analysis.K + 2):
        spec = analysis.level_spec(level)
        bound = spec.error_bound_exclusive
        for tau, boundary in ((bound - 1, False), (bound - 1, True), (bound, True), (bound + 1, True)):
            seed += 1
            cfg = TrialConfig(
                analysis=analysis, level=level, tau=tau, trials=trials, seed=seed,
                boundary=boundary,
            )
            for outcome in run_campaign(cfg).outcomes:
                residues, _ = encode(outcome.a, analysis)
                a1, a2 = residues.a1, residues.a2
                e = ((a1 + outcome.e1) % m1 - a1) - ((a2 + outcome.e2) % m2 - a2)
                exact = outcome.a.degree < spec.dynamic_range_exclusive and (e % m1).degree < bound
                wrong += outcome.k2_match != exact
    return wrong


def criterion_pairs(p):
    """Two seeded pairs at p: the default shape, and one with longer chains."""
    field = PrimeField(p)
    rng = random.Random(f"decode-criterion:{p}")
    return [random_moduli_pair(field, rng), random_moduli_pair(field, rng, (2, 4), (4, 6))]


class TestDecodeCriterion:
    @pytest.mark.parametrize("p", CRITERION_PRIMES)
    def test_criterion_predicts_every_trial(self, p):
        for index, analysis in enumerate(criterion_pairs(p)):
            assert criterion_mispredictions(analysis, 20, 1000 * index) == 0

    def test_criterion_catches_a_cascade_one_step_short(self, monkeypatch):
        reduce_chain = decoder._reduce_chain
        monkeypatch.setattr(
            decoder, "_reduce_chain", lambda v, chain, stop: reduce_chain(v, chain, stop - 1)
        )
        wrong = sum(
            criterion_mispredictions(analysis, 20, 1000 * index)
            for p in CRITERION_PRIMES for index, analysis in enumerate(criterion_pairs(p))
        )
        assert wrong > 0

    def test_criterion_catches_a_wrong_last_cofactor(self):
        wrong = 0
        for p in CRITERION_PRIMES:
            for index, analysis in enumerate(criterion_pairs(p)):
                zero, one = Polynomial(analysis.field), Polynomial(analysis.field, (1,))
                cofactors = analysis.cascade_cofactors
                broken = pack_chain(
                    analysis.field, (analysis.m1,) + analysis.cascade_moduli,
                    (zero,) + cofactors[:-1] + (cofactors[-1] + one,), analysis.m2.degree + 1,
                )
                broken = dataclasses.replace(analysis, chain=broken)
                wrong += criterion_mispredictions(broken, 20, 1000 * index)
        assert wrong > 0

    @pytest.mark.parametrize("level", [1, 2, 3, 4])
    def test_boundary_failure_rate(self, reference_pair, level):
        # For tau < deg(m1) no residue wraps, E = e1 - e2 is uniform of
        # degree at most tau, and a trial fails exactly when deg(E) >= A_i:
        # with probability 1 - p**-(tau - A_i + 1).
        an, trials = reference_pair, 2000
        bound = an.level_spec(level).error_bound_exclusive
        for tau in (bound, bound + 1):
            assert tau < an.m1.degree
            cfg = TrialConfig(
                analysis=an, level=level, tau=tau, trials=trials, seed=29, boundary=True
            )
            rate = 1 - an.field.p ** -(tau - bound + 1)
            sigma = (trials * rate * (1 - rate)) ** 0.5
            assert abs(run_campaign(cfg).failures - trials * rate) <= 4 * sigma
