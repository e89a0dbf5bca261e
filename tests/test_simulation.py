import dataclasses
import hashlib
import inspect
import json
import pickle
import random
import sys
import tracemalloc

import pytest

import polycrt.crt as crt
import polycrt.decoder as decoder
import polycrt.gf2 as gf2
import polycrt.kronecker as kronecker
import polycrt.simulation as simulation
from polycrt import (
    Branch,
    ErroneousResiduePair,
    NEG_INF,
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
from polycrt.poly import _from_bits

from conftest import poly
from reference_decoder import (
    pack_chain,
    reference_analyze_pair,
    reference_reconstruct,
    search_boundary_counterexample,
)


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


def oracle_values(field, counts, key):
    """The stored values of :func:`oracle_draws`, as the reader of ``_stream_draws`` returns them, listed."""
    return [drawn._value for drawn in oracle_draws(field, counts, key)]


def oracle_draws(field, counts, key):
    """Per count, a polynomial of that many draws read one at a time off ``hashlib``'s SHAKE-256 of ``key``.

    At p = 2 draw j is bit j of the stream, lowest bit of each byte first.
    At odd p each candidate is the next little-endian word of the smallest
    of 1, 2, 4 and 8 bytes that holds ``(p - 1).bit_length()`` bits, masked
    to those bits, and is a draw when below p.
    """
    p, n = field.p, sum(counts)
    if p == 2:
        stream = hashlib.shake_256(key.encode()).digest((n + 7) // 8)
        draws = [stream[j // 8] >> j % 8 & 1 for j in range(n)]
    else:
        k = (p - 1).bit_length()
        width = next(w for w in (1, 2, 4, 8) if 8 * w >= k)
        # At least half the candidates are kept, so 4n + 64 words suffice.
        stream = hashlib.shake_256(key.encode()).digest(width * (4 * n + 64))
        draws, at = [], 0
        while len(draws) < n:
            assert at < len(stream)
            word = int.from_bytes(stream[at:at + width], "little") & (1 << k) - 1
            at += width
            if word < p:
                draws.append(word)
    polys = []
    for count in counts:
        polys.append(Polynomial(field, draws[:count]))
        draws = draws[count:]
    return polys


# 65537 keeps about half its 17-bit candidates; 2**64 - 59 reads whole words.
ORACLE_PRIMES = [2, 3, 13, 65521, 65537, 2**61 - 1, 2**64 - 59]
# A reader draws a, e1 and e2: three counts, each of them empty in some.
ORACLE_COUNTS = [
    (0, 0, 0), (1, 0, 0), (7, 0, 0), (8, 0, 0), (9, 0, 0), (1500, 0, 0), (0, 8, 1), (0, 0, 9),
    (9, 0, 8), (13, 3, 3),
]
ORACLE_KEYS = ["0:0", "3:17", "boundary:6:1"]


def readme_trial_counts(analysis):
    """A trial's draw counts on the README pair, each level, guarantee and boundary tau."""
    counts = []
    for level in range(1, analysis.K + 2):
        spec = analysis.level_spec(level)
        for tau in (spec.error_bound_exclusive - 1, spec.error_bound_exclusive):
            counts.append((spec.dynamic_range_exclusive, tau + 1, tau + 1))
    return counts


def draw_mismatches(p):
    """The counts and keys above on which the reader of ``_stream_draws`` at p differs from the oracle.

    One reader per counts draws every key, so a reader that kept state from
    one key to the next would show here.
    """
    field, wrong = PrimeField(p), 0
    for counts in ORACLE_COUNTS:
        draw = simulation._stream_draws(counts, field)
        wrong += sum(list(draw(key)) != oracle_values(field, counts, key) for key in ORACLE_KEYS)
    return wrong


def campaign_mismatches(analysis):
    """Trials of ``analysis`` whose ``a``, ``e1`` and ``e2`` differ from the oracle's draws for their key.

    A guarantee and a boundary campaign run at the top level; trial ``idx``
    has the key ``f"4:{idx}"``.
    """
    wrong = 0
    level = analysis.K + 1
    bound = analysis.level_spec(level).error_bound_exclusive
    for tau, boundary in ((bound - 1, False), (bound + 1, True)):
        cfg = TrialConfig(analysis, level, tau, 50, 4, boundary)
        counts = (analysis.level_spec(level).dynamic_range_exclusive, tau + 1, tau + 1)
        for o in run_campaign(cfg).outcomes:
            wrong += [o.a, o.e1, o.e2] != oracle_draws(analysis.field, counts, f"4:{o.trial}")
    return wrong


def trial_mismatches(reference_pair):
    """:func:`campaign_mismatches` of the README pair and of the p = 13 pair."""
    return campaign_mismatches(reference_pair) + campaign_mismatches(odd_p_pair(13))


# The modules that define or hold the functions that mutants edit.
MUTANT_MODULES = (simulation, crt, decoder, gf2, kronecker)


def plant(monkeypatch, name, *edits):
    """Replace each function ``name`` by a copy of its source with the ``(old, new)`` edits made in it.

    ``name`` names functions of :data:`MUTANT_MODULES`: both kernel
    modules have a ``_decode``.  Each ``old`` must occur exactly once in all
    their sources together, so that every mutant is planted.  Each edited
    copy runs in its defining module's namespace and replaces the original
    in each module that holds it, so every caller runs the mutant.
    """
    originals = dict.fromkeys(vars(m)[name] for m in MUTANT_MODULES if name in vars(m))
    sources = {f: inspect.getsource(f) for f in originals}
    for old, new in edits:
        assert sum(source.count(old) for source in sources.values()) == 1
        sources = {f: source.replace(old, new) for f, source in sources.items()}
    for original, source in sources.items():
        if source == inspect.getsource(original):
            continue
        namespace = dict(vars(sys.modules[original.__module__]))
        exec("from __future__ import annotations\n" + source, namespace)
        for module in MUTANT_MODULES:
            if vars(module).get(name) is original:
                monkeypatch.setattr(module, name, namespace[name])


_P2_READ = 'int.from_bytes(shake_256(key.encode()).digest(size), "little")'
_WORDS = "_unpack(masked, more, width, code)"
# Each mutant: the function it edits, then its edits.  The big-endian reader
# reads the whole buffer big-endian, which reverses the word order and reads
# each word big-endian, masks each word's low bits as before, and puts the
# words back in order.
STREAM_MUTANTS = {
    "accepts p": ("_stream_draws", ("if v < p]", "if v <= p]")),
    "reduces instead of rejecting": (
        "_stream_draws", (f"[v for v in {_WORDS} if v < p]", f"[v % p for v in {_WORDS}]")
    ),
    "big-endian words": (
        "_stream_draws",
        ('int.from_bytes(read, "little")', 'int.from_bytes(read, "big")'),
        (_WORDS, f"{_WORDS}[::-1]"),
    ),
    "p = 2 bits top first": (
        "_stream_draws",
        (_P2_READ, f'int(format({_P2_READ}, f"0{{size << 3}}b")[::-1] or "0", 2)'),
    ),
    "e1 and e2 swapped": ("_run_trials", ("a, e1, e2 = draw(", "a, e2, e1 = draw(")),
}


def counted_reads(monkeypatch):
    """Per stream that the readers of ``_stream_draws`` open from now on, the digest sizes read off it."""
    streams = []

    class Counted:
        def __init__(self, data):
            self.stream, self.reads = hashlib.shake_256(data), []
            streams.append(self.reads)

        def digest(self, size):
            self.reads.append(size)
            return self.stream.digest(size)

    monkeypatch.setattr(simulation, "shake_256", Counted)
    return streams


def read_pair(reference_pair, p):
    """The README pair at p = 2, the CI pair at p = 13, and a seeded pair at p = 65537."""
    if p == 2:
        return reference_pair
    return odd_p_pair(p) if p == 13 else random_moduli_pair(PrimeField(p), random.Random(f"reads:{p}"))


# The digest sizes that each trial's stream reads, per stream in trial order,
# in the campaigns of test_reads_per_trial_are_pinned, pinned so that the
# read sizes a reader works out at its set-up cannot move what a trial
# reads.  At p = 65537 three of the 120 trials top their first read up.
READ_SIZES_SHA256 = {
    2: "a97e3cc5a78e5a8952b5758166499649a064f11a2e75ea21e418aa87355a0707",
    13: "a22587c48fb82d3f57829bc3952ed61f57684582b39e6aa8328496f4186fe6a0",
    65537: "482889a81fae0b811bc829e2ab5cfc0c9aba88954c2b509d6cd42a8ee2b1107b",
}


class TestTrialStream:
    # Campaign trials draw from SHAKE-256 of their key; an independent
    # per-coefficient loop over hashlib's SHAKE-256 must give the same draws.
    @pytest.mark.parametrize("p", ORACLE_PRIMES)
    def test_draws_match_the_oracle(self, p):
        assert draw_mismatches(p) == 0

    def test_campaign_trials_match_the_oracle(self, reference_pair):
        assert trial_mismatches(reference_pair) == 0

    def test_a_p2_trial_reads_once(self, f2, reference_pair, monkeypatch):
        streams = counted_reads(monkeypatch)
        for counts in readme_trial_counts(reference_pair):
            draw = simulation._stream_draws(counts, f2)
            for idx in range(50):
                del streams[:]
                assert list(draw(f"3:{idx}")) == oracle_values(f2, counts, f"3:{idx}")
                assert streams == [[(sum(counts) + 7) // 8]]

    def test_a_short_first_read_is_topped_up(self, monkeypatch):
        # At p = 65537 about half the 17-bit candidates are kept; the first
        # read for key "topup:39" keeps fewer than 1,500 of them.
        field, streams = PrimeField(65537), counted_reads(monkeypatch)
        drawn = simulation._stream_draws((1500, 0, 0), field)("topup:39")
        [reads] = streams
        assert len(reads) == 2 and reads[0] < reads[1]
        assert list(drawn) == oracle_values(field, (1500, 0, 0), "topup:39")

    @pytest.mark.parametrize("p", [2, 13, 65537])
    def test_reads_per_trial_are_pinned(self, reference_pair, monkeypatch, p):
        # Every level at tau = -1 (errors of no coefficient) and bound - 1 in
        # guarantee mode, and at tau = deg(m2) in boundary mode.
        analysis = read_pair(reference_pair, p)
        streams = counted_reads(monkeypatch)
        for level in range(1, analysis.K + 2):
            bound = analysis.level_spec(level).error_bound_exclusive
            for tau, boundary in ((-1, False), (bound - 1, False), (analysis.m2.degree, True)):
                run_campaign(TrialConfig(analysis, level, tau, 20, level, boundary))
        assert len(streams) == 60 * (analysis.K + 1)
        assert hashlib.sha256(json.dumps(streams).encode()).hexdigest() == READ_SIZES_SHA256[p]
        assert sum(len(reads) > 1 for reads in streams) == (3 if p == 65537 else 0)

    @pytest.mark.parametrize("p", [2, 13, 65537])
    def test_no_draw_reads_no_more_than_it_must(self, reference_pair, monkeypatch, p):
        # A campaign of no trial opens no stream.  Draws of no coefficient
        # read nothing at odd p, and an empty digest at p = 2.
        analysis = read_pair(reference_pair, p)
        streams = counted_reads(monkeypatch)
        run_campaign(TrialConfig(analysis, 1, -1, 0, 1))
        assert streams == []
        drawn = simulation._stream_draws((0, 0, 0), analysis.field)("1:0")
        assert drawn == ((0, 0, 0) if p == 2 else ((), (), ()))
        assert streams == [[0] if p == 2 else []]

    @pytest.mark.parametrize("p", [2, 3, 13])
    def test_counts_are_uniform(self, p):
        # 3,000 campaign-shaped trials of ten draws each: every value's
        # count lies within five standard deviations of n / p.
        field, counts, trials = PrimeField(p), (4, 3, 3), 3000
        seen = [0] * p
        draw = simulation._stream_draws(counts, field)
        for idx in range(trials):
            for count, drawn in zip(counts, draw(f"uniform:{idx}")):
                coeffs = _from_bits(field, drawn).coeffs
                for c in coeffs + (0,) * (count - len(coeffs)):
                    seen[c] += 1
        n = trials * sum(counts)
        sigma = (n * (1 / p) * (1 - 1 / p)) ** 0.5
        assert max(abs(c - n / p) for c in seen) <= 5 * sigma

    @pytest.mark.parametrize("mutant", STREAM_MUTANTS)
    def test_planted_mutants_mismatch(self, reference_pair, monkeypatch, mutant):
        plant(monkeypatch, *STREAM_MUTANTS[mutant])
        assert sum(map(draw_mismatches, ORACLE_PRIMES)) + trial_mismatches(reference_pair) > 0

    def test_swapped_errors_mismatch_in_each_field(self, reference_pair, monkeypatch):
        # Every trial, in either field, draws in _run_trials.
        plant(monkeypatch, *STREAM_MUTANTS["e1 and e2 swapped"])
        assert campaign_mismatches(reference_pair) > 0
        assert campaign_mismatches(odd_p_pair(13)) > 0


def long_chain_pair():
    """The first pair at p = 2 with K >= 7 that a seeded ``random_moduli_pair`` draws."""
    rng = random.Random("packed-trials")
    while True:
        analysis = random_moduli_pair(PrimeField(2), rng, (2, 3), (12, 14))
        if analysis.K >= 7:
            return analysis


def rebuilt_outcome(analysis, level, tau, outcome):
    """``outcome``'s fields rebuilt from its draws with ``divmod`` and ``reference_reconstruct``.

    Neither shares code with the decode core that campaign trials, ``encode``
    and ``reconstruct`` run on, so a fault in the core shows up here.
    """
    a, m1, m2 = outcome.a, analysis.m1, analysis.m2
    k2, a2 = divmod(a, m2)
    r1 = (divmod(a, m1)[1] + outcome.e1) % m1
    r2 = (a2 + outcome.e2) % m2
    result = reference_reconstruct(ErroneousResiduePair(r1, r2, analysis), level)
    residual = result.a_hat - a
    k2_match = result.k2_hat == k2
    return {
        "trial": outcome.trial, "a": a, "e1": outcome.e1, "e2": outcome.e2,
        "branch": result.branch, "k2_match": k2_match, "residual_deg": residual.degree,
        "residual_is_e2": residual == outcome.e2, "success": k2_match and residual.degree <= tau,
    }


def decoded_mismatches(analysis):
    """Campaign trials of ``analysis`` whose outcome differs from :func:`rebuilt_outcome`.

    Every level runs at tau = -1, 0, bound - 1, bound, deg(m1) and deg(m2),
    in boundary mode and, below the bound, in guarantee mode too: from
    deg(m_i) on, the received residue ``r_i`` can need its reduction.  Returns
    the count and the set of fields that differed.
    """
    wrong, fields = 0, set()
    for level in range(1, analysis.K + 2):
        bound = analysis.level_spec(level).error_bound_exclusive
        for tau in sorted({-1, 0, bound - 1, bound, analysis.m1.degree, analysis.m2.degree}):
            for boundary in (True, False) if tau < bound else (True,):
                cfg = TrialConfig(analysis, level, tau, 30, level, boundary)
                for outcome in run_campaign(cfg).outcomes:
                    expected = rebuilt_outcome(analysis, level, tau, outcome)
                    if vars(outcome) != expected:
                        wrong += 1
                        fields |= {k for k in expected if vars(outcome)[k] != expected[k]}
    return wrong, fields


def decoded_trial_pair(p):
    """A seeded pair at odd p whose chain has at least three levels."""
    rng = random.Random(f"decoded-trials:{p}")
    while True:
        analysis = random_moduli_pair(PrimeField(p), rng, (2, 3), (5, 7))
        if analysis.K >= 2:
            return analysis


# Each mutant: the functions it edits, by name, then its edits.  Those in
# crt._decoder and the kernels' _decode edit the core at both fields:
# ``stop`` is shared, and a_hat has one form per field.
CORE_MUTANTS = {
    "fold one step short": (
        "_decoder", ("stop, chain = level + 1, analysis.chain", "stop, chain = level, analysis.chain"),
    ),
    "r1 left unreduced": ("_run_trials", ("r1 = div1(add(a, e1))[1]", "r1 = add(div1(a)[1], e1)")),
    "r2 left unreduced": ("_run_trials", ("if wrap2:", "if False:")),
    "residual without r2": (
        "_decode",
        ("_cltable_mul(k2_hat, mults2) ^ r2", "_cltable_mul(k2_hat, mults2)"),
        ("_kronecker_mul(k2_hat, m2, p), r2)", "_kronecker_mul(k2_hat, m2, p), ())"),
    ),
}


# The pairs of TestPackedTrials, by name, each from the reference_pair fixture.
PACKED_TRIAL_PAIRS = {
    "readme": lambda reference_pair: reference_pair,
    "long chain": lambda _: long_chain_pair(),
    **{f"p = {p}": (lambda _, p=p: decoded_trial_pair(p)) for p in (3, 13, 65521, 2**61 - 1)},
}


def plant_moduli_errors(monkeypatch, analysis):
    """Make every campaign trial draw its ``a`` as before and take ``e1 = m1`` and ``e2 = m2``."""
    stream_draws, m1, m2 = simulation._stream_draws, analysis.m1._value, analysis.m2._value

    def planted(counts, field):
        draw = stream_draws(counts, field)
        return lambda key: (draw(key)[0], m1, m2)

    monkeypatch.setattr(simulation, "_stream_draws", planted)


def moduli_error_reports(analysis):
    """Boundary campaigns at tau = deg(m2), one per level, of 20 trials each.

    With the moduli as errors, each received residue is the true one plus
    its modulus, so only the reductions of ``r1`` and ``r2`` make it exact:
    the decoder then recovers ``k2`` and ``a`` at every level.  Unreduced,
    ``r2`` keeps the degree of ``m2``, and ``k2_hat`` is off by the constant
    quotient while ``a_hat`` is not, which these campaigns see at any p.
    """
    tau = analysis.m2.degree
    return [
        run_campaign(TrialConfig(analysis, level, tau, 20, level, boundary=True))
        for level in range(1, analysis.K + 2)
    ]


class TestPackedTrials:
    # Every trial decodes on stored values, in the core that encode and
    # reconstruct wrap; every field of its outcome must be the one that
    # divmod and the reference decoder give for its draws.
    def test_readme_pair(self, reference_pair):
        assert decoded_mismatches(reference_pair) == (0, set())

    def test_long_chain_pair(self):
        assert decoded_mismatches(long_chain_pair()) == (0, set())

    @pytest.mark.parametrize("p", [3, 13, 65521, 2**61 - 1])
    def test_odd_p_pairs(self, p):
        assert decoded_mismatches(decoded_trial_pair(p)) == (0, set())

    @pytest.mark.parametrize("mutant", CORE_MUTANTS)
    def test_planted_mutants_mismatch(self, reference_pair, monkeypatch, mutant):
        plant(monkeypatch, *CORE_MUTANTS[mutant])
        assert decoded_mismatches(reference_pair)[0] > 0
        assert decoded_mismatches(decoded_trial_pair(13))[0] > 0

    # At 2**61 - 1 the seeded pair's trials give the same outcomes under this
    # mutant: each branch is large_residue, and step 0 reduces mod m1.
    @pytest.mark.parametrize("pair", [name for name in PACKED_TRIAL_PAIRS if name != f"p = {2**61 - 1}"])
    def test_r1_left_unreduced_mismatches(self, reference_pair, monkeypatch, pair):
        plant(monkeypatch, *CORE_MUTANTS["r1 left unreduced"])
        assert decoded_mismatches(PACKED_TRIAL_PAIRS[pair](reference_pair))[0] > 0

    @pytest.mark.parametrize("pair", PACKED_TRIAL_PAIRS)
    def test_moduli_as_errors_decode_exactly(self, reference_pair, monkeypatch, pair):
        analysis = PACKED_TRIAL_PAIRS[pair](reference_pair)
        plant_moduli_errors(monkeypatch, analysis)
        for report in moduli_error_reports(analysis):
            assert report.failures == 0
            assert all(o.k2_match and o.residual_deg == NEG_INF for o in report.outcomes)

    @pytest.mark.parametrize("pair", PACKED_TRIAL_PAIRS)
    def test_moduli_as_errors_catch_r2_left_unreduced(self, reference_pair, monkeypatch, pair):
        # The mutant runs in a copy of the module's names: plant the draws first.
        analysis = PACKED_TRIAL_PAIRS[pair](reference_pair)
        plant_moduli_errors(monkeypatch, analysis)
        plant(monkeypatch, *CORE_MUTANTS["r2 left unreduced"])
        for report in moduli_error_reports(analysis):
            assert report.successes == 0


class TestBranchTable:
    # A trial looks its branch up by the length of its difference
    # (simulation._branches); every lookup must give _branch's branch.
    @pytest.mark.parametrize("p", [2, 13])
    def test_every_length_at_every_level(self, reference_pair, p):
        analysis = reference_pair if p == 2 else odd_p_pair(p)
        deg1, top = analysis.m1.degree, max(analysis.m1.degree, analysis.m2.degree)
        for level in range(1, analysis.K + 2):
            bound = analysis.level_spec(level).error_bound_exclusive
            branch_of = simulation._branches(analysis, level)
            for length in range(top + 2):
                expected = decoder._branch(length - 1, deg1, bound)
                # The first lookup works the branch out, the second reads it back.
                assert branch_of(length) is expected and branch_of(length) is expected

    @pytest.mark.parametrize("p", [2, 13])
    def test_campaigns_look_up_every_branch(self, reference_pair, monkeypatch, p):
        # Every level in guarantee mode at tau = bound - 1, and in boundary
        # mode at tau = deg(m2), where the received residues are reduced.
        analysis = reference_pair if p == 2 else odd_p_pair(p)
        lookups, branches = [], simulation._branches

        def spied(analysis, level):
            branch_of = branches(analysis, level)
            bound = analysis.level_spec(level).error_bound_exclusive

            def lookup(length):
                lookups.append((branch_of(length), decoder._branch(length - 1, analysis.m1.degree, bound)))
                return lookups[-1][0]

            return lookup

        monkeypatch.setattr(simulation, "_branches", spied)
        seen = set()
        for level in range(1, analysis.K + 2):
            bound = analysis.level_spec(level).error_bound_exclusive
            for tau, boundary in ((bound - 1, False), (analysis.m2.degree, True)):
                del lookups[:]
                report = run_campaign(TrialConfig(analysis, level, tau, 100, level, boundary))
                assert len(lookups) == 100 and all(got is expected for got, expected in lookups)
                assert [o.branch for o in report.outcomes] == [got for got, _ in lookups[100:]]
                seen |= {got for got, _ in lookups}
        # Residues that agree below the bound are rare at p = 13: no trial here draws them.
        assert seen == set(Branch) - ({Branch.EQUAL_RESIDUES} if p == 13 else set())


# Pinned reports on the CI pairs at p = 13 and p = 2**61 - 1, in guarantee
# and boundary mode, seed 3.
ODD_P_PAIRS = {
    13: ("x^5+x^3+2*x^2+2", "x^6+x^4+x^3+3*x^2+x+3"),
    2**61 - 1: ("x^5+7*x^3+7*x^2+10*x+35", "x^6+8*x^4+x^3+26*x^2+5*x+55"),
}


def odd_p_pair(p):
    field = PrimeField(p)
    m1, m2 = ODD_P_PAIRS[p]
    return analyze_pair(poly(field, m1), poly(field, m2))


def oracle_replay(cfg):
    """``run_campaign(cfg)``'s report and trials rebuilt from the oracle's draws and the reference decoder.

    The analysis is ``reference_analyze_pair`` of the moduli.  Each trial's
    residues and ``k2`` come from ``divmod``, its decode from
    ``reference_reconstruct``, and its verdict from the rule of
    ``_run_trials``: ``k2`` recovered and a residual of degree at most tau.
    Returns the report's JSON and, per trial, ``a``, ``e1``, ``e2``, the
    branch, ``k2_match`` and the residual's degree.
    """
    an = reference_analyze_pair(cfg.analysis.m1, cfg.analysis.m2)
    counts = (an.level_spec(cfg.level).dynamic_range_exclusive, cfg.tau + 1, cfg.tau + 1)
    branches = {b.value: 0 for b in Branch}
    degrees, details, trials = [], [], []
    for idx in range(cfg.trials):
        a, e1, e2 = oracle_draws(an.field, counts, f"{cfg.seed}:{idx}")
        k2, a2 = divmod(a, an.m2)
        r1 = (divmod(a, an.m1)[1] + e1) % an.m1
        r2 = (a2 + e2) % an.m2
        result = reference_reconstruct(ErroneousResiduePair(r1, r2, an), cfg.level)
        residual = (result.a_hat - a).degree
        branches[result.branch.value] += 1
        degrees.append(residual)
        trials.append((a, e1, e2, result.branch, result.k2_hat == k2, residual))
        if result.k2_hat != k2 or residual > cfg.tau:
            details.append({
                "trial": idx, "a": str(a), "e1": str(e1), "e2": str(e2),
                "branch": result.branch.value, "k2Match": result.k2_hat == k2,
                "residualDeg": residual if residual >= 0 else None, "error": None,
            })
    nonzero = [d for d in degrees if d >= 0]
    return {
        "config": cfg.to_json(),
        "successes": cfg.trials - len(details),
        "failures": len(details),
        "maxErrDeg": max(nonzero) if nonzero else None,
        "branchCounts": branches,
        "decodeErrors": 0,
        "failureDetails": details,
    }, trials


def check_replay(cfg):
    report = run_campaign(cfg)
    payload, trials = oracle_replay(cfg)
    assert payload == report.to_json()
    assert trials == [
        (o.a, o.e1, o.e2, o.branch, o.k2_match, o.residual_deg) for o in report.outcomes
    ]


def check_boundary_rate(cfg, failures):
    """A boundary campaign's failures lie within 4 sigma of ``trials * (1 - p**-(tau - A_i + 1))``.

    For tau < deg(m1) no residue wraps, and a trial fails exactly when
    ``deg(e1 - e2) >= A_i``.
    """
    an, bound = cfg.analysis, cfg.analysis.level_spec(cfg.level).error_bound_exclusive
    assert cfg.boundary and bound <= cfg.tau < an.m1.degree
    rate = 1 - an.field.p ** -(cfg.tau - bound + 1)
    sigma = (cfg.trials * rate * (1 - rate)) ** 0.5
    assert abs(failures - cfg.trials * rate) <= 4 * sigma


# (p, level, tau, trials, boundary, failures, digest).  The p = 2**61 - 1
# guarantee report holds no draw (300 large_residue trials, no failure),
# so it did not change with the trial streams.
ODD_P_REPORTS = [
    (13, 1, 2, 500, False, 0,
     "1f3c3cc7dc093ef47524441fcde04f83612cc8bcc9b398b2695fed5aabb6a9be"),
    (13, 1, 4, 500, True, 497,
     "e0f6c0a34646d6c46ecb44a1f928dcbfc46d93883cdade4df7677132103bd9f6"),
    (2**61 - 1, 3, 1, 300, False, 0,
     "32ff49dd58bb73d39747b967781c23e5c069957c206209be19b62ee76e0a20e0"),
    (2**61 - 1, 3, 3, 300, True, 300,
     "862224436761a5a5541ca7292ea5afaac36914695adfdfa13f086fa28641ed0e"),
]


def odd_p_config(p, level, tau, trials, boundary):
    return TrialConfig(
        analysis=odd_p_pair(p), level=level, tau=tau, trials=trials, seed=3, boundary=boundary,
    )


class TestOddPReportsPinned:
    @pytest.mark.parametrize("p, level, tau, trials, boundary, failures, digest", ODD_P_REPORTS)
    def test_campaign_report(self, p, level, tau, trials, boundary, failures, digest):
        cfg = odd_p_config(p, level, tau, trials, boundary)
        payload = run_campaign(cfg).to_json()
        assert payload["failures"] == failures
        if boundary:
            check_boundary_rate(cfg, failures)
        text = json.dumps(payload, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_boundary_counterexample(self):
        an = odd_p_pair(13)
        inst = search_boundary_counterexample(an, 2, budget=300, seed=6)
        assert (inst.trial, inst.seed, inst.level, inst.tau) == (0, 6, 2, 2)
        assert [
            str(v) for v in (inst.a, inst.e1, inst.e2, inst.r1, inst.r2, inst.k2_true, inst.k2_hat)
        ] == [
            "10*x^7+11*x^6+9*x^5+12*x^4+3*x^3+8*x^2+12*x+1",
            "3*x^2+6*x+9",
            "7*x^2+6*x+5",
            "7*x^4+8*x^3+6*x^2+9*x+12",
            "12*x^5+4*x^4+x^3+11*x^2+3*x+12",
            "10*x+11",
            "3*x^2+6*x+12",
        ]
        assert inst.residual_deg == 8


# The README pair over F_2 at every level, guarantee mode at tau = bound - 1
# and boundary mode at tau = bound, seed 3.
F2_REPORTS = [
    (1, False, 0, "0ff70f2366ac24f7315d5cada64fdf59233ea296774fda7db269b4b203004f81"),
    (1, True, 252, "1c72bcb0e2d67c1436a00f0a25ffd8685a0e3e3e88c154683cbe43e65a6c40cb"),
    (2, False, 0, "a8f6b293863b3f8cb934d3a4ab82d48307c610b981319807e62d06f77c1dde1e"),
    (2, True, 267, "1d040825a4bc4dfe52f1586bf8fd4198545efeefd659ec011d63bfd1494292c5"),
    (3, False, 0, "4aa69bd7b848748545c85845e4af57a2bf3b2262d1fdfc846563019ca15a85f0"),
    (3, True, 248, "aab25e6e816a18db7d5361faf663444602a131abc9e410a1c50f364bef417d4f"),
    (4, False, 0, "d0654acf5383bd6a258ffab05ec386b5e38ee926f8e6a9c47a4093c6ebdab843"),
    (4, True, 239, "550dac9434fb4e5c4aa20b0b650cf16dec175dba2836e549ae89b37c43cf1cdc"),
]


def f2_config(reference_pair, level, boundary):
    bound = reference_pair.level_spec(level).error_bound_exclusive
    return TrialConfig(
        analysis=reference_pair, level=level, tau=bound if boundary else bound - 1,
        trials=500, seed=3, boundary=boundary,
    )


class TestF2ReportsPinned:
    @pytest.mark.parametrize("level, boundary, failures, digest", F2_REPORTS)
    def test_campaign_report(self, reference_pair, level, boundary, failures, digest):
        cfg = f2_config(reference_pair, level, boundary)
        payload = run_campaign(cfg).to_json()
        assert payload["failures"] == failures
        if boundary:
            check_boundary_rate(cfg, failures)
        text = json.dumps(payload, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_boundary_counterexample(self, reference_pair):
        inst = search_boundary_counterexample(reference_pair, 3, budget=300, seed=6)
        assert (inst.trial, inst.seed, inst.level, inst.tau) == (1, 6, 3, 3)
        assert [
            str(v) for v in (inst.a, inst.e1, inst.e2, inst.r1, inst.r2, inst.k2_true, inst.k2_hat)
        ] == [
            "x^14+x^11+x^10+x^9+x^7+x^3",
            "x^2+1",
            "x^3+x+1",
            "x^7+x^5+x^3+x",
            "x^9+x^6+x^5+x^4+x^2",
            "x^3+1",
            "0",
        ]
        assert inst.residual_deg == 14


class TestPinnedReportsReplay:
    # Every trial of every pinned campaign, and of the CLI's simulate
    # goldens on the README pair, replays from the oracle's draws through
    # the reference analysis and decoder to the library's report.
    @pytest.mark.parametrize("level, boundary", [(level, b) for level, b, _, _ in F2_REPORTS])
    def test_f2_reports(self, reference_pair, level, boundary):
        cfg = f2_config(reference_pair, level, boundary)
        check_replay(cfg)

    @pytest.mark.parametrize("p, level, tau, trials, boundary", [r[:5] for r in ODD_P_REPORTS])
    def test_odd_p_reports(self, p, level, tau, trials, boundary):
        cfg = odd_p_config(p, level, tau, trials, boundary)
        check_replay(cfg)

    @pytest.mark.parametrize("level, tau, trials, seed, boundary", [(3, 2, 200, 0, False), (4, 2, 4, 1, True)])
    def test_cli_goldens(self, reference_pair, level, tau, trials, seed, boundary):
        cfg = TrialConfig(reference_pair, level, tau, trials, seed, boundary)
        check_replay(cfg)


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


def counted_draws(monkeypatch):
    """The keys of the trials drawn from now on, and the counts of each reader that ``_stream_draws`` sets up."""
    keys, setups, stream_draws = [], [], simulation._stream_draws

    def counted(counts, field):
        setups.append(counts)
        draw = stream_draws(counts, field)

        def counted_draw(key):
            keys.append(key)
            return draw(key)

        return counted_draw

    monkeypatch.setattr(simulation, "_stream_draws", counted)
    return keys, setups


class TestStreamingReport:
    # A report keeps counters and failing indices; every outcome it hands
    # out is a trial run again from its key.
    def test_each_trial_draws_once(self, reference_pair, monkeypatch):
        keys, _ = counted_draws(monkeypatch)
        report = run_campaign(TrialConfig(reference_pair, 3, 2, 200, 5))
        report.to_json()
        render_report(report)
        assert sorted(keys) == sorted(f"5:{idx}" for idx in range(200))
        del keys[:]
        assert len(report.outcomes) == 200 and keys == []
        assert report.outcomes[-1].trial == 199 and keys == ["5:199"]

    def test_boundary_details_replay_the_failing_trials(self, monkeypatch):
        cfg = odd_p_config(13, 1, 4, 100, True)
        keys, _ = counted_draws(monkeypatch)
        report = run_campaign(cfg)
        failing = [o for o in report.outcomes if not o.success]
        assert len(keys) == 200 and len(failing) == report.failures > 0
        del keys[:]
        details = report.to_json()["failureDetails"]
        assert details == [o.to_json() for o in failing]
        assert keys == [f"3:{o.trial}" for o in failing]

    @pytest.mark.parametrize("p", [2, 13])
    def test_a_campaign_or_replay_sets_up_one_reader(self, reference_pair, monkeypatch, p):
        # Boundary campaigns that fail some trials, so that the failure
        # details replay some; the empty campaign still sets its reader up.
        cfg = TrialConfig(reference_pair, 4, 2, 40, 8, True) if p == 2 else odd_p_config(13, 1, 4, 40, True)
        spec = cfg.analysis.level_spec(cfg.level)
        counts = (spec.dynamic_range_exclusive, cfg.tau + 1, cfg.tau + 1)
        keys, setups = counted_draws(monkeypatch)
        report = run_campaign(cfg)
        failing = report.failed_trials
        assert setups == [counts] and keys == [f"{cfg.seed}:{idx}" for idx in range(40)]
        assert len(failing) > 10
        for read, trials in (
            (lambda: report.outcomes[3], [3]),
            (lambda: report.outcomes[5:8], [5, 6, 7]),
            (lambda: list(report.outcomes), range(40)),
            (report.to_json, failing),
            (lambda: render_report(report), failing[:10]),
            (lambda: run_campaign(dataclasses.replace(cfg, trials=0)), []),
        ):
            del keys[:], setups[:]
            read()
            assert setups == [counts] and keys == [f"{cfg.seed}:{idx}" for idx in trials]
        del setups[:]
        assert len(report.outcomes) == 40 and setups == []

    @pytest.mark.parametrize("p, counts", [(2, (1, 25, 174)), (13, (1, 15, 184))])
    def test_a_report_without_failures_sets_nothing_up(self, reference_pair, monkeypatch, p, counts):
        # A guarantee campaign fails no trial, so its JSON and its text replay
        # none: neither sets up a reader, nor the core or the branch lookup
        # beside it.  Their output is the one pinned here.
        cfg = TrialConfig(reference_pair, 3, 2, 200, 1) if p == 2 else odd_p_config(13, 1, 2, 200, False)
        report = run_campaign(cfg)
        keys, setups = counted_draws(monkeypatch)
        payload, text = report.to_json(), render_report(report)
        assert keys == [] and setups == []
        branch_counts = dict(zip(("equal_residues", "folded_difference", "large_residue"), counts))
        assert payload == {
            "config": cfg.to_json(), "successes": 200, "failures": 0, "maxErrDeg": 2,
            "branchCounts": branch_counts, "decodeErrors": 0, "failureDetails": [],
        }
        assert text.splitlines() == [
            "mode = guarantee", "trials = 200", "successes = 200", "failures = 0",
            "max residual degree = 2",
            "branch counts: " + ", ".join(f"{k}={v}" for k, v in branch_counts.items()),
        ]

    def test_outcomes_read_as_a_list(self, reference_pair):
        outcomes = run_campaign(TrialConfig(reference_pair, 4, 1, 30, 6)).outcomes
        listed = list(outcomes)
        assert [o.trial for o in listed] == list(range(30))
        assert outcomes == listed and listed == outcomes and outcomes == outcomes
        assert outcomes != listed[:-1] and outcomes != listed[::-1] and outcomes != tuple(listed)
        assert [outcomes[i] for i in range(-30, 30)] == listed + listed
        assert outcomes[3:9] == listed[3:9] and outcomes[::-7] == listed[::-7]
        for i in (30, -31):
            with pytest.raises(IndexError):
                outcomes[i]
        with pytest.raises(TypeError):
            outcomes[0] = listed[0]

    def test_successes_and_failures_are_derived_not_settable(self):
        report = run_campaign(odd_p_config(13, 1, 4, 100, True))
        assert report.failures == len(report.failed_trials) > 0
        assert report.successes == 100 - report.failures
        assert report.successes == sum(o.success for o in report.outcomes)
        for name in ("successes", "failures"):
            with pytest.raises(TypeError):
                dataclasses.replace(report, **{name: getattr(report, name)})

    def test_memory_does_not_grow_with_the_trial_count(self, reference_pair):
        # A TrialOutcome kept per trial would peak at about 10 MiB here.
        cfg = TrialConfig(reference_pair, 3, 2, 20_000, 7)
        run_campaign(dataclasses.replace(cfg, trials=10))
        tracemalloc.start()
        try:
            report = run_campaign(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.successes == 20_000
        assert peak < 1 << 20


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
        plant(monkeypatch, *CORE_MUTANTS["fold one step short"])
        wrong = {
            p: sum(
                criterion_mispredictions(analysis, 20, 1000 * index)
                for index, analysis in enumerate(criterion_pairs(p))
            )
            for p in CRITERION_PRIMES
        }
        assert all(wrong.values()), wrong

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
