"""End-to-end acceptance checks.

Each test covers one numbered criterion, asserts exact values (the
arithmetic is exact, so there are no tolerances to tune), enforces its
runtime budget, and prints one PASS line; run with ``pytest -v -s`` to see
the lines.
"""

import json
import math
import os
import random
import subprocess
import sys
import time

from polycrt import (
    ErroneousResiduePair,
    Polynomial,
    PrimeField,
    TrialConfig,
    analyze_pair,
    crt_pair,
    encode,
    random_moduli_pair,
    reconstruct,
    residue_error_bound,
    run_campaign,
    sample_monic,
    sample_polynomial,
)
from polycrt.cli import main

from conftest import (
    REF_A, REF_M1, REF_M2, SRC, difference_window_violations, enumerate_polynomials, poly,
)


def _report(number, name):
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


def test_criterion_1_reference_encode_decode_golden(f2):
    start = time.perf_counter()
    an = analyze_pair(poly(f2, REF_M1), poly(f2, REF_M2))

    assert an.m == poly(f2, "x^2+1")
    assert an.lcm.degree == 17
    assert [str(s) for s in an.remainders] == ["x^4", "x^3+1", "x", "1"]
    assert an.K == 3

    a = poly(f2, REF_A)
    residues, witness = encode(a, an)
    assert residues.a1 == poly(f2, "x^7+x^2+x+1")
    assert residues.a2 == poly(f2, "x^5+x^4+x+1")
    assert witness.k2 == poly(f2, "x^4")

    r1, r2 = poly(f2, "x^7"), poly(f2, "x^5+x^4+1")
    pair = ErroneousResiduePair(r1, r2, an)
    # deg(r1 - r2) = 7 < deg(m1): the cascade's step 0, mod m1, does nothing.
    chain = [reconstruct(pair, level).cascade_tail for level in (1, 2, 3)]
    assert chain == [poly(f2, "x^4+1"), poly(f2, "x^4+1"), poly(f2, "x^2+1")]

    result = reconstruct(pair, 3)
    assert result.k2_hat == poly(f2, "x^4")
    assert result.a_hat == poly(f2, "x^15+x^11+x^7+x^6+1")
    assert (result.a_hat - a).degree == 1

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, "reference encode/decode golden values")


def test_criterion_2_level_table_reproduction(f2):
    start = time.perf_counter()
    an = analyze_pair(poly(f2, REF_M1), poly(f2, REF_M2))
    rows = [
        (spec.index, spec.sigma_deg, spec.error_bound_exclusive, spec.dynamic_range_exclusive)
        for spec in an.levels
    ]
    assert rows == [(1, 4, 6, 13), (2, 3, 5, 14), (3, 1, 3, 16), (4, 0, 2, 17)]
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(2, "level trade-off table reproduction")


def test_criterion_3_decoder_guarantee_property_suite():
    start = time.perf_counter()
    pairs = []
    for p, seed in ((2, 101), (13, 202)):
        field = PrimeField(p)
        rng = random.Random(seed)
        for _ in range(10):
            pairs.append(random_moduli_pair(field, rng))
    assert len(pairs) >= 20

    combos = [
        (analysis, level)
        for analysis in pairs
        for level in range(1, analysis.K + 2)
    ]
    per_combo = math.ceil(10_000 / len(combos))
    total = 0
    for analysis, level in combos:
        spec = analysis.level_spec(level)
        tau = spec.error_bound_exclusive - 1
        config = TrialConfig(
            analysis=analysis, level=level, tau=tau,
            trials=per_combo, seed=level * 1000 + analysis.field.p,
        )
        report = run_campaign(config)
        total += config.trials
        assert report.failures == 0, (str(analysis.m1), str(analysis.m2), level)
        assert report.successes == config.trials
        assert all(o.k2_match and o.residual_is_e2 for o in report.outcomes)
    assert total >= 10_000

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(3, f"decoder guarantee over {total} randomized trials")


def test_criterion_4_difference_window_brute_force(f2):
    start = time.perf_counter()
    pairs = [
        analyze_pair(poly(f2, "x^2") * poly(f2, "x+1"),
                     poly(f2, "x^2") * poly(f2, "x^2+x+1")),
        analyze_pair(poly(f2, "x^2+1") * poly(f2, "x^3+x+1"),
                     poly(f2, "x^2+1") * poly(f2, "x^4+x+1")),
        analyze_pair(poly(f2, "x+1") * poly(f2, "x^5+x^2+1"),
                     poly(f2, "x+1") * poly(f2, "x^7+x+1")),
    ]
    assert all(an.lcm.degree <= 13 for an in pairs)
    checked = 0
    for an in pairs:
        for level in range(1, an.K + 2):
            assert difference_window_violations(an, level) == []
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(4, f"difference degree window exhaustive over {checked} pair/levels")


def test_criterion_5_exact_crt_round_trips(f2, f13):
    start = time.perf_counter()
    an = analyze_pair(
        poly(f2, "x^2+x+1") * poly(f2, "x^3+x+1"),
        poly(f2, "x^2+x+1") * poly(f2, "x^5+x^2+1"),
    )
    assert an.lcm.degree == 10
    count = 0
    for a in enumerate_polynomials(f2, an.lcm.degree):
        residues, _ = encode(a, an)
        assert crt_pair(residues) == a
        count += 1
    assert count == 2**10

    rng = random.Random(404)
    for _ in range(50):
        analysis = random_moduli_pair(f13, rng)
        for _ in range(20):
            a = sample_polynomial(analysis.lcm.degree, f13, rng)
            residues, _ = encode(a, analysis)
            assert crt_pair(residues) == a

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(5, f"exact CRT: {count} exhaustive + 1000 randomized round trips")


def test_criterion_6_chain_structure_on_random_pairs(f2, f13):
    start = time.perf_counter()
    rng = random.Random(505)
    for i in range(100):
        field = f2 if i % 2 == 0 else f13
        an = random_moduli_pair(field, rng)
        degs = [s.degree for s in an.sigma]
        # Strict degree descent from gamma1 down to exactly 0; the seed
        # entry gamma2 never sits below it.
        assert degs[0] >= degs[1]
        assert all(degs[j] > degs[j + 1] for j in range(1, len(degs) - 1))
        assert degs[-1] == 0
        assert not an.sigma[-1].is_zero
        assert an.m * an.gamma1 == an.m1
        assert an.m * an.gamma2 == an.m2
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(6, "remainder chain structure on 100 random pairs")


def _cli_bound(moduli_texts, p):
    import io
    from contextlib import redirect_stdout

    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(
            ["bound", "--p", str(p), "--moduli", ",".join(moduli_texts), "--format", "json"]
        )
    assert code == 0
    return json.loads(buffer.getvalue())["bound"]


def test_criterion_7_error_bound_consistency(f2, f13):
    start = time.perf_counter()
    rng = random.Random(606)
    for i in range(100):
        field = f2 if i % 2 == 0 else f13
        an = random_moduli_pair(field, rng)
        bound = _cli_bound([str(an.m1), str(an.m2)], field.p)
        assert bound == an.m.degree
        assert bound == an.levels[-1].error_bound_exclusive

    # Independent max-min brute force via trial division over F_2.
    def gcd_degree_oracle(a, b):
        best = 0
        for d in range(1, min(a.degree, b.degree) + 1):
            for low in enumerate_polynomials(f2, d):
                cand = Polynomial(f2, list(low.coeffs) + [0] * (d - len(low.coeffs)) + [1])
                if (a % cand).is_zero and (b % cand).is_zero:
                    best = max(best, d)
        return best

    for count in (3, 4, 5):
        for _ in range(10):
            mods = [sample_monic(rng.randint(1, 5), f2, rng) for _ in range(count)]
            expected = max(
                min(gcd_degree_oracle(mi, mj) for j, mj in enumerate(mods) if i != j)
                for i, mi in enumerate(mods)
            )
            assert residue_error_bound(mods) == expected
            assert _cli_bound([str(m) for m in mods], 2) == expected

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(7, "error bound vs gcd degree and brute-force max-min")


def test_criterion_8_simulate_reports_are_byte_identical():
    start = time.perf_counter()
    argv = [
        sys.executable, "-m", "polycrt",
        "simulate", "--m1", REF_M1, "--m2", REF_M2,
        "--level", "3", "--tau", "2", "--trials", "400", "--seed", "321",
        "--format", "json",
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    runs = [
        subprocess.run(argv, capture_output=True, env=env, check=True)
        for _ in range(2)
    ]
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stdout
    payload = json.loads(runs[0].stdout)
    assert payload["failures"] == 0

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(8, "byte-identical simulation reports")
