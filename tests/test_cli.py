import json
import tracemalloc

import pytest

import polycrt.cli
import polycrt.simulation
from polycrt import parse_polynomial
from polycrt.cli import _MAX_BOUND_MODULI, _MAX_TRIALS, main
from polycrt.poly import _MAX_PARSE_DEGREE

from conftest import REF_A, REF_M1, REF_M2


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def no_sampling(monkeypatch):
    """Fail instead of drawing a polynomial (an error's size is tau + 1).

    The CLI's samplers draw through ``_draw``.  Campaign trials read their
    streams through the reader that ``_stream_draws`` sets up once per
    campaign: the set-up runs, and each draw of its reader fails.
    """

    def refuse(counts, *args):
        raise AssertionError(f"a draw reached with counts = {counts}")

    monkeypatch.setattr(polycrt.simulation, "_draw", refuse)
    monkeypatch.setattr(polycrt.simulation, "_stream_draws", lambda counts, field: lambda key: refuse(counts))


@pytest.fixture
def no_campaign(monkeypatch):
    """Fail instead of running a campaign (it runs every trial)."""

    def refuse(config):
        raise AssertionError(f"run_campaign reached with trials = {config.trials}")

    monkeypatch.setattr(polycrt.simulation, "run_campaign", refuse)


@pytest.fixture
def no_bound(monkeypatch):
    """Fail instead of computing the bound (one gcd per pair of moduli)."""

    def refuse(moduli):
        raise AssertionError(f"residue_error_bound reached with {len(moduli)} moduli")

    monkeypatch.setattr(polycrt.cli, "residue_error_bound", refuse)


class TestAnalyze:
    def test_text_output(self, capsys):
        code, out, err = run_cli(capsys, "analyze", "--m1", REF_M1, "--m2", REF_M2)
        assert code == 0 and err == ""
        assert "gcd m = x^2+1" in out
        assert "deg(lcm) = 17" in out
        assert "sigma chain: x^4, x^3+1, x, 1" in out
        assert "K = 3" in out
        assert "tau < 6" in out and "deg(a) < 13" in out
        assert "tau < 2" in out and "deg(a) < 17" in out

    def test_json_output(self, capsys, f2):
        code, out, _ = run_cli(
            capsys, "analyze", "--m1", REF_M1, "--m2", REF_M2, "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["degM"] == 17
        assert payload["K"] == 3
        assert payload["sigma"] == ["x^4", "x^3+1", "x", "1"]
        for key in ("m1", "m2", "m", "gamma1", "gamma2"):
            assert str(parse_polynomial(payload[key], f2)) == payload[key]

    def test_swapped_inputs_report_notice(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--m1", REF_M2, "--m2", REF_M1)
        assert code == 0
        assert "swapped" in out
        assert "tau < 6" in out

    def test_coprime_moduli_exit_3(self, capsys):
        code, out, err = run_cli(capsys, "analyze", "--m1", "x", "--m2", "x+1")
        assert code == 3 and out == "" and "coprime" in err

    def test_degenerate_moduli_exit_3(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--m1", "x^2+1", "--m2", "x^2+1")
        assert code == 3 and "divides" in err

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--m1", "garbage", "--m2", "x")
        assert code == 2 and "position" in err

    def test_over_long_literal_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--m1", "1" * 5000, "--m2", "x")
        assert code == 2 and "(at position 0)" in err

    def test_composite_characteristic_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "analyze", "--m1", "x^2+x", "--m2", "x^3+x", "--p", "4"
        )
        assert code == 2 and "prime" in err

    def test_characteristic_above_cap_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "analyze", "--m1", "x^2+x", "--m2", "x^3+x", "--p", str(2**64 + 13)
        )
        assert code == 2 and "below 2**64" in err


class TestEncode:
    def test_reference_encode(self, capsys):
        code, out, _ = run_cli(
            capsys, "encode", "--m1", REF_M1, "--m2", REF_M2, "--poly", REF_A
        )
        assert code == 0
        assert "a1 = x^7+x^2+x+1" in out
        assert "a2 = x^5+x^4+x+1" in out
        assert "k2 = x^4" in out

    def test_zero_polynomial(self, capsys):
        code, out, _ = run_cli(
            capsys, "encode", "--m1", REF_M1, "--m2", REF_M2, "--poly", "0"
        )
        assert code == 0
        for line in ("a1 = 0", "a2 = 0", "k1 = 0", "k2 = 0"):
            assert line in out

    def test_degree_16_accepted(self, capsys, f2):
        code, out, _ = run_cli(
            capsys,
            "encode", "--m1", REF_M1, "--m2", REF_M2,
            "--poly", "x^16+x^3", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        a = parse_polynomial("x^16+x^3", f2)
        k2 = parse_polynomial(payload["k2"], f2)
        a2 = parse_polynomial(payload["a2"], f2)
        m2 = parse_polynomial(payload["m2"], f2)
        assert k2 * m2 + a2 == a

    def test_out_of_range_exit_4(self, capsys):
        code, _, err = run_cli(
            capsys, "encode", "--m1", REF_M1, "--m2", REF_M2, "--poly", "x^17"
        )
        assert code == 4 and "deg" in err


class TestCorrupt:
    def test_tau_minus_one_keeps_residues(self, capsys):
        code, out, _ = run_cli(
            capsys, "corrupt", "--r1", "x^7+x^2+x+1", "--r2", "x^5+x^4+x+1", "--tau", "-1"
        )
        assert code == 0
        assert "corrupted r1 = x^7+x^2+x+1" in out
        assert "e1 = 0" in out and "e2 = 0" in out

    def test_explicit_error_overrides(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "corrupt", "--r1", "x^7+x^2+x+1", "--r2", "x^5+x^4+x+1",
            "--tau", "2", "--e1", "x^2+x+1", "--e2", "x",
        )
        assert code == 0
        assert "corrupted r1 = x^7" in out
        assert "corrupted r2 = x^5+x^4+1" in out

    def test_seed_determinism(self, capsys):
        args = ("corrupt", "--r1", "x^3", "--r2", "x^2", "--tau", "2", "--seed", "9")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    # The errors are drawn from random.Random(seed) by getrandbits with
    # rejection (README, Determinism), so these draws are pinned, e1 first.
    @pytest.mark.parametrize(
        "field_args, tau, r1, r2, e1, e2",
        [
            ((), 2, "x^3+x^2+1", "x^2+x+1", "x^2+1", "x+1"),
            (
                ("--p", "13"), 4, "6*x^4+7*x^3+7*x^2+6", "4*x^4+2*x^3+9*x^2+9*x+2",
                "6*x^4+6*x^3+7*x^2+6", "4*x^4+2*x^3+8*x^2+9*x+2",
            ),
        ],
        ids=["p2", "p13"],
    )
    def test_seeded_draws_are_pinned(self, capsys, field_args, tau, r1, r2, e1, e2):
        args = (
            "corrupt", *field_args, "--r1", "x^3", "--r2", "x^2", "--tau", str(tau), "--seed", "9"
        )
        text = f"corrupted r1 = {r1}\ncorrupted r2 = {r2}\ne1 = {e1}\ne2 = {e2}\n"
        assert run_cli(capsys, *args) == (0, text, "")
        payload = {"corrupted1": r1, "corrupted2": r2, "e1": e1, "e2": e2, "seed": 9, "tau": tau}
        assert run_cli(capsys, *args, "--format", "json") == (0, _json_out(payload), "")

    def test_invalid_tau_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "corrupt", "--r1", "x", "--r2", "x", "--tau", "-2"
        )
        assert code == 2 and "tau" in err

    @pytest.mark.parametrize("tau", [_MAX_PARSE_DEGREE + 1, 10**15])
    def test_tau_above_cap_exit_2(self, capsys, no_sampling, tau):
        code, _, err = run_cli(
            capsys, "corrupt", "--r1", "x", "--r2", "x", "--tau", str(tau)
        )
        assert code == 2 and "tau must be <=" in err

    def test_given_errors_draw_nothing(self, capsys, no_sampling):
        code, out, _ = run_cli(
            capsys,
            "corrupt", "--r1", "x^3", "--r2", "x^2", "--tau", str(_MAX_PARSE_DEGREE),
            "--e1", "x+1", "--e2", "x",
        )
        assert code == 0
        assert "corrupted r1 = x^3+x+1" in out and "corrupted r2 = x^2+x" in out

    def test_only_replaced_draws_are_skipped(self, capsys, monkeypatch):
        # e2's values follow e1's in the stream, so a given --e1 still costs
        # its draw and a given --e2 costs none; the seeded errors are kept.
        real, taus = polycrt.simulation.sample_error, []

        def counting(tau, field, rng):
            taus.append(tau)
            return real(tau, field, rng)

        monkeypatch.setattr(polycrt.simulation, "sample_error", counting)
        base = ("corrupt", "--r1", "x^3", "--r2", "x^2", "--tau", "4", "--seed", "9",
                "--format", "json")
        _, out, _ = run_cli(capsys, *base)
        seeded = json.loads(out)
        assert taus == [4, 4]
        for flag, value, draws in (("--e1", "x^4", 2), ("--e2", "x^4", 1)):
            taus.clear()
            _, out, _ = run_cli(capsys, *base, flag, value)
            payload = json.loads(out)
            assert len(taus) == draws
            kept = "e2" if flag == "--e1" else "e1"
            assert payload[kept] == seeded[kept]
            assert payload[flag[2:]] == value


class TestReconstruct:
    def test_reference_decode(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "reconstruct", "--m1", REF_M1, "--m2", REF_M2,
            "--r1", "x^7", "--r2", "x^5+x^4+1", "--level", "3",
        )
        assert code == 0
        assert "branch = folded_difference" in out
        assert "k2_hat = x^4" in out
        assert "a_hat = x^15+x^11+x^7+x^6+1" in out

    def test_json_matches_text(self, capsys, f2):
        code, out, _ = run_cli(
            capsys,
            "reconstruct", "--m1", REF_M1, "--m2", REF_M2,
            "--r1", "x^7", "--r2", "x^5+x^4+1", "--level", "3", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["k2Hat"] == "x^4"
        assert payload["branch"] == "folded_difference"
        assert payload["cascadeTail"] == "x^2+1"
        assert parse_polynomial(payload["aHat"], f2) == parse_polynomial(
            "x^15+x^11+x^7+x^6+1", f2
        )

    def test_equal_residues(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "reconstruct", "--m1", REF_M1, "--m2", REF_M2,
            "--r1", "x^3+1", "--r2", "x^3+1", "--level", "4",
        )
        assert code == 0
        assert "branch = equal_residues" in out
        assert "a_hat = x^3+1" in out

    def test_equal_residues_json_tail(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "reconstruct", "--m1", REF_M1, "--m2", REF_M2,
            "--r1", "x^5+x^3+x+1", "--r2", "x^5+x^3+1", "--level", "3",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["branch"] == "equal_residues"
        assert payload["k2Hat"] == "0"
        assert payload["cascadeTail"] == "x"

    def test_clean_residues_reconstruct_exactly(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "reconstruct", "--m1", REF_M1, "--m2", REF_M2,
            "--r1", "x^7+x^2+x+1", "--r2", "x^5+x^4+x+1", "--level", "4",
        )
        assert code == 0
        assert f"a_hat = {REF_A}" in out

    def test_bad_level_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys,
            "reconstruct", "--m1", REF_M1, "--m2", REF_M2,
            "--r1", "x", "--r2", "x", "--level", "9",
        )
        assert code == 2 and "level" in err

    def test_oversized_residue_exit_4(self, capsys):
        code, _, _ = run_cli(
            capsys,
            "reconstruct", "--m1", REF_M1, "--m2", REF_M2,
            "--r1", "x^9", "--r2", "x", "--level", "1",
        )
        assert code == 4


class TestCrt:
    def test_reference_round_trip(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "crt", "--m1", REF_M1, "--m2", REF_M2,
            "--r1", "x^7+x^2+x+1", "--r2", "x^5+x^4+x+1",
        )
        assert code == 0
        assert f"a = {REF_A}" in out

    def test_swapped_moduli_same_answer(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "crt", "--m1", REF_M2, "--m2", REF_M1,
            "--r1", "x^5+x^4+x+1", "--r2", "x^7+x^2+x+1",
        )
        assert code == 0
        assert f"a = {REF_A}" in out

    def test_scalar_residues(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "crt", "--p", "13",
            "--m1", "[0,0,1,1]", "--m2", "[0,0,2,0,1]",
            "--r1", "5", "--r2", "5",
        )
        assert code == 0
        assert "a = 5" in out

    def test_inconsistent_exit_6(self, capsys):
        code, _, err = run_cli(
            capsys, "crt", "--m1", REF_M1, "--m2", REF_M2, "--r1", "0", "--r2", "1"
        )
        assert code == 6 and "residues" in err


class TestBound:
    def test_reference_pair(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--moduli", f"{REF_M1},{REF_M2}")
        assert code == 0 and out.strip() == "2"

    def test_coprime_triple(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--moduli", "x,x+1,x^2+x+1")
        assert code == 0 and out.strip() == "0"

    def test_list_form_moduli_with_commas(self, capsys):
        # gcd(x^2(x+1), x(x+1)) = x^2+x over F_2.
        code, out, _ = run_cli(
            capsys, "bound", "--moduli", "[0,0,1,1],[0,1,1]", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["bound"] == 2
        assert payload["moduli"] == ["x^3+x^2", "x^2+x"]

    def test_three_moduli_known_value(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--moduli", "x^3+x^2,x^4+x^3+x^2,x^4+x"
        )
        assert code == 0 and out.strip() == "2"

    def test_single_modulus_exit_7(self, capsys):
        code, _, err = run_cli(capsys, "bound", "--moduli", "x^2+x")
        assert code == 7 and "two" in err

    def test_parse_error_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "bound", "--moduli", "x,nope")
        assert code == 2

    # 21,800 moduli of x^2+x fill a 128 KiB argument.
    @pytest.mark.parametrize("count", [_MAX_BOUND_MODULI + 1, 21_800])
    def test_moduli_above_cap_exit_2(self, capsys, no_bound, count):
        # The last text does not parse, so the cap must be checked before parsing.
        moduli = ",".join(["x^2+x"] * (count - 1) + ["nope"])
        code, _, err = run_cli(capsys, "bound", "--moduli", moduli)
        assert code == 2 and f"at most {_MAX_BOUND_MODULI} moduli are allowed, got {count}" in err

    def test_moduli_at_cap_reach_the_bound(self, capsys, no_bound):
        with pytest.raises(AssertionError, match=f"reached with {_MAX_BOUND_MODULI} moduli"):
            run_cli(capsys, "bound", "--moduli", ",".join(["x^2+x"] * _MAX_BOUND_MODULI))


class TestSimulate:
    def test_guarantee_run(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate", "--m1", REF_M1, "--m2", REF_M2,
            "--level", "3", "--tau", "2", "--trials", "200", "--seed", "5",
        )
        assert code == 0
        assert "successes = 200" in out
        assert "failures = 0" in out

    def test_json_report_shape(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate", "--m1", REF_M1, "--m2", REF_M2,
            "--level", "3", "--tau", "2", "--trials", "50", "--seed", "5",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["successes"] == 50
        assert payload["failures"] == 0
        assert payload["config"]["m1"] == REF_M1
        assert payload["config"]["level"] == 3
        assert set(payload["branchCounts"]) == {
            "equal_residues", "folded_difference", "large_residue"
        }

    def test_zero_trials(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate", "--m1", REF_M1, "--m2", REF_M2,
            "--level", "1", "--tau", "0", "--trials", "0",
        )
        assert code == 0
        assert "trials = 0" in out

    def test_boundary_mode_never_gates(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate", "--m1", REF_M1, "--m2", REF_M2,
            "--level", "4", "--tau", "2", "--trials", "300", "--seed", "1",
            "--boundary",
        )
        assert code == 0
        assert "mode = boundary" in out

    def test_text_mode_skips_the_json_report(self, capsys, monkeypatch):
        def refuse(report):
            raise AssertionError("TrialReport.to_json reached in text mode")

        monkeypatch.setattr(polycrt.simulation.TrialReport, "to_json", refuse)
        code, out, _ = run_cli(
            capsys,
            "simulate", "--m1", REF_M1, "--m2", REF_M2,
            "--level", "4", "--tau", "2", "--trials", "300", "--seed", "1",
            "--boundary",
        )
        assert code == 0
        assert "more failing trials" in out

    def test_boundary_json_report_peaks_under_14_mib(self, capsys):
        # 20,000 boundary trials, about half of them failing, each listed in
        # failureDetails.  The text is written as it is encoded: json.dumps,
        # which first holds a list of every chunk, peaks at about 20 MiB.
        tracemalloc.start()
        try:
            code = main([
                "simulate", "--m1", REF_M1, "--m2", REF_M2, "--boundary", "--level", "4",
                "--tau", "2", "--trials", "20000", "--seed", "1", "--format", "json",
            ])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        payload = json.loads(capsys.readouterr().out)
        assert code == 0 and len(payload["failureDetails"]) == payload["failures"] > 0
        assert peak < 14 << 20

    @pytest.mark.parametrize("tau", [_MAX_PARSE_DEGREE + 1, 10**15])
    def test_boundary_tau_above_cap_exit_2(self, capsys, no_sampling, tau):
        code, _, err = run_cli(
            capsys,
            "simulate", "--m1", REF_M1, "--m2", REF_M2,
            "--level", "4", "--tau", str(tau), "--trials", "1", "--boundary",
        )
        assert code == 2 and "tau must be <=" in err

    @pytest.mark.parametrize("p", [2, 13])
    def test_trials_reach_the_draw_guard(self, capsys, no_sampling, p):
        # no_sampling must refuse every draw a trial makes, at p = 2 and at
        # odd p, or the test above would pass on its tau check alone.
        pair = ("--m1", REF_M1, "--m2", REF_M2) if p == 2 else _P13
        with pytest.raises(AssertionError, match="a draw reached with counts"):
            run_cli(capsys, "simulate", *pair, "--level", "1", "--tau", "1", "--trials", "1")

    @pytest.mark.parametrize("trials", [_MAX_TRIALS + 1, 10**15])
    def test_trials_above_cap_exit_2(self, capsys, no_campaign, trials):
        code, _, err = run_cli(
            capsys,
            "simulate", "--m1", REF_M1, "--m2", REF_M2,
            "--level", "4", "--tau", "1", "--trials", str(trials),
        )
        assert code == 2 and f"trials must be <= {_MAX_TRIALS}" in err

    def test_trials_at_cap_reach_the_campaign(self, capsys, no_campaign):
        with pytest.raises(AssertionError, match="run_campaign reached"):
            run_cli(
                capsys,
                "simulate", "--m1", REF_M1, "--m2", REF_M2,
                "--level", "4", "--tau", "1", "--trials", str(_MAX_TRIALS),
            )

    def test_existing_messages_precede_the_trials_cap(self, capsys, no_campaign):
        code, _, err = run_cli(
            capsys,
            "simulate", "--m1", REF_M1, "--m2", REF_M2,
            "--level", "4", "--tau", "2", "--trials", str(10**15),
        )
        assert code == 2 and "boundary" in err

    def test_guarantee_tau_at_bound_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys,
            "simulate", "--m1", REF_M1, "--m2", REF_M2,
            "--level", "4", "--tau", "2", "--trials", "10",
        )
        assert code == 2 and "boundary" in err

    def test_in_process_determinism(self, capsys):
        args = (
            "simulate", "--m1", REF_M1, "--m2", REF_M2,
            "--level", "2", "--tau", "3", "--trials", "100", "--seed", "77",
            "--format", "json",
        )
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second


def _json_out(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


_QUICK_START = {
    "analyze": ("analyze", "--m1", REF_M1, "--m2", REF_M2),
    "encode": ("encode", "--m1", REF_M1, "--m2", REF_M2, "--poly", REF_A),
    "corrupt": (
        "corrupt", "--r1", "x^7+x^2+x+1", "--r2", "x^5+x^4+x+1",
        "--tau", "2", "--e1", "x^2+x+1", "--e2", "x",
    ),
    "reconstruct": (
        "reconstruct", "--m1", REF_M1, "--m2", REF_M2,
        "--r1", "x^7", "--r2", "x^5+x^4+1", "--level", "3",
    ),
    "crt": (
        "crt", "--m1", REF_M1, "--m2", REF_M2,
        "--r1", "x^7+x^2+x+1", "--r2", "x^5+x^4+x+1",
    ),
    "bound": ("bound", "--moduli", f"{REF_M1},{REF_M2}"),
    "simulate": (
        "simulate", "--m1", REF_M1, "--m2", REF_M2,
        "--level", "3", "--tau", "2", "--trials", "200", "--seed", "0",
    ),
    "boundary": (
        "simulate", "--m1", REF_M1, "--m2", REF_M2,
        "--level", "4", "--tau", "2", "--trials", "4", "--seed", "1", "--boundary",
    ),
}

_BOUNDARY_FAILURES = [
    ("x^16+x^14+x^12+x^11+x^10+x^6+x^5+x^4+x^3", "x^2", "x", 0),
    ("x^13+x^12+x^10+x^9+x^7+x^6+x^5+x^2+x+1", "0", "x^2", 1),
]

# Full stdout of each command, text then JSON, pinned byte for byte.
_GOLDEN_OUT = {
    "analyze": (
        f"m1 = {REF_M1}\n"
        f"m2 = {REF_M2}\n"
        "gcd m = x^2+1\n"
        "gamma1 = x^6+x^3+1\n"
        "gamma2 = x^9+x^7+x+1\n"
        "deg(lcm) = 17\n"
        "sigma chain: x^4, x^3+1, x, 1\n"
        "K = 3\n"
        "\n"
        "level  deg(sigma_i)  residue error bound  dynamic range\n"
        "1      4             tau < 6              deg(a) < 13\n"
        "2      3             tau < 5              deg(a) < 14\n"
        "3      1             tau < 3              deg(a) < 16\n"
        "4      0             tau < 2              deg(a) < 17\n",
        _json_out({
            "K": 3, "degM": 17, "gamma1": "x^6+x^3+1", "gamma2": "x^9+x^7+x+1",
            "levels": [
                {"dynamicRangeExclusive": r, "errorBoundExclusive": b,
                 "level": i, "sigmaDeg": s}
                for i, s, b, r in [(1, 4, 6, 13), (2, 3, 5, 14), (3, 1, 3, 16), (4, 0, 2, 17)]
            ],
            "m": "x^2+1", "m1": REF_M1, "m2": REF_M2, "p": 2,
            "sigma": ["x^4", "x^3+1", "x", "1"], "swapped": False,
        }),
    ),
    "encode": (
        f"a1 = x^7+x^2+x+1  (mod m1 = {REF_M1})\n"
        f"a2 = x^5+x^4+x+1  (mod m2 = {REF_M2})\n"
        "k1 = x^7+x^5+x^4+x^2\n"
        "k2 = x^4\n",
        _json_out({
            "a1": "x^7+x^2+x+1", "a2": "x^5+x^4+x+1", "k1": "x^7+x^5+x^4+x^2",
            "k2": "x^4", "m1": REF_M1, "m2": REF_M2, "swapped": False,
        }),
    ),
    "corrupt": (
        "corrupted r1 = x^7\ncorrupted r2 = x^5+x^4+1\ne1 = x^2+x+1\ne2 = x\n",
        _json_out({
            "corrupted1": "x^7", "corrupted2": "x^5+x^4+1",
            "e1": "x^2+x+1", "e2": "x", "seed": 0, "tau": 2,
        }),
    ),
    "reconstruct": (
        "branch = folded_difference\n"
        "q21 = x^7+x^5+x^4+1\n"
        "cascade tail = x^2+1\n"
        "k2_hat = x^4\n"
        "a_hat = x^15+x^11+x^7+x^6+1\n",
        _json_out({
            "aHat": "x^15+x^11+x^7+x^6+1", "branch": "folded_difference",
            "cascadeTail": "x^2+1", "k2Hat": "x^4", "q21": "x^7+x^5+x^4+1",
            "swapped": False,
        }),
    ),
    "crt": (f"a = {REF_A}\n", _json_out({"a": REF_A, "swapped": False})),
    "bound": ("2\n", _json_out({"bound": 2, "moduli": [REF_M1, REF_M2]})),
    "simulate": (
        "mode = guarantee\n"
        "trials = 200\n"
        "successes = 200\n"
        "failures = 0\n"
        "max residual degree = 2\n"
        "branch counts: equal_residues=2, folded_difference=29, large_residue=169\n",
        _json_out({
            "branchCounts": {
                "equal_residues": 2, "folded_difference": 29, "large_residue": 169
            },
            "config": {
                "boundary": False, "level": 3, "m1": REF_M1, "m2": REF_M2,
                "p": 2, "seed": 0, "tau": 2, "trials": 200,
            },
            "decodeErrors": 0, "failureDetails": [], "failures": 0,
            "maxErrDeg": 2, "successes": 200,
        }),
    ),
    "boundary": (
        "mode = boundary\n"
        "trials = 4\n"
        "successes = 2\n"
        "failures = 2\n"
        "max residual degree = 16\n"
        "branch counts: equal_residues=0, folded_difference=1, large_residue=3\n"
        + "".join(
            f"trial {t}: a={a} e1={e1} e2={e2} branch=large_residue"
            " k2Match=False residualDeg=16\n"
            for a, e1, e2, t in _BOUNDARY_FAILURES
        ),
        _json_out({
            "branchCounts": {
                "equal_residues": 0, "folded_difference": 1, "large_residue": 3
            },
            "config": {
                "boundary": True, "level": 4, "m1": REF_M1, "m2": REF_M2,
                "p": 2, "seed": 1, "tau": 2, "trials": 4,
            },
            "decodeErrors": 0,
            "failureDetails": [
                {"a": a, "branch": "large_residue", "e1": e1, "e2": e2,
                 "error": None, "k2Match": False, "residualDeg": 16, "trial": t}
                for a, e1, e2, t in _BOUNDARY_FAILURES
            ],
            "failures": 2, "maxErrDeg": 16, "successes": 2,
        }),
    ),
}

# Kernel paths the quick start does not reach, each pinned by its full
# stdout; each exits 0.
_F2_M1 = "x^25+x^24+x^18+x^17+x^14+x^13+x^12+x^11+x^10+x^7+x^5+x^4+x^3+x^2+x+1"
_F2_M2 = "x^26+x^25+x^24+x^22+x^20+x^18+x^16+x^15+x^12+x^8+x^7+x^6+x^4+x+1"
_F2_A = "x^45+x^40+x^33+x^21+x^17+x^9+x^2+1"
_F2_A1 = "x^24+x^23+x^22+x^20+x^19+x^16+x^14+x^13+x^9+x^7+x^5+x^3"
_F2_A2 = "x^25+x^17+x^16+x^15+x^14+x^10+x^6+x^4+x^3+x^2+x+1"
_P13_M1, _P13_M2 = "x^5+x^3+2*x^2+2", "x^6+x^4+x^3+3*x^2+x+3"
_P13 = ("--p", "13", "--m1", _P13_M1, "--m2", _P13_M2)
_WIDE = (
    "--p", "2305843009213693951",
    "--m1", "x^5+7*x^3+7*x^2+10*x+35", "--m2", "x^6+8*x^4+x^3+26*x^2+5*x+55",
)
_WIDE_R1 = "2305843008349496428*x^4+4814814764*x^3+989382717026*x^2+8641975224*x+"
_WIDE_R2 = (
    "2305843008226039640*x^5+2305843009090237162*x^4+2305843006003817437*x^3"
    "+987037038042*x^2+2305843002423570560*x+5"
)
_WIDE_A = "123456789*x^7+x^5+987654321987*x^2+4*x+5"

_GOLDEN_KERNEL_PATHS = {
    # encode divides by byte tables, eight quotient bits per step, and crt
    # multiplies by one; moduli of degree 25/26 and a message of degree 45
    # give quotients of 21 and 20 bits, so each loop runs three steps.
    "f2-encode-deg25": (
        ("encode", "--m1", _F2_M1, "--m2", _F2_M2, "--poly", _F2_A),
        f"a1 = {_F2_A1}  (mod m1 = {_F2_M1})\n"
        f"a2 = {_F2_A2}  (mod m2 = {_F2_M2})\n"
        "k1 = x^20+x^19+x^18+x^17+x^16+x^13+x^12+x^11+x^10+x^7+x^5+x^4+x^2+x+1\n"
        "k2 = x^19+x^18+x^16+x^14+x^12+x^9+x^7+x^4+x^2+x\n",
    ),
    "f2-crt-deg25": (
        ("crt", "--m1", _F2_M1, "--m2", _F2_M2, "--r1", _F2_A1, "--r2", _F2_A2),
        f"a = {_F2_A}\n",
    ),
    # The F_2 cascade below the top level: one XOR of an indexed, already
    # shifted step per quotient bit, on a chain whose sigma degrees drop by
    # 2 at levels 5, 6 and 9.
    "f2-reconstruct-level9": (
        (
            "reconstruct", "--m1", _F2_M1, "--m2", _F2_M2, "--level", "9",
            "--r1", "x^24+x^21+x^20+x^19+x^17+x^15+x^12+x^11+x^10+x^7+x^6+x^3+x^2+1",
            "--r2", "x^25+x^23+x^22+x^21+x^20+x^19+x^18+x^17+x^16+x^13+x^10+x^9+x^7",
        ),
        "branch = large_residue\n"
        "q21 = x^25+x^24+x^23+x^22+x^18+x^16+x^15+x^13+x^12+x^11+x^9+x^6+x^3+x^2+1\n"
        "cascade tail = x^12+x^11+x^7+x^5+x^3+x\n"
        "k2_hat = x^11+x^10+x^8+x^5+1\n"
        "a_hat = x^37+x^30+x^22+x^15+x^11+x^9+x^5+x^4+x+1\n",
    ),
    # The odd-p analysis and decoder run different kernels from the F_2 ones.
    "p13-reconstruct": (
        (
            "reconstruct", *_P13, "--level", "1",
            "--r1", "2*x^4+3*x^3+4*x^2+11*x+2", "--r2", "8*x^5+7*x^4+10*x^3+8*x^2+12*x+11",
        ),
        "branch = large_residue\n"
        "q21 = 5*x^5+8*x^4+6*x^3+9*x^2+12*x+4\n"
        "cascade tail = x^2+11*x+4\n"
        "k2_hat = 5*x+1\n"
        "a_hat = 5*x^7+x^6+3*x^2+2*x+1\n",
    ),
    # The odd-p pass over these moduli starts with a 3-digit step, and their
    # sigma degrees drop by 2 at the top level, where the cascade divides
    # by m1 and by m*sigma_3 in 2-digit steps.
    "p13-reconstruct-multi-digit": (
        (
            "reconstruct", "--p", "13",
            "--m1", "x^6+7*x^5+x^4+5*x^3+5*x^2+11*x+4",
            "--m2", "x^8+9*x^7+12*x^6+6*x^5+x^4+x^3+x^2+9",
            "--r1", "2*x^5+7*x^3+5*x^2+8*x+3",
            "--r2", "5*x^7+5*x^6+8*x^5+12*x^4+5*x^3+2*x^2+6*x+5", "--level", "3",
        ),
        "branch = large_residue\n"
        "q21 = 8*x^7+8*x^6+7*x^5+x^4+2*x^3+3*x^2+2*x+11\n"
        "cascade tail = 10*x+5\n"
        "k2_hat = 3*x^3+12*x^2+7\n"
        "a_hat = 3*x^11+x^9+5*x^4+6*x+3\n",
    ),
    # Every simulate trial runs %, divmod and the odd-p remainder cascade.
    "p13-simulate": (
        ("simulate", *_P13, "--level", "1", "--tau", "2", "--trials", "500", "--seed", "3"),
        "mode = guarantee\n"
        "trials = 500\n"
        "successes = 500\n"
        "failures = 0\n"
        "max residual degree = 2\n"
        "branch counts: equal_residues=1, folded_difference=35, large_residue=464\n",
    ),
    # At p = 2**61 - 1 every coefficient draw masks an 8-byte word of the
    # trial's stream to 61 bits.
    "wide-simulate": (
        ("simulate", *_WIDE, "--level", "3", "--tau", "1", "--trials", "300", "--seed", "3"),
        "mode = guarantee\n"
        "trials = 300\n"
        "successes = 300\n"
        "failures = 0\n"
        "max residual degree = 1\n"
        "branch counts: equal_residues=0, folded_difference=0, large_residue=300\n",
    ),
    # p = 2**61 - 1 packs the chain into slots wider than a machine word.
    "wide-reconstruct": (
        (
            "reconstruct", *_WIDE, "--level", "3",
            "--r1", "2305843008349496428*x^4+4814814764*x^3+989382717026*x^2"
            "+8641975226*x+30246913273",
            "--r2", _WIDE_R2,
        ),
        "branch = large_residue\n"
        "q21 = 987654311*x^5+2305843008472953217*x^4+8024691278*x^3+2345678984*x^2"
        "+15432098617*x+30246913268\n"
        "cascade tail = 2*x+2305843009213693949\n"
        "k2_hat = 123456789*x\n"
        f"a_hat = {_WIDE_A}\n",
    ),
    # crt runs the same wide-slot cascade (its exit 6 is in _GOLDEN_ERRORS).
    "wide-crt": (
        ("crt", *_WIDE, "--r1", _WIDE_R1 + "30246913275", "--r2", _WIDE_R2),
        f"a = {_WIDE_A}\n",
    ),
    # bound takes the gcd of every pair of moduli.
    "p13-bound": (("bound", "--p", "13", "--moduli", f"{_P13_M1},{_P13_M2}"), "2\n"),
}

_GOLDEN_ERRORS = [
    (
        ("reconstruct", "--m1", REF_M1, "--m2", REF_M2,
         "--r1", "x", "--r2", "x", "--level", "9"),
        2, "level 9 outside [1, 4] for this moduli pair",
    ),
    (
        ("analyze", "--m1", "x^2+x", "--m2", "x^3+x", "--p", "4"),
        2, "field characteristic must be a prime >= 2, got 4",
    ),
    (
        ("analyze", "--m1", "x", "--m2", "x+1"),
        3, "moduli are coprime (gcd is a scalar); a shared factor of degree >= 1 is required",
    ),
    (
        ("encode", "--m1", REF_M1, "--m2", REF_M2, "--poly", "x^17"),
        4, "deg(a) = 17 not below deg(lcm) = 17",
    ),
    (
        ("crt", "--m1", REF_M1, "--m2", REF_M2, "--r1", "0", "--r2", "1"),
        6, "residues disagree modulo gcd(m1, m2); no common preimage exists",
    ),
    (("bound", "--moduli", "x^2+x"), 7, "at least two moduli are required"),
    # Residues one off in the constant term disagree modulo the gcd, here
    # through the wide-slot cascade of p = 2**61 - 1.
    (
        ("crt", *_WIDE, "--r1", _WIDE_R1 + "30246913276", "--r2", _WIDE_R2),
        6, "residues disagree modulo gcd(m1, m2); no common preimage exists",
    ),
    (("bound", "--p", "13", "--moduli", _P13_M1), 7, "at least two moduli are required"),
]

_GOLDEN = [
    pytest.param(argv + fmt, 0, out, "", id=f"{name}-{fmt[-1] if fmt else 'text'}")
    for name, argv in _QUICK_START.items()
    for fmt, out in zip(((), ("--format", "json")), _GOLDEN_OUT[name])
] + [
    pytest.param(argv + fmt, code, "", f"error: {msg}\n", id=f"exit{code}-{argv[0]}-{i}")
    for i, (argv, code, msg) in enumerate(_GOLDEN_ERRORS)
    for fmt in ((), ("--format", "json"))
] + [
    pytest.param(argv, 0, out, "", id=name) for name, (argv, out) in _GOLDEN_KERNEL_PATHS.items()
]


@pytest.mark.parametrize("argv, code, out, err", _GOLDEN)
def test_golden_output(capsys, argv, code, out, err):
    assert run_cli(capsys, *argv) == (code, out, err)
