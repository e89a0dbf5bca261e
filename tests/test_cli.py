import json

import pytest

import polycrt.cli
import polycrt.simulation
from polycrt import parse_polynomial
from polycrt.cli import _MAX_TRIALS, main
from polycrt.poly import _MAX_PARSE_DEGREE

from conftest import REF_A, REF_M1, REF_M2


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def no_sampling(monkeypatch):
    """Fail instead of drawing an error polynomial (its size is tau + 1)."""

    def refuse(tau, field, rng):
        raise AssertionError(f"sample_error reached with tau = {tau}")

    monkeypatch.setattr(polycrt.cli, "sample_error", refuse)
    monkeypatch.setattr(polycrt.simulation, "sample_error", refuse)


@pytest.fixture
def no_campaign(monkeypatch):
    """Fail instead of running a campaign (it keeps every trial's outcome)."""

    def refuse(config):
        raise AssertionError(f"run_campaign reached with trials = {config.trials}")

    monkeypatch.setattr(polycrt.cli, "run_campaign", refuse)


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

    @pytest.mark.parametrize("tau", [_MAX_PARSE_DEGREE + 1, 10**15])
    def test_boundary_tau_above_cap_exit_2(self, capsys, no_sampling, tau):
        code, _, err = run_cli(
            capsys,
            "simulate", "--m1", REF_M1, "--m2", REF_M2,
            "--level", "4", "--tau", str(tau), "--trials", "1", "--boundary",
        )
        assert code == 2 and "tau must be <=" in err

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
    ("x^15+x^14+x^13+x^12+x^11+x^10+x^8+x^5+x^3+x^2+x+1", "x+1", "x^2", 0),
    ("x^14+x^13+x^11+x^10+x^7+x+1", "0", "x^2+1", 1),
    ("x^16+x^15+x^14+x^10+x^8+x^7+x^4+x^3+x", "x^2", "0", 2),
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
        "branch counts: equal_residues=2, folded_difference=20, large_residue=178\n",
        _json_out({
            "branchCounts": {
                "equal_residues": 2, "folded_difference": 20, "large_residue": 178
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
        "successes = 1\n"
        "failures = 3\n"
        "max residual degree = 16\n"
        "branch counts: equal_residues=0, folded_difference=0, large_residue=4\n"
        + "".join(
            f"trial {t}: a={a} e1={e1} e2={e2} branch=large_residue"
            " k2Match=False residualDeg=16\n"
            for a, e1, e2, t in _BOUNDARY_FAILURES
        ),
        _json_out({
            "branchCounts": {
                "equal_residues": 0, "folded_difference": 0, "large_residue": 4
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
            "failures": 3, "maxErrDeg": 16, "successes": 1,
        }),
    ),
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
]

_GOLDEN = [
    pytest.param(argv + fmt, 0, out, "", id=f"{name}-{fmt[-1] if fmt else 'text'}")
    for name, argv in _QUICK_START.items()
    for fmt, out in zip(((), ("--format", "json")), _GOLDEN_OUT[name])
] + [
    pytest.param(argv + fmt, code, "", f"error: {msg}\n", id=f"exit{code}-{argv[0]}-{i}")
    for i, (argv, code, msg) in enumerate(_GOLDEN_ERRORS)
    for fmt in ((), ("--format", "json"))
]


@pytest.mark.parametrize("argv, code, out, err", _GOLDEN)
def test_golden_output(capsys, argv, code, out, err):
    assert run_cli(capsys, *argv) == (code, out, err)
