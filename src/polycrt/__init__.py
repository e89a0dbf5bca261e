"""Residue codes for polynomials over prime fields with non-coprime moduli.

Exact residue encoding/decoding, the level trade-off between message degree
range and residue error tolerance, a closed-form robust decoder, and a
deterministic simulation harness around it.

``import polycrt`` loads no submodule: each public name is imported from its
submodule when it is first used (PEP 562) and kept in this namespace.
"""

import importlib

__version__ = "0.1.0"

# Each submodule and the public names it defines.
_EXPORTS = {
    "crt": ("FoldingWitness", "ResiduePair", "crt_pair", "encode"),
    "decoder": (
        "Branch",
        "ErroneousResiduePair",
        "ReconstructionResult",
        "classify",
        "reconstruct",
    ),
    "errors": (
        "BothZeroError",
        "CoprimeModuliError",
        "DegenerateModuliError",
        "DegreeOutOfRangeError",
        "DivisionByZeroError",
        "InconsistentResiduesError",
        "LevelOutOfRangeError",
        "MixedFieldsError",
        "ParseError",
        "PolyCrtError",
        "TooFewModuliError",
        "ZeroInputError",
        "ZeroModulusError",
    ),
    "field": ("PrimeField",),
    "levels": (
        "LevelSpec",
        "ModuliPairAnalysis",
        "analysis_to_json",
        "analyze_pair",
        "render_level_table",
    ),
    "poly": (
        "NEG_INF",
        "Polynomial",
        "gcd",
        "lcm",
        "parse_polynomial",
        "residue_error_bound",
        "xgcd",
    ),
    "simulation": (
        "TrialConfig",
        "TrialOutcome",
        "TrialReport",
        "random_moduli_pair",
        "render_report",
        "run_campaign",
        "sample_error",
        "sample_monic",
        "sample_polynomial",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
