"""Residue codes for polynomials over prime fields with non-coprime moduli.

Exact residue encoding/decoding, the level trade-off between message degree
range and residue error tolerance, a closed-form robust decoder, and a
deterministic simulation harness around it.
"""

from .crt import FoldingWitness, ResiduePair, crt_pair, encode
from .decoder import (
    Branch,
    ErroneousResiduePair,
    ReconstructionResult,
    classify,
    reconstruct,
)
from .errors import (
    BothZeroError,
    CoprimeModuliError,
    DegenerateModuliError,
    DegreeOutOfRangeError,
    DivisionByZeroError,
    InconsistentResiduesError,
    LevelOutOfRangeError,
    MixedFieldsError,
    ParseError,
    PolyCrtError,
    TooFewModuliError,
    ZeroInputError,
    ZeroModulusError,
)
from .field import PrimeField
from .levels import (
    LevelSpec,
    ModuliPairAnalysis,
    analysis_to_json,
    analyze_pair,
    render_level_table,
    residue_error_bound,
)
from .poly import NEG_INF, Polynomial, gcd, lcm, parse_polynomial, xgcd
from .simulation import (
    TrialConfig,
    TrialOutcome,
    TrialReport,
    random_moduli_pair,
    render_report,
    run_campaign,
    sample_error,
    sample_monic,
    sample_polynomial,
)

__version__ = "0.1.0"

__all__ = [
    "BothZeroError",
    "Branch",
    "CoprimeModuliError",
    "DegenerateModuliError",
    "DegreeOutOfRangeError",
    "DivisionByZeroError",
    "ErroneousResiduePair",
    "FoldingWitness",
    "InconsistentResiduesError",
    "LevelOutOfRangeError",
    "LevelSpec",
    "MixedFieldsError",
    "ModuliPairAnalysis",
    "NEG_INF",
    "ParseError",
    "PolyCrtError",
    "Polynomial",
    "PrimeField",
    "ReconstructionResult",
    "ResiduePair",
    "TooFewModuliError",
    "TrialConfig",
    "TrialOutcome",
    "TrialReport",
    "ZeroInputError",
    "ZeroModulusError",
    "analysis_to_json",
    "analyze_pair",
    "classify",
    "crt_pair",
    "encode",
    "gcd",
    "lcm",
    "parse_polynomial",
    "random_moduli_pair",
    "reconstruct",
    "render_level_table",
    "render_report",
    "residue_error_bound",
    "run_campaign",
    "sample_error",
    "sample_monic",
    "sample_polynomial",
    "xgcd",
]
