"""Exception types raised by the library."""


class PolyCrtError(Exception):
    """Base class for every error raised by this package."""


class MixedFieldsError(PolyCrtError):
    """Operands belong to prime fields with different characteristics."""


class DivisionByZeroError(PolyCrtError, ZeroDivisionError):
    """Inversion of zero, or polynomial division by the zero polynomial."""


class BothZeroError(PolyCrtError):
    """gcd/xgcd of two zero polynomials is undefined."""


class ZeroInputError(PolyCrtError):
    """lcm requires both inputs to be nonzero."""


class ParseError(PolyCrtError):
    """Polynomial text that does not match the accepted grammar.

    Carries the character offset of the offending token in ``position``.
    """

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DegreeOutOfRangeError(PolyCrtError):
    """A polynomial exceeds the degree bound its role allows."""


class ZeroModulusError(PolyCrtError):
    """A modulus must be a nonzero polynomial."""


class CoprimeModuliError(PolyCrtError):
    """The moduli share no factor: their gcd is a scalar."""


class DegenerateModuliError(PolyCrtError):
    """One modulus divides the other, leaving no redundancy to exploit."""


class InconsistentResiduesError(PolyCrtError):
    """Residues disagree modulo the gcd of the moduli; no common preimage."""


class TooFewModuliError(PolyCrtError):
    """At least two moduli are required."""


class LevelOutOfRangeError(PolyCrtError):
    """Level index outside 1..K+1 for the analyzed moduli pair."""
