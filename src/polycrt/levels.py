"""Structural analysis of a non-coprime moduli pair and its level trade-off.

Given moduli ``m1, m2`` with a common factor, the analysis derives their
monic gcd ``m``, the coprime cofactors ``gamma1 = m1/m`` and
``gamma2 = m2/m``, the monic lcm, the modular inverse of ``gamma2`` modulo
``gamma1``, and the Euclidean remainder chain

    sigma_{-1} = gamma2,  sigma_0 = gamma1,  sigma_i = sigma_{i-2} mod sigma_{i-1}

whose degrees strictly decrease from ``sigma_0`` down to the final entry
``sigma_{K+1}``, a nonzero scalar.  Each chain index ``i`` in ``1..K+1`` is a
*level*: residue errors of degree up to (exclusive) ``deg(m) + deg(sigma_i)``
can be tolerated for messages of degree up to (exclusive)
``deg(lcm) - deg(sigma_i)``.  Lower levels tolerate bigger errors on a
smaller message range; the top level covers the full range ``deg(lcm)`` with
the smallest error bound ``deg(m)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from .errors import (
    CoprimeModuliError,
    DegenerateModuliError,
    LevelOutOfRangeError,
    TooFewModuliError,
    ZeroModulusError,
)
from .field import PrimeField
from .poly import Polynomial, gcd


@dataclass(frozen=True)
class LevelSpec:
    """One row of the level trade-off table.

    ``error_bound_exclusive`` is the strict upper bound on the residue error
    degree tau; ``dynamic_range_exclusive`` is the strict upper bound on the
    degree of a reconstructable polynomial.
    """

    index: int
    sigma_deg: int
    error_bound_exclusive: int
    dynamic_range_exclusive: int


@dataclass(frozen=True)
class ModuliPairAnalysis:
    """Everything derived from a moduli pair that encode/decode needs.

    ``sigma`` stores the full chain ``sigma_{-1} .. sigma_{K+1}``; use
    :meth:`sigma_poly` for index-faithful access, or :attr:`remainders` for
    the derived entries ``sigma_1 .. sigma_{K+1}``.  ``cascade_moduli`` holds
    the precomputed products ``m * sigma_i`` for ``i = 1..K+1``, the step
    moduli of the decoder's remainder cascade.  ``swapped`` records whether
    the input order was reversed to keep ``deg(m1) <= deg(m2)``.
    """

    m1: Polynomial
    m2: Polynomial
    m: Polynomial
    gamma1: Polynomial
    gamma2: Polynomial
    lcm: Polynomial
    gamma_inv21: Polynomial
    sigma: Tuple[Polynomial, ...]
    K: int
    levels: Tuple[LevelSpec, ...]
    cascade_moduli: Tuple[Polynomial, ...]
    swapped: bool

    @property
    def field(self) -> PrimeField:
        return self.m1.field

    @property
    def remainders(self) -> Tuple[Polynomial, ...]:
        """The derived chain entries sigma_1 .. sigma_{K+1}."""
        return self.sigma[2:]

    def sigma_poly(self, i: int) -> Polynomial:
        """Chain entry sigma_i for i in [-1, K+1]."""
        if not -1 <= i <= self.K + 1:
            raise LevelOutOfRangeError(
                f"sigma index {i} outside [-1, {self.K + 1}]"
            )
        return self.sigma[i + 1]

    def level_spec(self, level: int) -> LevelSpec:
        """The :class:`LevelSpec` for ``level`` in ``1..K+1``."""
        if not 1 <= level <= self.K + 1:
            raise LevelOutOfRangeError(
                f"level {level} outside [1, {self.K + 1}] for this moduli pair"
            )
        return self.levels[level - 1]


def analyze_pair(m1: Polynomial, m2: Polynomial) -> ModuliPairAnalysis:
    """Derive the full :class:`ModuliPairAnalysis` for a moduli pair.

    The pair is normalized so ``deg(m1) <= deg(m2)`` (equal degrees keep the
    input order).  Rejects zero moduli, coprime pairs (gcd of degree 0, which
    leaves no cross-residue redundancy) and degenerate pairs where one
    modulus divides the other (the cofactor of the smaller modulus would be
    a scalar and no level would exist).
    """
    m1._check_field(m2)
    if m1.is_zero or m2.is_zero:
        raise ZeroModulusError("moduli must be nonzero")
    swapped = m1.degree > m2.degree
    if swapped:
        m1, m2 = m2, m1

    m = gcd(m1, m2)
    if m.degree == 0:
        raise CoprimeModuliError(
            "moduli are coprime (gcd is a scalar); a shared factor of degree"
            " >= 1 is required"
        )
    gamma1 = m1 // m
    gamma2 = m2 // m
    if gamma1.degree == 0:
        raise DegenerateModuliError(
            "one modulus divides the other; the pair carries no usable"
            " redundancy"
        )
    big = (m1 * gamma2).monic()

    # One extended Euclid pass over (gamma2, gamma1): the remainders are the
    # sigma chain, and s1 * gamma2 == chain[-1] (mod gamma1) throughout, so
    # at the final scalar entry c, s1 / c inverts gamma2 modulo gamma1.
    chain = [gamma2, gamma1]
    s0, s1 = Polynomial(m.field, (1,)), Polynomial(m.field)
    while chain[-1].degree > 0:
        q, r = divmod(chain[-2], chain[-1])
        chain.append(r)
        s0, s1 = s1, s0 - q * s1
        if r.is_zero:
            raise AssertionError("chain hit zero before a scalar")
    inv21 = (s1 % gamma1)._scale(m.field.inv(chain[-1].lead))
    k_index = len(chain) - 3

    deg_m = m.degree
    deg_big = big.degree
    levels = tuple(
        LevelSpec(
            index=i,
            sigma_deg=chain[i + 1].degree,
            error_bound_exclusive=deg_m + chain[i + 1].degree,
            dynamic_range_exclusive=deg_big - chain[i + 1].degree,
        )
        for i in range(1, k_index + 2)
    )
    cascade_moduli = tuple(m * chain[i + 1] for i in range(1, k_index + 2))

    analysis = ModuliPairAnalysis(
        m1=m1,
        m2=m2,
        m=m,
        gamma1=gamma1,
        gamma2=gamma2,
        lcm=big,
        gamma_inv21=inv21,
        sigma=tuple(chain),
        K=k_index,
        levels=levels,
        cascade_moduli=cascade_moduli,
        swapped=swapped,
    )
    _assert_invariants(analysis)
    return analysis


def _assert_invariants(analysis: ModuliPairAnalysis) -> None:
    # Explicit raises rather than assert statements, so that python -O keeps
    # this cross-check of the polynomial kernels.
    degs = [s.degree for s in analysis.sigma]
    if degs[0] < degs[1]:
        raise AssertionError("starting entries out of order")
    if not all(degs[i] > degs[i + 1] for i in range(1, len(degs) - 1)):
        raise AssertionError("chain degrees do not strictly decrease")
    if not (degs[-1] == 0 and not analysis.sigma[-1].is_zero):
        raise AssertionError("chain does not end in a nonzero scalar")
    if analysis.m * analysis.gamma1 != analysis.m1:
        raise AssertionError("m * gamma1 != m1")
    if analysis.m * analysis.gamma2 != analysis.m2:
        raise AssertionError("m * gamma2 != m2")
    if (analysis.gamma_inv21 * analysis.gamma2) % analysis.gamma1 != Polynomial(
        analysis.field, (1,)
    ):
        raise AssertionError("gamma_inv21 * gamma2 != 1 (mod gamma1)")


def residue_error_bound(moduli: Sequence[Polynomial]) -> int:
    """Exclusive residue error bound for robust reconstruction over L moduli.

    Computed as the maximum over moduli of the smallest pairwise gcd degree
    with the others; reconstruction of any polynomial below the lcm degree
    tolerates per-residue errors of degree strictly below this value.  Zero
    means no robustness (some modulus is coprime to all others).
    """
    if len(moduli) < 2:
        raise TooFewModuliError("at least two moduli are required")
    for mod in moduli:
        if mod.is_zero:
            raise ZeroModulusError("moduli must be nonzero")
    best = 0
    for i, mi in enumerate(moduli):
        worst = None
        for j, mj in enumerate(moduli):
            if i == j:
                continue
            d = gcd(mi, mj).degree
            worst = d if worst is None else min(worst, d)
        best = max(best, worst)
    return best


def render_level_table(analysis: ModuliPairAnalysis) -> str:
    """Aligned text table of the level trade-off, one row per level."""
    rows = [("level", "deg(sigma_i)", "residue error bound", "dynamic range")]
    for spec in analysis.levels:
        rows.append(
            (
                str(spec.index),
                str(spec.sigma_deg),
                f"tau < {spec.error_bound_exclusive}",
                f"deg(a) < {spec.dynamic_range_exclusive}",
            )
        )
    widths = [max(len(row[c]) for row in rows) for c in range(4)]
    return "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in rows
    )


def analysis_to_json(analysis: ModuliPairAnalysis) -> dict:
    """JSON-ready summary; polynomials use the canonical text form."""
    return {
        "p": analysis.field.p,
        "m1": str(analysis.m1),
        "m2": str(analysis.m2),
        "m": str(analysis.m),
        "gamma1": str(analysis.gamma1),
        "gamma2": str(analysis.gamma2),
        "degM": analysis.lcm.degree,
        "K": analysis.K,
        "sigma": [str(s) for s in analysis.remainders],
        "swapped": analysis.swapped,
        "levels": [
            {
                "level": spec.index,
                "sigmaDeg": spec.sigma_deg,
                "errorBoundExclusive": spec.error_bound_exclusive,
                "dynamicRangeExclusive": spec.dynamic_range_exclusive,
            }
            for spec in analysis.levels
        ],
    }
