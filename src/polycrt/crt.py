"""Residue encoding and exact two-moduli reconstruction.

Encoding splits ``a`` into ``a_i = a mod m_i`` together with the folding
polynomials ``k_i`` from ``a = k_i * m_i + a_i``.  Reconstruction inverts
that map for any consistent residue pair: since
``k2 * gamma2 - k1 * gamma1 = (a1 - a2) / m``, reducing modulo ``gamma1``
recovers ``k2 = ((a1 - a2) / m) * gamma_inv21 mod gamma1`` and then
``a = k2 * m2 + a2``.  The result is the unique preimage of degree below
``deg(lcm(m1, m2))``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .errors import (
    DegreeOutOfRangeError,
    InconsistentResiduesError,
    MixedFieldsError,
)
from .levels import ModuliPairAnalysis
from .poly import Polynomial


def _check_residues(
    x1: Polynomial, x2: Polynomial, moduli: ModuliPairAnalysis, name: str
) -> None:
    """Require ``x1, x2`` over the moduli's field with ``deg(x_i) < deg(m_i)``.

    ``name`` is the residue letter used in error messages (``a`` or ``r``).
    """
    field = moduli.field
    for x in (x1, x2):
        if x.field is not field and x.field != field:
            raise MixedFieldsError("residues must live in the moduli's field")
    for i, x, mod in ((1, x1, moduli.m1), (2, x2, moduli.m2)):
        if not x.degree < mod.degree:
            raise DegreeOutOfRangeError(
                f"deg({name}{i}) = {x.degree} not below deg(m{i}) = {mod.degree}"
            )


@dataclass(frozen=True)
class ResiduePair:
    """Residues of one polynomial with respect to an analyzed moduli pair."""

    a1: Polynomial
    a2: Polynomial
    moduli: ModuliPairAnalysis

    def __post_init__(self) -> None:
        _check_residues(self.a1, self.a2, self.moduli, "a")


@dataclass(frozen=True)
class FoldingWitness:
    """The quotients ``k1, k2`` from ``a = k_i * m_i + a_i``."""

    k1: Polynomial
    k2: Polynomial


def encode(
    a: Polynomial, moduli: ModuliPairAnalysis
) -> Tuple[ResiduePair, FoldingWitness]:
    """Residues and folding polynomials of ``a``; requires deg(a) < deg(lcm)."""
    field = moduli.field
    if a.field is not field and a.field != field:
        raise MixedFieldsError("polynomial and moduli fields differ")
    if not a.degree < moduli.lcm.degree:
        raise DegreeOutOfRangeError(
            f"deg(a) = {a.degree} not below deg(lcm) = {moduli.lcm.degree}"
        )
    k1, a1 = divmod(a, moduli.m1)
    k2, a2 = divmod(a, moduli.m2)
    return ResiduePair(a1, a2, moduli), FoldingWitness(k1, k2)


def check_consistency(pair: ResiduePair) -> bool:
    """True iff the residues agree modulo the gcd of the moduli.

    Residues of a common polynomial always pass; a pair that fails has no
    preimage at all.
    """
    return ((pair.a1 - pair.a2) % pair.moduli.m).is_zero


def crt_pair(pair: ResiduePair) -> Polynomial:
    """Exact reconstruction of the unique ``a`` below the lcm degree.

    Raises :class:`InconsistentResiduesError` when the residues disagree
    modulo the gcd (equivalently: when the difference is not exactly
    divisible by it), in which case no reconstruction exists.
    """
    analysis = pair.moduli
    quot, rem = divmod(pair.a1 - pair.a2, analysis.m)
    if not rem.is_zero:
        raise InconsistentResiduesError(
            "residues disagree modulo gcd(m1, m2); no common preimage exists"
        )
    k2 = (quot * analysis.gamma_inv21) % analysis.gamma1
    return k2 * analysis.m2 + pair.a2
