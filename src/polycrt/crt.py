"""Residue encoding and exact two-moduli reconstruction.

Encoding splits ``a`` into ``a_i = a mod m_i`` together with the folding
polynomials ``k_i`` from ``a = k_i * m_i + a_i``.  Reconstruction of a
consistent residue pair is the decoder's cascade (:mod:`polycrt.decoder`) at
the top level ``K + 1``: it reduces ``a1 - a2`` and weighs the quotients into
``k2``, and ``a = k2 * m2 + a2`` is the unique preimage of degree below
``deg(lcm(m1, m2))``.  Every step modulus is a multiple of ``m`` and the last
is ``m`` times a scalar, so the tail is ``(a1 - a2) mod m``: zero exactly
when the residues are consistent.
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
from .poly import Polynomial, _divmod_by, _mul_add, _record, _reduce_chain


def _check_residues(
    x1: Polynomial, x2: Polynomial, moduli: ModuliPairAnalysis, name: str
) -> None:
    """Require ``x1, x2`` over the moduli's field with ``deg(x_i) < deg(m_i)``.

    ``name`` is the residue letter used in error messages (``a`` or ``r``).
    """
    field = moduli.field
    if x1.field is not field and x1.field != field or x2.field is not field and x2.field != field:
        raise MixedFieldsError("residues must live in the moduli's field")
    ok1 = x1.degree < moduli.m1.degree
    if not (ok1 and x2.degree < moduli.m2.degree):
        i, x, mod = (2, x2, moduli.m2) if ok1 else (1, x1, moduli.m1)
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
    """Residues and folding polynomials of ``a``; requires deg(a) < deg(lcm).

    Over F_2 the two divisions run through the analysis's byte tables,
    eight quotient bits per step (see :class:`ModuliPairAnalysis`); over odd
    p they are ``divmod``.
    """
    field = moduli.field
    if a.field is not field and a.field != field:
        raise MixedFieldsError("polynomial and moduli fields differ")
    if not a.degree < moduli.lcm.degree:
        raise DegreeOutOfRangeError(
            f"deg(a) = {a.degree} not below deg(lcm) = {moduli.lcm.degree}"
        )
    table1, table2 = moduli.tables
    k1, a1 = _divmod_by(a, moduli.m1, table1)
    k2, a2 = _divmod_by(a, moduli.m2, table2)
    # The residues are below their moduli by construction: no re-check.
    return _record(ResiduePair, a1=a1, a2=a2, moduli=moduli), _record(FoldingWitness, k1=k1, k2=k2)


def crt_pair(pair: ResiduePair) -> Polynomial:
    """Exact reconstruction of the unique ``a`` below the lcm degree.

    Raises :class:`InconsistentResiduesError` when the residues disagree
    modulo the gcd (equivalently: when the difference is not exactly
    divisible by it), in which case no reconstruction exists.
    """
    analysis = pair.moduli
    tail, k2 = _reduce_chain(pair.a1 - pair.a2, analysis.chain, analysis.K + 2)
    if not tail.is_zero:
        raise InconsistentResiduesError(
            "residues disagree modulo gcd(m1, m2); no common preimage exists"
        )
    return _mul_add(k2, analysis.m2, analysis.tables[1], pair.a2)
