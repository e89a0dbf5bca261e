"""Residue encoding and exact two-moduli reconstruction.

Encoding splits ``a`` into ``a_i = a mod m_i`` together with the folding
polynomials ``k_i`` from ``a = k_i * m_i + a_i``.  Reconstruction of a
consistent residue pair is the decoder's cascade (:mod:`polycrt.decoder`) at
the top level ``K + 1``: it reduces ``a1 - a2`` and weighs the quotients into
``k2``, and ``a = k2 * m2 + a2`` is the unique preimage of degree below
``deg(lcm(m1, m2))``.  Every step modulus is a multiple of ``m`` and the last
is ``m`` times a scalar, so the tail is ``(a1 - a2) mod m``: zero exactly
when the residues are consistent.

The decode core works on stored values (:mod:`polycrt.poly`), and its set-up
picks the field once and binds that field's kernels: :func:`_divisions`
gives ``divmod`` by ``m1`` and by ``m2``, and :func:`_decoder` the
decoder's formula at one level, which each kernel module writes once for
its field (:func:`polycrt.gf2._decode`, :func:`polycrt.kronecker._decode`).
``encode``, ``crt_pair``, ``reconstruct`` and every campaign trial call the
bound kernels.  The odd-p kernel module is imported on the first odd-p
set-up, as in :mod:`polycrt.poly`.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from operator import xor

from . import gf2
from .errors import (
    DegreeOutOfRangeError,
    InconsistentResiduesError,
    MixedFieldsError,
)
from .field import PrimeField
from .levels import ModuliPairAnalysis
from .poly import Polynomial, _Submodule, _from_bits, _record

# The odd-p kernels, imported on first odd-p use.
kronecker = _Submodule(globals(), "kronecker")


def _divisions(analysis: ModuliPairAnalysis) -> tuple[Callable, Callable]:
    """``divmod`` by ``m1`` and by ``m2`` on stored values of the analysis's field.

    Over F_2 they run through the analysis's byte tables, eight quotient
    bits per step (see :class:`ModuliPairAnalysis`); over odd p, through the
    kernel of ``divmod``.
    """
    field = analysis.field
    if field.p == 2:
        table1, table2 = analysis.tables
        return partial(gf2._cltable_divmod, *table1), partial(gf2._cltable_divmod, *table2)
    m1, m2 = analysis.m1._value, analysis.m2._value
    return (
        partial(kronecker._tuple_divmod, m1, field.p, field.inv(m1[-1])),
        partial(kronecker._tuple_divmod, m2, field.p, field.inv(m2[-1])),
    )


def _decoder(analysis: ModuliPairAnalysis, level: int) -> Callable:
    """The decoder at ``level`` on stored values: ``decode(r1, r2) -> (q21, tail, k2_hat, a_hat)``.

    The formula of :mod:`polycrt.decoder`: ``q21 = r1 - r2``, its cascade
    over chain steps ``0 .. level`` gives ``tail`` and ``k2_hat``, and
    ``a_hat = k2_hat * m2 + r2``, by the field's kernel.  The level is
    checked first.  ``r1`` and ``r2`` must lie below their moduli, as the
    residue pairs check, or ``q21`` may be longer than the chain takes.
    """
    analysis.level_spec(level)
    stop, chain = level + 1, analysis.chain
    if analysis.field.p == 2:
        return partial(gf2._decode, chain.layout, chain.index, stop, analysis.tables[1][0])
    return partial(
        kronecker._decode, chain.steps, chain.cofs, *chain.layout, analysis.field.p, stop,
        analysis.m2._value,
    )


def _arithmetic(field: PrimeField) -> tuple[Callable, Callable, Callable]:
    """``add``, ``sub`` and the length, in bits or coefficients, of stored values of ``field``."""
    if field.p == 2:
        return xor, xor, int.bit_length
    return partial(kronecker._dense_add, field.p), partial(kronecker._dense_sub, field.p), len


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
) -> tuple[ResiduePair, FoldingWitness]:
    """Residues and folding polynomials of ``a``; requires deg(a) < deg(lcm).

    The two divisions are those of :func:`_divisions`.
    """
    field = a.field
    if field is not moduli.field and field != moduli.field:
        raise MixedFieldsError("polynomial and moduli fields differ")
    # The top level's range is deg(lcm), with no product taken.
    deg_lcm = moduli.levels[-1].dynamic_range_exclusive
    if not a.degree < deg_lcm:
        raise DegreeOutOfRangeError(f"deg(a) = {a.degree} not below deg(lcm) = {deg_lcm}")
    div1, div2 = _divisions(moduli)
    (k1, a1), (k2, a2) = div1(a._value), div2(a._value)
    # The residues are below their moduli by construction: no re-check.
    residues = _record(ResiduePair, a1=_from_bits(field, a1), a2=_from_bits(field, a2), moduli=moduli)
    return residues, _record(FoldingWitness, k1=_from_bits(field, k1), k2=_from_bits(field, k2))


def crt_pair(pair: ResiduePair) -> Polynomial:
    """Exact reconstruction of the unique ``a`` below the lcm degree.

    Raises :class:`InconsistentResiduesError` when the residues disagree
    modulo the gcd (equivalently: when the difference is not exactly
    divisible by it), in which case no reconstruction exists.
    """
    analysis = pair.moduli
    _, tail, _, a = _decoder(analysis, analysis.K + 1)(pair.a1._value, pair.a2._value)
    if tail:
        raise InconsistentResiduesError(
            "residues disagree modulo gcd(m1, m2); no common preimage exists"
        )
    return _from_bits(pair.a1.field, a)
