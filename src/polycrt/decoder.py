"""Closed-form robust reconstruction from erroneous residues.

Given received residues ``r1 = a1 + e1`` and ``r2 = a2 + e2`` of an unknown
polynomial ``a``, the decoder recovers the folding polynomial ``k2`` exactly
and returns ``a_hat = k2_hat * m2 + r2``, so the reconstruction differs from
``a`` only by ``e2``.  Operating at level ``i`` this is guaranteed whenever

    deg(a)  <  deg(lcm) - deg(sigma_i)      (dynamic range)
    deg(e1), deg(e2)  <  deg(m) + deg(sigma_i)   (error bound)

The decoder is one formula on the received-residue difference ``q21 = r1 - r2``:

    tail, k2_hat = cascade(q21)
    tail   = q21 mod m1 mod m*sigma_1 mod ... mod m*sigma_i
    k2_hat = c_1*s_1 + ... + c_i*s_i

where ``c_j`` is the quotient of cascade step ``j`` and ``s_j`` the Bezout
cofactor of the analysis's Euclid pass, ``s_j*m2 + t_j*m1 = m*sigma_j``;
step 0, ``mod m1``, has cofactor 0.  Inside the bounds the cascade strips
the clean difference ``a1 - a2`` (a multiple of ``m``) and leaves ``tail =
e1 - e2``, so ``k2 = ((q21 - tail) / m * gamma_inv21) mod gamma1``.  The
cascade yields that value without the division, the product or the
reduction: dividing the Bezout identity by ``m`` gives ``sigma_j *
gamma_inv21 == s_j (mod gamma1)``, and ``q21 - tail`` is a multiple of
``m1``, which vanishes mod ``gamma1`` after dividing by ``m``, plus ``sum
c_j*m*sigma_j``.  The sum is already reduced: ``deg(c_j) <
deg(m*sigma_{j-1}) - deg(m*sigma_j)`` and ``deg(s_j) = deg(m1) -
deg(m*sigma_{j-1})``, so every term has degree below ``deg(m1) -
deg(m*sigma_j) <= deg(gamma1)``.  This is an identity, inside the bounds
and outside them.  Each field computes the formula in one place, its
kernel module's ``_decode`` (:func:`polycrt.gf2._decode`,
:func:`polycrt.kronecker._decode`), which :func:`polycrt.crt._decoder`
binds at a level and :func:`reconstruct` wraps.

No decoder of any kind beats the level table.  With errors of degree
below ``A``, the widest message range that any decoder can serve is the
largest ``deg(lcm) - deg(sigma_i)`` among the levels whose error bound is
at least ``A``, or ``deg(m2)`` when none is (the decoder ``a_hat = r2``).
The analysis's chain holds the witness: ``d_j = m*sigma_j - s_j*m2`` is a
multiple of ``m1`` (it is ``t_j*m1``), is ``m*sigma_j`` mod ``m2``, and has
degree ``deg(lcm) - deg(sigma_{j-1})``, the range of level ``j - 1``.  So
for ``A`` past level ``j``'s error bound, a message under the error
``e2 = m*sigma_j`` and the message plus ``d_j`` under no error give the
same received pair; the two differ at that degree, and no decoder is right
on both.  The witness tests and an exhaustive search over small pairs
(``tests/test_decoder.py``, ``tests/test_levels.py``) check this.

The degree of ``q21`` also names one of three cases, reported as
:class:`Branch` for diagnostics only; the formula is the same in all three:

* ``deg(m) + deg(sigma_i) <= deg(q21) < deg(m1)``: the clean residues
  differ but both fit below ``deg(m1)``; ``mod m1`` does nothing.
* ``deg(q21) >= deg(m1)``: the second clean residue is at least as big as
  ``m1``; ``mod m1`` brings the difference into the cascade's range.
* ``deg(q21) < deg(m) + deg(sigma_i)``: the clean residues are equal; the
  cascade leaves ``tail = q21`` and so ``k2_hat = 0``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .crt import _check_residues, _decoder
from .levels import ModuliPairAnalysis
from .poly import Degree, Polynomial, _from_bits, _record


class Branch(enum.Enum):
    """Diagnostic label for the degree of a received-residue difference."""

    FOLDED_DIFFERENCE = "folded_difference"
    LARGE_RESIDUE = "large_residue"
    EQUAL_RESIDUES = "equal_residues"


@dataclass(frozen=True)
class ErroneousResiduePair:
    """Received residues, still reduced modulo their respective moduli."""

    r1: Polynomial
    r2: Polynomial
    moduli: ModuliPairAnalysis

    def __post_init__(self) -> None:
        _check_residues(self.r1, self.r2, self.moduli, "r")


@dataclass(frozen=True)
class ReconstructionResult:
    """Decoder output: estimate, recovered folding polynomial and diagnostics.

    ``a_hat = k2_hat * m2 + r2`` always holds exactly.  ``cascade_tail`` is
    the remainder cascade of ``q21 mod m1``; inside the bounds it equals
    ``e1 - e2``.  ``branch`` is a diagnostic label of ``deg(q21)``.
    """

    a_hat: Polynomial
    k2_hat: Polynomial
    branch: Branch
    q21: Polynomial
    cascade_tail: Polynomial

    def to_json(self) -> dict:
        return {
            "aHat": str(self.a_hat),
            "k2Hat": str(self.k2_hat),
            "branch": self.branch.value,
            "q21": str(self.q21),
            "cascadeTail": str(self.cascade_tail),
        }


def classify(q21: Polynomial, analysis: ModuliPairAnalysis, level: int) -> Branch:
    """Branch label for a received-residue difference at the given level.

    The three branches are exhaustive and mutually exclusive; the zero
    difference has degree NEG_INF and lands in EQUAL_RESIDUES.
    """
    return _branch(q21.degree, analysis.m1.degree, analysis.level_spec(level).error_bound_exclusive)


def _branch(deg: Degree, deg_m1: int, bound: int) -> Branch:
    """The branch of a difference of degree ``deg``, for ``deg(m1)`` and the level's error bound.

    Any degree below the bound, which is at least 1, lands in EQUAL_RESIDUES.
    """
    if deg >= deg_m1:
        return Branch.LARGE_RESIDUE
    if deg >= bound:
        return Branch.FOLDED_DIFFERENCE
    return Branch.EQUAL_RESIDUES


def reconstruct(pair: ErroneousResiduePair, level: int) -> ReconstructionResult:
    """Robust reconstruction of ``a`` from erroneous residues at ``level``.

    Within the level's dynamic range and error bound the recovered
    ``k2_hat`` equals the true folding polynomial and
    ``a_hat - a = e2``.  Outside those bounds the decoder still returns a
    (possibly wrong) result; there is no reliable detector for violated
    preconditions.
    """
    analysis, field = pair.moduli, pair.r1.field
    q21, tail, k2_hat, a_hat = _decoder(analysis, level)(pair.r1._value, pair.r2._value)
    q21 = _from_bits(field, q21)
    return _record(
        ReconstructionResult, a_hat=_from_bits(field, a_hat), k2_hat=_from_bits(field, k2_hat),
        branch=classify(q21, analysis, level), q21=q21, cascade_tail=_from_bits(field, tail),
    )
