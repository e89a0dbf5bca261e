"""Structural analysis of a non-coprime moduli pair and its level trade-off.

Given moduli ``m1, m2`` with a common factor, the analysis derives their
monic gcd ``m``, the coprime cofactors ``gamma1 = m1/m`` and
``gamma2 = m2/m``, the monic lcm, and the Euclidean remainder chain

    sigma_{-1} = gamma2,  sigma_0 = gamma1,  sigma_i = sigma_{i-2} mod sigma_{i-1}

whose degrees strictly decrease from ``sigma_0`` down to the final entry
``sigma_{K+1}``, a nonzero scalar; :class:`ModuliPairAnalysis` says what is
stored and what is derived on read.  Each chain index ``i`` in ``1..K+1``
is a *level*: residue errors of degree below ``deg(m) + deg(sigma_i)`` can
be tolerated for messages of degree below ``deg(lcm) - deg(sigma_i)``.
Lower levels tolerate bigger errors on a smaller message range; the top
level covers the full range ``deg(lcm)`` with the smallest error bound
``deg(m)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from functools import cached_property

from .errors import (
    CoprimeModuliError,
    DegenerateModuliError,
    LevelOutOfRangeError,
    ZeroModulusError,
)
from .field import PrimeField
from .gf2 import ByteTable, _clbyte_table, _is_byte_table
from .poly import NEG_INF, PackedChain, Polynomial, _euclid_pass, _from_pass, _record


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

    It stores ``m1``, ``m2``, ``m``, ``gamma1``, ``gamma2``, ``chain`` and
    ``swapped``; every other attribute is computed on read.  ``levels`` and
    ``tables`` are computed on first read and kept: the rows of ``levels``
    are read off the chain's step degrees, ``deg(m)`` and ``deg(lcm) =
    deg(m1) + deg(gamma2)``, so its top row's ``dynamic_range_exclusive`` is
    ``deg(lcm)``, and ``K`` is the row count less one.

    ``chain`` is the only stored form of the cascade: the steps of the
    Euclid pass over ``(m2, m1)`` that also yields ``m``, packed as the
    decoder divides by them (:class:`~polycrt.poly.PackedChain`, for inputs
    as long as ``m2``), and :func:`analyze_pair` is the one place that
    builds such a chain.  Step 0 is ``m1`` with cofactor 0, and step ``i`` in
    ``1..K+1`` is ``m * sigma_i`` with the Bezout cofactor ``s_i`` of the
    same pass, ``s_i * m2 + t_i * m1 = m * sigma_i``, so ``s_i * gamma2 ==
    sigma_i (mod gamma1)`` and ``deg(s_i) = deg(m1) - deg(m * sigma_{i-1})``.
    The properties read the chain; :attr:`sigma` and :attr:`remainders` take
    a second Euclid pass, over the cofactors, and read its bare steps, with
    no chain built.  ``swapped`` records whether the input order was
    reversed to keep ``deg(m1) <= deg(m2)``.

    Over F_2, ``tables`` holds a byte table per modulus
    (:data:`~polycrt.gf2.ByteTable`), for ``encode``'s divisions and the
    products by ``m2``; over odd p both are None.  They are built and
    checked on the first division or decode, so an analysis that never
    decodes never builds them, and they pay off over many round trips
    (README).  The chain is a function of ``(m1, m2)``, which equality
    compares, so it takes no part in equality, hashing or repr.  An analysis
    pickles and copies as its moduli, in their input order: a restore is a
    fresh :func:`analyze_pair`, which builds the chain again and checks it,
    so no pickle holds the chain, the rows or the tables.
    """

    m1: Polynomial
    m2: Polynomial
    m: Polynomial
    gamma1: Polynomial
    gamma2: Polynomial
    chain: PackedChain = dataclass_field(compare=False, repr=False)
    swapped: bool

    def __reduce__(self) -> tuple:
        return analyze_pair, (self.m2, self.m1) if self.swapped else (self.m1, self.m2)

    @cached_property
    def levels(self) -> tuple[LevelSpec, ...]:
        """The rows of levels 1..K+1, one per chain step after step 0.

        deg(sigma_i) = deg(m * sigma_i) - deg(m), and deg(lcm) = deg(m1) +
        deg(gamma2).  The rows hold ints by construction, so they skip the
        frozen __init__'s four setattr calls.
        """
        deg_m = self.m.degree
        deg_big = self.m1.degree + self.gamma2.degree
        return tuple(
            _record(LevelSpec, index=i, sigma_deg=d - deg_m, error_bound_exclusive=d,
                    dynamic_range_exclusive=deg_big - d + deg_m)
            for i, d in enumerate(self.chain.degrees()[0][1:], start=1)
        )

    @cached_property
    def tables(self) -> tuple[ByteTable | None, ByteTable | None]:
        """The byte tables of m1 and m2 over F_2, checked against them; (None, None) at odd p."""
        if self.field.p != 2:
            return None, None
        tables = _clbyte_table(self.m1._value), _clbyte_table(self.m2._value)
        # An explicit raise, so that python -O keeps this cross-check.
        for name, mod, table in zip(("m1", "m2"), (self.m1, self.m2), tables):
            if not _is_byte_table(mod._value, table):
                raise AssertionError(f"byte table of {name} does not match it")
        return tables

    @property
    def field(self) -> PrimeField:
        return self.m1.field

    @property
    def K(self) -> int:
        """The index of the last chain entry before the scalar sigma_{K+1}."""
        return len(self.levels) - 1

    @property
    def lcm(self) -> Polynomial:
        """The monic lcm m1 * gamma2, multiplied out on each read."""
        return (self.m1 * self.gamma2).monic()

    @property
    def cascade_moduli(self) -> tuple[Polynomial, ...]:
        """The step moduli m * sigma_1 .. m * sigma_{K+1}, from the chain."""
        return tuple(map(self.chain.modulus, range(1, len(self.chain.steps))))

    @property
    def cascade_cofactors(self) -> tuple[Polynomial, ...]:
        """The Bezout cofactors s_1 .. s_{K+1} of the steps, from the chain."""
        return tuple(map(self.chain.cofactor, range(1, len(self.chain.cofs))))

    @property
    def gamma_inv21(self) -> Polynomial:
        """gamma2's inverse mod gamma1: s_{K+1} over sigma_{K+1}, the last step's lead."""
        return self.chain.cofactor(-1)._scale(self.field.inv(self.chain.modulus(-1).lead))

    @property
    def sigma(self) -> tuple[Polynomial, ...]:
        """The chain sigma_{-1} .. sigma_{K+1}: gamma2, then the steps of the
        Euclid pass over (gamma2, gamma1), since m*a mod m*b == m*(a mod b)."""
        _, layout, rows = _euclid_pass(self.gamma2, self.gamma1)
        return (self.gamma2, *(_from_pass(self.field, layout, step) for step, _, _ in rows))

    @property
    def remainders(self) -> tuple[Polynomial, ...]:
        """The derived chain entries sigma_1 .. sigma_{K+1}."""
        return self.sigma[2:]

    def level_spec(self, level: int) -> LevelSpec:
        """The :class:`LevelSpec` for ``level`` in ``1..K+1``."""
        if not 1 <= level <= len(self.levels):
            raise LevelOutOfRangeError(
                f"level {level} outside [1, {len(self.levels)}] for this moduli pair"
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

    # One Euclid pass over (m2, m1) (see ModuliPairAnalysis), whose every
    # step and cofactor the chain keeps.  Its last step is m times the
    # scalar sigma_{K+1}, or m1 when there is no remainder, and the cofactor
    # s_N its last row leaves is gamma1 times a scalar; gamma1 = m1 / m with
    # m monic has m1's lead.
    size, layout, rows = _euclid_pass(m2, m1)
    steps, cofs, after = zip(*rows)
    chain = PackedChain(m1.field, size, layout, steps, cofs)
    last = _from_pass(m1.field, layout, after[-1])
    m = chain.modulus(-1).monic()
    if m.degree == 0:
        raise CoprimeModuliError(
            "moduli are coprime (gcd is a scalar); a shared factor of degree"
            " >= 1 is required"
        )
    gamma1 = last._scale(m1.lead * m1.field.inv(last.lead))
    gamma2 = m2 // m
    if gamma1.degree == 0:
        raise DegenerateModuliError(
            "one modulus divides the other; the pair carries no usable"
            " redundancy"
        )
    analysis = ModuliPairAnalysis(
        m1=m1,
        m2=m2,
        m=m,
        gamma1=gamma1,
        gamma2=gamma2,
        chain=chain,
        swapped=swapped,
    )
    _assert_invariants(analysis)
    return analysis


def _assert_invariants(analysis: ModuliPairAnalysis) -> None:
    """Cross-check an analysis against its chain, with explicit raises that python -O keeps.

    The chain's constructor has checked that its degrees strictly fall and
    that each step has one cofactor.  The level rows and the byte tables
    are built from what this checks, on first read; ``tables`` checks
    itself when it is built.
    """
    step_degs, cofactor_degs = analysis.chain.degrees()
    degs = [analysis.m2.degree, analysis.m1.degree] + step_degs[1:]
    if degs[0] < degs[1]:
        raise AssertionError("starting entries out of order")
    if cofactor_degs[0] != NEG_INF or analysis.chain.modulus(0) != analysis.m1:
        raise AssertionError("chain does not start at m1 with cofactor 0")
    if degs[-1] != analysis.m.degree:
        raise AssertionError("chain does not end in a nonzero scalar")
    if any(s != degs[1] - d for s, d in zip(cofactor_degs[1:], degs[1:])):
        raise AssertionError("cascade cofactor degrees do not match the chain")
    if analysis.m.lead != 1:
        raise AssertionError("m is not monic")
    if analysis.m * analysis.gamma1 != analysis.m1:
        raise AssertionError("m * gamma1 != m1")
    if analysis.m * analysis.gamma2 != analysis.m2:
        raise AssertionError("m * gamma2 != m2")
    if (analysis.gamma_inv21 * analysis.gamma2) % analysis.gamma1 != Polynomial(
        analysis.field, (1,)
    ):
        raise AssertionError("gamma_inv21 * gamma2 != 1 (mod gamma1)")


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
        "degM": analysis.levels[-1].dynamic_range_exclusive,
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
