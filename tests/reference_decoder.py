"""Plain reference implementations for differential tests.

``reference_gcd`` and ``reference_xgcd`` are Euclid's algorithm as plain
``divmod`` loops, with three products per ``xgcd`` step, and
``reference_lcm`` is ``m1 * m2 // gcd`` made monic.  The library's
``gcd``, ``xgcd`` and ``lcm`` read its one Euclid pass instead, the pass
that ``analyze_pair`` runs, so these loops are what the tests compare it
with.
``reference_analyze_pair`` is the two-pass analysis: ``reference_gcd`` and
``reference_lcm`` separately, ``reference_xgcd`` for the cofactor inverse,
then a second Euclid pass for the sigma chain, from which it reads its
own level rows (its ``levels``); each cascade cofactor is
``sigma_i * inv21 mod gamma1``, and ``gamma1`` is ``m1 // m``, not the
Euclid pass's last cofactor.  ``reference_reconstruct`` is the
three-branch decoder, with an explicit divisibility check on
``q21 - tail``.  It runs its own cascade loop and takes every remainder
from ``divmod``.  The library's ``%`` is ``divmod``'s remainder, so the
two share the division kernels, but no code with the chain kernel or the
Euclid pass: a fault in those shows up as a difference.
``reference_crt_pair`` is exact reconstruction by the closed formula
``k2 = ((a1 - a2) / m * inv21) mod gamma1``.  All three take the inverse
``inv21`` of ``gamma2`` modulo ``gamma1`` from ``reference_xgcd``, not from
the analysis, which derives it from the chain.  The library computes the
same values in one Euclid pass and one cascade; these versions exist only
so tests can compare the two.
``two_row_reconstruct`` is the decoder as lattice rounding: at level i it
expresses ``(0, q21)`` in the rows of ``euclid_rows`` that hold
``m*sigma_i`` and ``m*sigma_{i+1}`` (the terminal row at the top level),
rounds both coordinates with ``//`` and reads ``k2_hat`` off the rounded
vector.  It takes the rows from its own ``//`` loop and needs no cascade
order, so it shares no code with the chain, its folds or the Euclid pass.
``schoolbook_mul`` is the product that the packed products are checked
against.  ``pack_chain`` is the
tests' one way to pack a chain of their own polynomials in the form an
analysis stores.  ``reference_fold_euclid`` and ``reference_fold_chain``
are the odd-p Euclid pass and cascade with one packed fold per quotient
digit (``reference_fold``), each digit read off the top slot; the library
finds a step's digits first and adds them in with one product per row, so
these loops are what the tests compare its pass and cascade with.
``search_boundary_counterexample`` replays campaign trials at ``tau`` equal
to a level's error bound until one fails, and returns it as a
:class:`BoundaryInstance`; a failure exists at every level, as the
closed-form witnesses in ``test_decoder.py`` show.  The guards below raise
``AssertionError`` explicitly: this is not a ``test_*.py`` module, so
pytest does not rewrite its ``assert`` statements and ``python -O`` would
strip them.
"""

from dataclasses import dataclass
from typing import Optional

from polycrt import (
    BothZeroError,
    Branch,
    CoprimeModuliError,
    DegenerateModuliError,
    ErroneousResiduePair,
    InconsistentResiduesError,
    LevelSpec,
    ModuliPairAnalysis,
    Polynomial,
    ReconstructionResult,
    ZeroInputError,
    ZeroModulusError,
    classify,
    encode,
    reconstruct,
)
from polycrt.kronecker import _chain_layout, _pack, _unpack
from polycrt.poly import Degree, PackedChain
from polycrt.simulation import _outcome, _run_trials


def schoolbook_mul(a, b, p: int) -> list:
    """Schoolbook product of two coefficient sequences, reduced mod p, possibly with trailing zeros."""
    out = [0] * (len(a) + len(b) - 1)
    for i, av in enumerate(a):
        if av:
            for j, bv in enumerate(b):
                if bv:
                    out[i + j] = (out[i + j] + av * bv) % p
    return out


def reference_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd by a ``divmod`` loop; ``gcd(a, 0)`` is ``a`` made monic."""
    a._check_field(b)
    if a.is_zero and b.is_zero:
        raise BothZeroError("gcd(0, 0) is undefined")
    while not b.is_zero:
        a, b = b, divmod(a, b)[1]
    return a.monic()


def reference_xgcd(a: Polynomial, b: Polynomial):
    """``(g, s, t)`` with ``s*a + t*b == g`` and g monic, by the extended ``divmod`` loop."""
    a._check_field(b)
    if a.is_zero and b.is_zero:
        raise BothZeroError("xgcd(0, 0) is undefined")
    field = a.field
    one = Polynomial(field, (1,))
    zero = Polynomial(field)
    r0, r1 = a, b
    s0, s1 = one, zero
    t0, t1 = zero, one
    while not r1.is_zero:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    c = field.inv(r0.lead)
    return r0._scale(c), s0._scale(c), t0._scale(c)


def reference_lcm(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic lcm of two nonzero polynomials: their product over ``reference_gcd``."""
    a._check_field(b)
    if a.is_zero or b.is_zero:
        raise ZeroInputError("lcm requires nonzero inputs")
    return (a * b // reference_gcd(a, b)).monic()


def pack_chain(field, moduli, cofactors, size: int) -> PackedChain:
    """The stored chain of these step moduli and cofactors, for inputs of up to ``size`` coefficients.

    Slots hold the reduced coefficients; a zero modulus packs as an empty
    step, which the chain rejects, as it rejects every shape the Euclid pass
    never builds.
    """
    p = field.p
    if p == 2:
        bits = [sum(c << i for i, c in enumerate(x.coeffs)) for x in (*moduli, *cofactors)]
        return PackedChain(field, size, None, bits[: len(moduli)], bits[len(moduli) :])
    width, code, _ = _chain_layout(p, size)
    steps = []
    for step in moduli:
        c = step.coeffs
        lead = c[-1] if c else 0
        neg_inv = -pow(lead, -1, p) % p if c else 0
        steps.append((len(c), _pack(c[:-1], width, code), neg_inv, lead))
    cofs = [_pack(s.coeffs, width, code) for s in cofactors]
    return PackedChain(field, size, (width, code), steps, cofs)


def reference_fold(rem, acc, low, cof, size, div_size, bits, p, neg_inv):
    """One division step on packed ints, one quotient digit at a time, reduced mod p nowhere.

    For each digit, top slot first, the slot's value ``c`` gives ``f = c *
    neg_inv mod p``; the slot is dropped, and ``f * low`` and ``f * cof``,
    shifted under it, are added to ``rem`` and ``acc``.
    """
    top = (size - 1) * bits
    shift = top - (div_size - 1) * bits
    while shift >= 0:
        c = rem >> top
        rem -= c << top
        f = c * neg_inv % p
        if f:
            rem += (f * low) << shift
            acc += (f * cof) << shift
        top -= bits
        shift -= bits
    return rem, acc


def reference_fold_chain(v, steps, cofs, width, code, p):
    """The odd-p cascade of coefficient tuple ``v`` by ``reference_fold``.

    Returns the tail and the weighted sum, as lists reduced mod p.
    """
    size = len(v)
    bits = 8 * width
    rem, acc = _pack(v, width, code), 0
    for (n, low, neg_inv, _), cof in zip(steps, cofs):
        if size >= n:
            rem, acc = reference_fold(rem, acc, low, cof, size, n, bits, p, neg_inv)
            size = n - 1
    tail = [c % p for c in _unpack(rem, size, width, code)]
    acc_size = -(-acc.bit_length() // bits)
    return tail, [-c % p for c in _unpack(acc, acc_size, width, code)]


def reference_fold_euclid(a, b, p):
    """The odd-p Euclid pass over coefficient tuples by ``reference_fold``.

    Both rows are Barrett-reduced after each step.  Returns the slot width
    and struct code, the lists of steps and cofactors, and ``s_N`` reduced
    mod p: the rows that ``polycrt.kronecker._fold_euclid`` yields, gathered.
    """
    width, code, reduce = _chain_layout(p, len(a))
    bits = 8 * width
    r0, r1, s0, s1 = _pack(a, width, code), _pack(b, width, code), 1, 0
    n0, n1, lead = len(a), len(b), b[-1]
    steps, cofs = [], []
    while True:
        neg_inv = -pow(lead, -1, p) % p
        low = r1 & ((1 << (n1 - 1) * bits) - 1)
        steps.append((n1, low, neg_inv, lead))
        cofs.append(s1)
        r0, s0 = reference_fold(r0, s0, low, s1, n0, n1, bits, p, neg_inv)
        r0, s0 = reduce(r0), reduce(s0)
        n0, n1 = n1, n1 - 1
        while n1:
            lead = (r0 >> (n1 - 1) * bits) % p
            if lead:
                break
            n1 -= 1
            r0 &= (1 << n1 * bits) - 1
        if not n1:
            return width, code, steps, cofs, [c % p for c in _unpack(s0, len(b), width, code)]
        r0, r1, s0, s1 = r1, r0, s1, s0


def reference_inverse(gamma2: Polynomial, gamma1: Polynomial) -> Polynomial:
    """The inverse of ``gamma2`` modulo ``gamma1``, from ``reference_xgcd``."""
    g, s, _ = reference_xgcd(gamma2, gamma1)
    if g.degree != 0:
        raise AssertionError("cofactors of the gcd must be coprime")
    return divmod(s, gamma1)[1]


def reference_analyze_pair(m1: Polynomial, m2: Polynomial) -> ModuliPairAnalysis:
    m1._check_field(m2)
    if m1.is_zero or m2.is_zero:
        raise ZeroModulusError("moduli must be nonzero")
    swapped = m1.degree > m2.degree
    if swapped:
        m1, m2 = m2, m1

    m = reference_gcd(m1, m2)
    if m.degree == 0:
        raise CoprimeModuliError("moduli are coprime")
    gamma1 = m1 // m
    gamma2 = m2 // m
    if gamma1.degree == 0:
        raise DegenerateModuliError("one modulus divides the other")
    big = reference_lcm(m1, m2)
    inv21 = reference_inverse(gamma2, gamma1)

    chain = [gamma2, gamma1]
    while chain[-1].degree > 0:
        chain.append(divmod(chain[-2], chain[-1])[1])
        if chain[-1].is_zero:
            raise AssertionError("chain hit zero before a scalar")
    k_index = len(chain) - 3
    # s_i * gamma2 == sigma_i (mod gamma1) with deg(s_i) < deg(gamma1), so
    # s_i is sigma_i * inv21 reduced, not the library's s recurrence.
    cofactors = tuple(divmod(sigma * inv21, gamma1)[1] for sigma in chain[2:])

    levels = tuple(
        LevelSpec(
            index=i,
            sigma_deg=chain[i + 1].degree,
            error_bound_exclusive=m.degree + chain[i + 1].degree,
            dynamic_range_exclusive=big.degree - chain[i + 1].degree,
        )
        for i in range(1, k_index + 2)
    )
    analysis = ModuliPairAnalysis(
        m1=m1,
        m2=m2,
        m=m,
        gamma1=gamma1,
        gamma2=gamma2,
        chain=pack_chain(
            m.field,
            [m1] + [m * chain[i + 1] for i in range(1, k_index + 2)],
            (Polynomial(m.field),) + cofactors,
            m2.degree + 1,
        ),
        swapped=swapped,
    )
    # The library reads its rows off its own chain on first read; these
    # rows, from the sigma chain and the lcm above, fill that cache first.
    analysis.__dict__["levels"] = levels
    return analysis


def reference_reconstruct(pair, level: int) -> ReconstructionResult:
    analysis = pair.moduli
    zero = Polynomial(analysis.field)
    q21 = pair.r1 - pair.r2
    branch = classify(q21, analysis, level)

    if branch is Branch.EQUAL_RESIDUES:
        k2_hat = zero
        tail = zero
    else:
        tail = q21 if branch is Branch.FOLDED_DIFFERENCE else divmod(q21, analysis.m1)[1]
        for step in analysis.cascade_moduli[:level]:
            tail = divmod(tail, step)[1]
        quot, rem = divmod(q21 - tail, analysis.m)
        if not rem.is_zero:
            raise AssertionError("difference minus cascade tail is not divisible by m")
        inv21 = reference_inverse(analysis.gamma2, analysis.gamma1)
        k2_hat = divmod(quot * inv21, analysis.gamma1)[1]

    a_hat = k2_hat * analysis.m2 + pair.r2
    return ReconstructionResult(a_hat, k2_hat, branch, q21, tail)


def euclid_rows(m2: Polynomial, m1: Polynomial) -> list:
    """The rows ``(s_i, r_i)`` of Euclid's loop over ``(m2, m1)``, by ``*`` and ``//`` alone.

    ``r_0, r_1 = m2, m1``, ``s_0, s_1 = 1, 0``, and ``x_i = x_{i-2} - q_i *
    x_{i-1}`` for both with ``q_i = r_{i-2} // r_{i-1}``, so ``s_i * m2 ==
    r_i (mod m1)``.  Returns the rows from ``(s_1, r_1) = (0, m1)`` to the
    first zero ``r_N``: row i holds step i of the analysis's chain, ``m *
    sigma_i`` and its cofactor, and the last row is the terminal ``(s_N,
    0)``.
    """
    rows = [(Polynomial(m1.field, (1,)), m2), (Polynomial(m1.field), m1)]
    while not rows[-1][1].is_zero:
        (s0, r0), (s1, r1) = rows[-2:]
        q = r0 // r1
        rows.append((s0 - q * s1, r0 - q * r1))
    return rows[1:]


def two_row_reconstruct(pair, level: int):
    """``(k2_hat, a_hat)`` at ``level`` by rounding in two Euclid rows.

    The rows ``(s, t)`` of ``euclid_rows`` lie in the lattice ``{(k, t): t
    == k * m2 (mod m1)}``, and rows ``level`` and ``level + 1`` (the
    terminal row at the top level) are a reduced basis of it whose
    determinant ``D`` is a scalar times ``m1``.  ``(0, q21)`` is ``x`` times
    the first plus ``y`` times the second for ``x = -s' * q21 / D`` and ``y
    = s * q21 / D``; their polynomial parts ``alpha`` and ``beta`` give the
    lattice vector whose ``k`` is ``k2_hat``.
    """
    analysis = pair.moduli
    (s, t), (s_next, t_next) = euclid_rows(analysis.m2, analysis.m1)[level : level + 2]
    det = s * t_next - s_next * t
    q21 = pair.r1 - pair.r2
    alpha = (-s_next * q21) // det
    beta = (s * q21) // det
    k2_hat = alpha * s + beta * s_next
    return k2_hat, k2_hat * analysis.m2 + pair.r2


def reference_crt_pair(pair) -> Polynomial:
    analysis = pair.moduli
    quot, rem = divmod(pair.a1 - pair.a2, analysis.m)
    if not rem.is_zero:
        raise InconsistentResiduesError(
            "residues disagree modulo gcd(m1, m2); no common preimage exists"
        )
    inv21 = reference_inverse(analysis.gamma2, analysis.gamma1)
    k2 = divmod(quot * inv21, analysis.gamma1)[1]
    return k2 * analysis.m2 + pair.a2


@dataclass(frozen=True)
class BoundaryInstance:
    """A replayable decode failure found just outside the error bound."""

    trial: int
    seed: int
    level: int
    tau: int
    a: Polynomial
    e1: Polynomial
    e2: Polynomial
    r1: Polynomial
    r2: Polynomial
    k2_true: Polynomial
    k2_hat: Polynomial
    residual_deg: Degree


def search_boundary_counterexample(
    analysis: ModuliPairAnalysis, level: int, budget: int, seed: int = 0
) -> Optional[BoundaryInstance]:
    """The first of ``budget`` campaign trials at ``tau`` equal to the level's error bound that fails.

    Trial ``idx`` draws from the stream keyed ``f"boundary:{seed}:{idx}"``;
    the received residues and both folding polynomials are rebuilt from its
    ``a``, ``e1`` and ``e2`` with ``encode`` and ``reconstruct``.  Returns
    ``None`` when no trial within the budget fails.
    """
    tau = analysis.level_spec(level).error_bound_exclusive
    for row in _run_trials(analysis, level, tau, f"boundary:{seed}:", range(budget)):
        outcome = _outcome(analysis.field, row)
        if not outcome.success:
            residues, witness = encode(outcome.a, analysis)
            r1 = (residues.a1 + outcome.e1) % analysis.m1
            r2 = (residues.a2 + outcome.e2) % analysis.m2
            k2_hat = reconstruct(ErroneousResiduePair(r1, r2, analysis), level).k2_hat
            return BoundaryInstance(
                outcome.trial, seed, level, tau, outcome.a, outcome.e1, outcome.e2, r1, r2,
                witness.k2, k2_hat, outcome.residual_deg,
            )
    return None
