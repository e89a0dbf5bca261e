"""Plain reference implementations for differential tests.

``reference_analyze_pair`` is the two-pass analysis: ``gcd`` and ``lcm``
separately, ``xgcd`` for the cofactor inverse, then a second Euclid pass
for the sigma chain.  ``reference_reconstruct`` is the three-branch
decoder, with an explicit divisibility check on ``q21 - tail``.  The
library computes the same values in one Euclid pass and one formula; these
versions exist only so tests can compare the two.
"""

from polycrt import (
    Branch,
    CoprimeModuliError,
    DegenerateModuliError,
    LevelSpec,
    ModuliPairAnalysis,
    Polynomial,
    ReconstructionResult,
    ZeroModulusError,
    classify,
    gcd,
    lcm,
    remainder_cascade,
    xgcd,
)


def reference_analyze_pair(m1: Polynomial, m2: Polynomial) -> ModuliPairAnalysis:
    m1._check_field(m2)
    if m1.is_zero or m2.is_zero:
        raise ZeroModulusError("moduli must be nonzero")
    swapped = m1.degree > m2.degree
    if swapped:
        m1, m2 = m2, m1

    m = gcd(m1, m2)
    if m.degree == 0:
        raise CoprimeModuliError("moduli are coprime")
    gamma1 = m1 // m
    gamma2 = m2 // m
    if gamma1.degree == 0:
        raise DegenerateModuliError("one modulus divides the other")
    big = lcm(m1, m2)

    g, s, _ = xgcd(gamma2, gamma1)
    assert g.degree == 0, "cofactors of the gcd must be coprime"
    inv21 = s % gamma1

    chain = [gamma2, gamma1]
    while chain[-1].degree > 0:
        chain.append(chain[-2] % chain[-1])
        assert not chain[-1].is_zero, "chain hit zero before a scalar"
    k_index = len(chain) - 3

    levels = tuple(
        LevelSpec(
            index=i,
            sigma_deg=chain[i + 1].degree,
            error_bound_exclusive=m.degree + chain[i + 1].degree,
            dynamic_range_exclusive=big.degree - chain[i + 1].degree,
        )
        for i in range(1, k_index + 2)
    )
    return ModuliPairAnalysis(
        m1=m1,
        m2=m2,
        m=m,
        gamma1=gamma1,
        gamma2=gamma2,
        lcm=big,
        gamma_inv21=inv21,
        K=k_index,
        levels=levels,
        cascade_moduli=tuple(m * chain[i + 1] for i in range(1, k_index + 2)),
        swapped=swapped,
    )


def reference_reconstruct(pair, level: int) -> ReconstructionResult:
    analysis = pair.moduli
    zero = Polynomial(analysis.field)
    q21 = pair.r1 - pair.r2
    branch = classify(q21, analysis, level)

    if branch is Branch.EQUAL_RESIDUES:
        k2_hat = zero
        tail = zero
    else:
        start = q21 if branch is Branch.FOLDED_DIFFERENCE else q21 % analysis.m1
        tail = remainder_cascade(start, analysis, level)
        quot, rem = divmod(q21 - tail, analysis.m)
        assert rem.is_zero, "difference minus cascade tail is not divisible by m"
        k2_hat = (quot * analysis.gamma_inv21) % analysis.gamma1

    a_hat = k2_hat * analysis.m2 + pair.r2
    return ReconstructionResult(a_hat, k2_hat, branch, q21, tail)
