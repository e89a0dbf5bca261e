"""Exact arithmetic in the prime field F_p for a runtime-configured prime p."""

from __future__ import annotations

from .errors import DivisionByZeroError


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class PrimeField:
    """A prime field of characteristic ``p``.

    The characteristic is validated by trial division at construction so a
    composite ``p`` fails immediately instead of corrupting arithmetic later.
    Intended for small primes (p <= 2**31).

    Field elements are plain ints in ``[0, p)``; the polynomial layer does
    its coefficient arithmetic on them directly and asks the field only for
    :meth:`inv`.  Two ``PrimeField`` instances compare equal iff they have
    the same characteristic.
    """

    __slots__ = ("p",)

    def __init__(self, p: int) -> None:
        if not isinstance(p, int) or isinstance(p, bool) or not _is_prime(p):
            raise ValueError(f"field characteristic must be a prime >= 2, got {p!r}")
        self.p = p

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PrimeField):
            return self.p == other.p
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def __repr__(self) -> str:
        return f"GF({self.p})"

    def inv(self, a: int) -> int:
        """Multiplicative inverse of ``a`` via the extended Euclidean algorithm."""
        a %= self.p
        if a == 0:
            raise DivisionByZeroError("0 has no multiplicative inverse")
        r0, r1 = self.p, a
        t0, t1 = 0, 1
        while r1:
            q = r0 // r1
            r0, r1 = r1, r0 - q * r1
            t0, t1 = t1, t0 - q * t1
        return t0 % self.p
