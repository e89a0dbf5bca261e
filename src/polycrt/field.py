"""Exact arithmetic in the prime field F_p for a runtime-configured prime p."""

from __future__ import annotations

from .errors import DivisionByZeroError


# Characteristics at or above this are rejected; _is_prime is exact far above it.
_MAX_CHARACTERISTIC = 1 << 64

_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for every ``n < 3.18 * 10**23``."""
    if n < 2:
        return False
    for q in _WITNESSES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """A prime field of characteristic ``p``.

    The characteristic must be below 2**64 and is checked for primality by
    deterministic Miller-Rabin at construction, so a composite or oversized
    ``p`` fails at once instead of corrupting arithmetic later.

    Field elements are plain ints in ``[0, p)``; the polynomial layer does
    its coefficient arithmetic on them directly and asks the field only for
    :meth:`inv`.  Two ``PrimeField`` instances compare equal iff they have
    the same characteristic.
    """

    __slots__ = ("p",)

    def __init__(self, p: int) -> None:
        is_int = isinstance(p, int) and not isinstance(p, bool)
        if is_int and p >= _MAX_CHARACTERISTIC:
            raise ValueError(f"field characteristic must be below 2**64, got {p!r}")
        if not is_int or not _is_prime(p):
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
        """Multiplicative inverse of ``a`` mod p, by ``pow(a, -1, p)``."""
        a %= self.p
        if a == 0:
            raise DivisionByZeroError("0 has no multiplicative inverse")
        return pow(a, -1, self.p)
