"""Independent reference arithmetic for checking polycrt outputs.

Polynomials here are plain coefficient tuples, lowest power first, with no
trailing zeros.  Multiplication uses Kronecker substitution (pack the
coefficients into one integer, multiply, unpack), a different algorithm
from the library's schoolbook loops, so a shared bug cannot hide.  Division
over F_2 works on bit-packed integers; over odd p it is a plain schoolbook
loop.  Nothing here imports polycrt.
"""

from __future__ import annotations

from typing import Sequence, Tuple

Coeffs = Tuple[int, ...]


def trim(c: Sequence[int]) -> Coeffs:
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def add(a: Sequence[int], b: Sequence[int], p: int) -> Coeffs:
    n = max(len(a), len(b))
    a = list(a) + [0] * (n - len(a))
    for i, v in enumerate(b):
        a[i] = (a[i] + v) % p
    return trim(a)


def sub(a: Sequence[int], b: Sequence[int], p: int) -> Coeffs:
    return add(a, [(-v) % p for v in b], p)


def mul(a: Sequence[int], b: Sequence[int], p: int) -> Coeffs:
    """Product by Kronecker substitution into one big integer."""
    if not a or not b:
        return ()
    # Each product coefficient is a sum of at most min(len) terms < p^2.
    bits = (min(len(a), len(b)) * (p - 1) ** 2).bit_length()
    digits = max(1, (bits + 3) // 4)
    fmt = f"0{digits}x"
    pa = int("".join(format(v, fmt) for v in reversed(a)), 16)
    pb = int("".join(format(v, fmt) for v in reversed(b)), 16)
    n = len(a) + len(b) - 1
    text = format(pa * pb, f"0{n * digits}x")
    return trim(
        int(text[i : i + digits], 16) % p for i in range(len(text) - digits, -1, -digits)
    )


def _to_bits(a: Sequence[int]) -> int:
    return int("".join("1" if v else "0" for v in reversed(a)) or "0", 2)


def _from_bits(x: int) -> Coeffs:
    return tuple(int(ch) for ch in reversed(bin(x)[2:])) if x else ()


def _gf2_divmod(a: int, b: int) -> Tuple[int, int]:
    q, db = 0, b.bit_length()
    while a.bit_length() >= db:
        shift = a.bit_length() - db
        q |= 1 << shift
        a ^= b << shift
    return q, a


def divmod_(a: Sequence[int], b: Sequence[int], p: int) -> Tuple[Coeffs, Coeffs]:
    """Euclidean division ``a = q*b + r`` with deg(r) < deg(b); b nonzero."""
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    if p == 2:
        q, r = _gf2_divmod(_to_bits(a), _to_bits(b))
        return _from_bits(q), _from_bits(r)
    rem = list(a)
    db = len(b) - 1
    inv = pow(b[-1], p - 2, p)
    quot = [0] * max(0, len(rem) - db)
    for shift in range(len(rem) - db - 1, -1, -1):
        c = rem[shift + db] * inv % p
        if c:
            quot[shift] = c
            for j, v in enumerate(b):
                rem[shift + j] = (rem[shift + j] - c * v) % p
    return trim(quot), trim(rem[:db])


def coprime(a: Sequence[int], b: Sequence[int], p: int) -> bool:
    """True iff gcd(a, b) is a nonzero scalar."""
    if p == 2:
        x, y = _to_bits(a), _to_bits(b)
        while y:
            x, y = y, _gf2_divmod(x, y)[1]
        return x == 1
    x, y = trim(a), trim(b)
    while y:
        x, y = y, divmod_(x, y, p)[1]
    return len(x) == 1
