"""Odd-p coefficient kernels: Kronecker-substitution products, Newton division.

Coefficient i of a polynomial fills slot i of an int, the product of two
such ints holds coefficient k of the polynomial product in slot k, and
unpacking reads each slot.  Division by a long divisor multiplies the
dividend by a Newton reciprocal of the reversed divisor, built from such
products.  ``_kronecker_mul`` and ``_newton_divmod`` take coefficient
sequences reduced mod p, lowest power first, and return lists reduced mod p;
:mod:`polycrt.poly` wraps them in ``Polynomial``.
"""

from __future__ import annotations

import struct
import sys
from itertools import repeat
from typing import Sequence, Tuple

# memoryview format per item size in bytes, for slots one machine word wide.
_WORD_FORMATS = {memoryview(bytes(8)).cast(fmt).itemsize: fmt for fmt in "BHILQ"}


def _kronecker_mul(a: Tuple[int, ...], b: Tuple[int, ...], p: int) -> list:
    """Product of two coefficient tuples reduced mod p, by one bigint product."""
    if not a or not b:
        return []
    return [c % p for c in _kronecker_slots(a, b, p, 0, len(a) + len(b) - 1)]


def _kronecker_slots(
    a: Sequence[int], b: Sequence[int], p: int, start: int, stop: int
) -> list:
    """Coefficients ``start .. stop - 1`` of ``a * b`` for nonempty ``a``, ``b``.

    They are not reduced mod p.  Coefficient k of the product is a sum of at
    most ``min(len(a), len(b))`` terms, each at most ``(p - 1)**2``, so it
    fits in a slot of ``width`` bytes and never carries into its neighbour.
    A width that rounds up to a machine word is widened to it, so that
    ``struct`` packs and one ``memoryview`` cast unpacks every slot at C
    speed.  Slots wider than 8 bytes, which need ``min(len(a), len(b)) *
    (p - 1)**2 >= 2**64`` (from length 5 at p = 2**31 - 1), are joined and
    sliced one at a time.  Slot k sits at bytes ``k * width`` onwards in
    either byte order.
    """
    width = ((min(len(a), len(b)) * (p - 1) ** 2).bit_length() + 7) // 8
    word = 1 << (width - 1).bit_length()
    fmt = _WORD_FORMATS.get(word)
    order = sys.byteorder
    if fmt is not None:
        width = word
        pa = int.from_bytes(struct.pack(f"{len(a)}{fmt}", *a), order)
        pb = int.from_bytes(struct.pack(f"{len(b)}{fmt}", *b), order)
    else:
        widths, orders = repeat(width), repeat(order)
        pa = int.from_bytes(b"".join(map(int.to_bytes, a, widths, orders)), order)
        pb = int.from_bytes(b"".join(map(int.to_bytes, b, widths, orders)), order)
    buf = (pa * pb).to_bytes((len(a) + len(b) - 1) * width, order)
    if fmt is not None:
        return memoryview(buf)[start * width : stop * width].cast(fmt).tolist()
    return [
        int.from_bytes(buf[i : i + width], order)
        for i in range(start * width, stop * width, width)
    ]


def _newton_divmod(
    a: Tuple[int, ...], div: Tuple[int, ...], p: int, lead_inv: int
) -> Tuple[list, list]:
    """Quotient and remainder of ``a`` by ``div``, for ``len(a) >= len(div)``.

    ``lead_inv`` inverts the leading coefficient of ``div`` mod p.  The lists
    match ``polycrt.poly._dense_divmod``: the quotient has ``L`` entries and
    the remainder ``len(div) - 1``, trailing zeros included.  The reversed
    quotient is the reversed dividend times the inverse of the reversed
    divisor, both mod ``x^L``.  The remainder is the low ``len(div) - 1``
    coefficients of ``a - quot * div``, which only the low coefficients of
    each factor reach.
    """
    n = len(div)
    size = len(a) - n + 1
    # Zeros pad a divisor shorter than the quotient, so every product below
    # reaches the coefficients it is sliced to.
    recip = _reciprocal(div[::-1] + (0,) * (size - n), p, size, lead_inv)
    quot = [c % p for c in _kronecker_slots(a[n - 1 :][::-1], recip, p, 0, size)]
    quot.reverse()
    if n == 1:
        return quot, []
    prod = _kronecker_slots(quot[: n - 1], div[: n - 1], p, 0, n - 1)
    return quot, [(x - y) % p for x, y in zip(a, prod)]


def _reciprocal(f: Tuple[int, ...], p: int, size: int, f0_inv: int) -> list:
    """``g`` with ``f * g == 1 (mod x^size)``, given ``f0_inv * f[0] == 1 (mod p)``.

    Each Newton step doubles the precision: if ``f * g == 1 + x^k * e``
    modulo ``x^k2`` with ``k2 <= 2k``, then ``g - x^k * (g * e)`` is the
    inverse modulo ``x^k2``.
    """
    steps = []
    while size > 1:
        steps.append(size)
        size = (size + 1) // 2
    g = [f0_inv]
    for k2 in reversed(steps):
        k = len(g)
        e = [c % p for c in _kronecker_slots(f[:k2], g, p, k, k2)]
        g += [(-c) % p for c in _kronecker_slots(g[: k2 - k], e, p, 0, k2 - k)]
    return g
