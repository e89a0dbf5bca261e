"""Odd-p coefficient kernels on packed ints: products, Newton division, folds.

Coefficient i of a polynomial fills slot i of an int, bits ``8 * width * i``
onwards, wide enough that no slot ever carries into its neighbour.  The
product of two such ints holds coefficient k of the polynomial product in
slot k.  Division by a long divisor multiplies the dividend by a Newton
reciprocal of the reversed divisor, built from such products.  A fold is
one division step that never reduces mod p: it reads each quotient digit
off the top slot, drops that slot, and adds the digit's multiples of the
divisor and of a cofactor into the slots below, so the Euclid pass and the
decoder's remainder cascade run whole steps on packed ints at C speed.
``_kronecker_mul``, ``_newton_divmod``, ``_fold_chain`` and ``_fold_euclid``
take coefficient sequences reduced mod p, lowest power first, and return
lists reduced mod p; :mod:`polycrt.poly` wraps them in ``Polynomial``.
"""

from __future__ import annotations

import struct
from itertools import repeat
from typing import Optional, Sequence, Tuple

from .errors import DivisionByZeroError

# struct codes of the slot widths that are one machine word, in bytes.
_WORD_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _slot_layout(bound: int) -> Tuple[int, Optional[str]]:
    """Slot width in bytes for values in ``[0, bound]``, and its struct code.

    A width that rounds up to a machine word is widened to it, so that one
    ``struct`` call packs or unpacks every slot at C speed.  Wider slots
    (from ``bound >= 2**64``) have no code and are joined and sliced one at
    a time.
    """
    width = (bound.bit_length() + 7) // 8
    word = 1 << (width - 1).bit_length()
    code = _WORD_CODES.get(word)
    return (word, code) if code else (width, None)


def _pack(values: Sequence[int], width: int, code: Optional[str]) -> int:
    """One int holding ``values[i]`` in slot i, for values that fit a slot."""
    if code:
        return int.from_bytes(struct.pack(f"<{len(values)}{code}", *values), "little")
    parts = map(int.to_bytes, values, repeat(width), repeat("little"))
    return int.from_bytes(b"".join(parts), "little")


def _unpack(
    packed: int,
    size: int,
    width: int,
    code: Optional[str],
    start: int = 0,
    stop: Optional[int] = None,
) -> Sequence[int]:
    """Slots ``start .. stop - 1`` (default: all) of an int of ``size`` slots."""
    if stop is None:
        stop = size
    buf = packed.to_bytes(size * width, "little")
    if code:
        return struct.unpack_from(f"<{stop - start}{code}", buf, start * width)
    return [
        int.from_bytes(buf[i : i + width], "little")
        for i in range(start * width, stop * width, width)
    ]


def _kronecker_mul(a: Tuple[int, ...], b: Tuple[int, ...], p: int) -> list:
    """Product of two coefficient tuples reduced mod p, by one bigint product."""
    if not a or not b:
        return []
    return [c % p for c in _kronecker_slots(a, b, p, 0, len(a) + len(b) - 1)]


def _kronecker_slots(
    a: Sequence[int], b: Sequence[int], p: int, start: int, stop: int
) -> Sequence[int]:
    """Coefficients ``start .. stop - 1`` of ``a * b`` for nonempty ``a``, ``b``.

    They are not reduced mod p.  Coefficient k of the product is a sum of at
    most ``min(len(a), len(b))`` terms, each at most ``(p - 1)**2``, so it
    fits in one slot.
    """
    width, code = _slot_layout(min(len(a), len(b)) * (p - 1) ** 2)
    product = _pack(a, width, code) * _pack(b, width, code)
    return _unpack(product, len(a) + len(b) - 1, width, code, start, stop)


def _fold(
    rem: int, acc: int, low: int, cof: int, size: int, div_size: int, bits: int, p: int,
    neg_inv: int,
) -> Tuple[int, int]:
    """One division step on packed ints, reduced mod p nowhere.

    ``rem`` has ``size`` slots of ``bits`` bits.  The divisor has
    ``div_size`` coefficients: ``low`` packs all but the leading one, and
    ``neg_inv`` is minus the inverse of that one mod p.  For each quotient
    digit, top slot first, the slot's value ``c`` gives ``f = c * neg_inv
    mod p``; the slot is dropped, and ``f * low`` and ``f * cof``, shifted
    under it, are added to ``rem`` and ``acc``.  So ``rem`` ends as the
    remainder in ``div_size - 1`` slots and ``acc`` gains minus the
    quotient times ``cof``, both equal mod p to the reduced results.  Each
    digit adds at most one term of at most ``(p - 1)**2`` to any slot, so
    slots that start below p stay below ``n * (p - 1)**2 + p`` after ``n``
    digits, which the caller's slot width must hold.
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


def _fold_chain(
    v: Sequence[int], moduli: Sequence[Sequence[int]], cofactors: Sequence[Sequence[int]], p: int
) -> Tuple[list, list]:
    """Odd-p :func:`polycrt.poly._reduce_chain` on coefficient tuples.

    Returns the remainder and the weighted quotient sum as lists reduced
    mod p.  Each step is one :func:`_fold` of the packed remainder and sum,
    skipped while the remainder is shorter than the modulus; the sum is
    negated at the end, since the folds add minus the quotients.
    """
    size = len(v)
    # Every quotient digit drops one slot of the remainder, so the whole
    # cascade has at most len(v) digits.
    width, code = _slot_layout(size * (p - 1) ** 2 + p)
    rem, acc = _pack(v, width, code), 0
    for b, s in zip(moduli, cofactors, strict=True):
        if not b:
            raise DivisionByZeroError("polynomial division by zero")
        if size < len(b):
            continue
        low, cof = _pack(b[:-1], width, code), _pack(s, width, code)
        neg_inv = -pow(b[-1], -1, p) % p
        rem, acc = _fold(rem, acc, low, cof, size, len(b), 8 * width, p, neg_inv)
        size = len(b) - 1
    tail = [c % p for c in _unpack(rem, size, width, code)]
    acc_size = -(-acc.bit_length() // (8 * width))
    return tail, [-c % p for c in _unpack(acc, acc_size, width, code)]


def _fold_euclid(a: Sequence[int], b: Sequence[int], p: int) -> Tuple[list, list]:
    """Odd-p :func:`polycrt.poly._euclid_chain` on coefficient tuples.

    For ``len(a) >= len(b) > 0`` returns the nonzero remainders and their
    cofactors as lists reduced mod p, without trailing zeros.  Each step is
    one :func:`_fold` of the packed ``(r_{i-2}, s_{i-2})`` by ``(r_{i-1},
    s_{i-1})``; its results are reduced and packed again for the next step.
    """
    # A step has at most len(a) quotient digits, and starts from reduced values.
    width, code = _slot_layout(len(a) * (p - 1) ** 2 + p)
    bits = 8 * width
    rems: list = []
    cofs: list = []
    r0, r1, s0, s1 = _pack(a, width, code), _pack(b, width, code), 1, 0
    while True:
        n = len(b)
        low = r1 & ((1 << (n - 1) * bits) - 1)
        r0, s0 = _fold(r0, s0, low, s1, len(a), n, bits, p, -pow(b[-1], -1, p) % p)
        r = _strip([c % p for c in _unpack(r0, n - 1, width, code)])
        if not r:
            return rems, cofs
        s = _strip([c % p for c in _unpack(s0, -(-s0.bit_length() // bits), width, code)])
        rems.append(r)
        cofs.append(s)
        a, b = b, r
        r0, r1, s0, s1 = r1, _pack(r, width, code), s1, _pack(s, width, code)


def _strip(vals: list) -> list:
    """``vals`` without trailing zeros, stripped in place."""
    while vals and vals[-1] == 0:
        vals.pop()
    return vals


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
