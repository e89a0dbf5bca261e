"""Odd-p kernels: the stored value of a polynomial, products and division.

Over odd p a polynomial's stored value is its coefficient tuple, reduced mod
p and stripped of trailing zeros (:func:`_strip`); the schoolbook sum and
difference return such tuples.  Products and division work on packed ints.
Coefficient i of a polynomial fills slot i of an int, bits ``8 * width * i``
onwards, wide enough that no slot carries into its neighbour, so the product
of two such ints holds coefficient k of the product in slot k.  Every
division the library packs, ``divmod`` and the steps of the Euclid pass and
of the decoder's cascade, takes division steps that never reduce mod p.  A
step's quotient digits depend only on the top slots of the dividend and
divisor, so they are found first and packed into one int, and one product
per row adds their multiples of the divisor (and, in the pass and the
cascade, of a cofactor).  A step of many digits is halved, top half first,
until its parts are short, in ``divmod``, the pass and the cascade alike.
``divmod`` (:func:`_tuple_divmod`) takes a schoolbook loop instead when the
divisor or the quotient is short, by the ``_STEP_MIN_*`` rule beside the two
kernels.  The pass yields each step as it takes it, and brings every slot
back into ``[0, 3p)`` after the step by Barrett reduction of all slots at
once.  The cascade divides by the stored ints, inside the decoder's
formula, :func:`_decode`, its one kernel.  :mod:`polycrt.poly` wraps the
kernels in ``Polynomial``, and :mod:`polycrt.crt` binds them for the decode
core.
"""

from __future__ import annotations

import re
import struct
from collections.abc import Callable, Iterator, Sequence
from itertools import islice, repeat

# struct codes of the slot widths that are one machine word, in bytes.
_WORD_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}

# Most quotient digits a division step (:func:`_neg_quotient`) finds one at
# a time, a window; a longer step is halved until its parts are this short.
# A digit costs big-int work in proportion to the window, and a window one
# product and one pass over the dividend.  Timed against windows of 16, 24,
# 48 and 64 digits at p = 13, 65521 and 2**61 - 1, with quotients of 100 to
# 8,000 digits by divisors of 3 to 8,000 coefficients, none was faster than
# 32 at every shape, and 64 was up to 21% slower at 4,000 x 4,000.
_STEP_WINDOW = 32


def _slot_layout(bits: int) -> tuple[int, str | None]:
    """Slot width in bytes for values of ``bits`` bits, and its struct code.

    A width that rounds up to a machine word is widened to it, so that one
    ``struct`` call packs or unpacks every slot at C speed.  Wider slots
    (more than 64 bits) have no code and are joined and split as bytes.
    """
    width = (bits + 7) // 8
    word = 1 << (width - 1).bit_length()
    code = _WORD_CODES.get(word)
    return (word, code) if code else (width, None)


def _pack(values: Sequence[int], width: int, code: str | None) -> int:
    """One int holding ``values[i]`` in slot i, for values that fit a slot."""
    if code:
        return int.from_bytes(struct.pack(f"<{len(values)}{code}", *values), "little")
    parts = map(int.to_bytes, values, repeat(width), repeat("little"))
    return int.from_bytes(b"".join(parts), "little")


def _unpack(packed: int, size: int, width: int, code: str | None) -> Sequence[int]:
    """The ``size`` slots of an int."""
    buf = packed.to_bytes(size * width, "little")
    if code:
        return struct.unpack(f"<{size}{code}", buf)
    # One regex pass splits the bytes into slots, all in C.
    chunks = re.compile(b"(?s).{%d}" % width).findall(buf)
    return list(map(int.from_bytes, chunks, repeat("little")))


def _strip(vals: list) -> list:
    """``vals`` without trailing zeros, stripped in place."""
    while vals and vals[-1] == 0:
        vals.pop()
    return vals


# Schoolbook sum and difference of coefficient tuples, for any p: stored
# values, stripped tuples.  Here and in _tuple_divmod the fixed operands come
# first, so that the decode core binds them by position (polycrt.crt).


def _dense_add(p: int, a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, v in enumerate(b):
        out[i] = (out[i] + v) % p
    return tuple(_strip(out))


def _dense_sub(p: int, a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    out = list(a) + [0] * (len(b) - len(a))
    for i, v in enumerate(b):
        out[i] = (out[i] - v) % p
    return tuple(_strip(out))


def _kronecker_mul(a: tuple[int, ...], b: tuple[int, ...], p: int) -> list:
    """Product of two coefficient tuples reduced mod p, by one bigint product.

    Coefficient k of the product is a sum of at most ``min(len(a), len(b))``
    terms, each at most ``(p - 1)**2``, so it fits in one slot.
    """
    if not a or not b:
        return []
    width, code = _slot_layout((min(len(a), len(b)) * (p - 1) ** 2).bit_length())
    product = _pack(a, width, code) * _pack(b, width, code)
    return [c % p for c in _unpack(product, len(a) + len(b) - 1, width, code)]


def _chain_layout(p: int, size: int) -> tuple[int, str | None, Callable[[int], int]]:
    """Slot layout of a chain folding inputs of up to ``size`` coefficients, and its reduction.

    Stored slots are in ``[0, 3p)`` and input slots below p.  A division
    step adds each quotient digit's multiple of a stored int, at most one
    term below ``(p - 1) * 3p`` per slot, and the steps over an input of
    ``n <= size`` coefficients have at most ``n`` digits in all, so every
    slot stays below ``2**t`` with ``t = bits(3p + size * (p - 1) * 3p)``.
    The returned
    function is Barrett reduction of every slot at once: with ``m = bits(p)``
    and ``mu = 2**t // p``, a slot ``x < 2**t`` becomes ``x - p * q`` with
    ``q = ((x >> (m - 1)) * mu) >> (t - m + 1)``, which lies in ``[0, 3p)``.
    Masks of ``t - m + 1`` bits cut each slot's ``x >> (m - 1)`` and ``q``
    out of the shifted int, and slots of ``2 * (t - m + 1) + 1`` bits, at
    least ``t`` for ``size >= 1``, hold each product with ``mu``, so no slot
    carries into the next.
    """
    hi = p.bit_length() - 1
    t = (3 * p + size * (p - 1) * 3 * p).bit_length()
    shift = t - hi
    mu = (1 << t) // p
    width, code = _slot_layout(2 * shift + 1)
    bits = 8 * width
    mask = ((1 << shift) - 1) * (((1 << size * bits) - 1) // ((1 << bits) - 1))

    def reduce(x: int) -> int:
        return x - p * ((((x >> hi) & mask) * mu >> shift) & mask)

    return width, code, reduce


def _neg_quotient(
    rem: int, size: int, low: int, n: int, bits: int, p: int, neg_inv: int
) -> tuple[int, int]:
    """A division step: ``g``, minus its quotient mod p with x^j's digit in slot j, and its remainder.

    ``rem`` has ``size >= n`` slots of ``bits`` bits; the divisor has ``n``
    coefficients, ``low`` packing all but the lead and ``neg_inv`` being minus
    the lead's inverse mod p.  The remainder is the low ``n - 1`` slots of
    ``rem + g * low``, not reduced mod p; the slots above are zero only mod p.
    Top first, a digit is ``c * neg_inv mod p`` for ``c`` the slot it clears
    plus what the digits above add there, as in a digit-at-a-time division, so
    ``k = size - n + 1`` digits need only the top ``k`` slots of ``rem`` and
    ``k - 1`` of ``low``.  A step of more than :data:`_STEP_WINDOW` digits
    recurses, as in recursive division (Burnikel and Ziegler, 1998).  By a
    divisor longer than the quotient, the digits come from a step by the
    divisor's top ``k`` coefficients, and one product adds the slots below;
    otherwise the top half of the digits is one step and the bottom half
    another.  A halving nests at most two calls: a 65,536 by 65,536
    division nests 22.  Each digit adds at most one term, its product with
    one slot of ``low``, to any slot, and at most ``min(k, n - 1)`` digits
    reach a slot.  The caller's layout must hold every slot of ``rem`` plus
    all the terms that reach it, with no carry into the next slot: below
    ``3p`` plus ``min(k, n - 1)`` terms below ``(p - 1) * 3p`` in the pass and
    the cascade (:func:`_chain_layout`), and below ``p`` plus ``min(k, n - 1)``
    terms below ``(p - 1)**2`` in :func:`_step_divmod`.
    """
    k = size - n + 1
    if k > _STEP_WINDOW:
        if n > k:
            cut = (n - k) * bits
            g, top = _neg_quotient(rem >> cut, 2 * k - 1, low >> cut, k, bits, p, neg_inv)
            mask = (1 << cut) - 1
            return g, (rem & mask) + (top << cut) + g * (low & mask)
        half = k // 2
        at = half * bits
        g, top = _neg_quotient(rem >> at, size - half, low, n, bits, p, neg_inv)
        f, rem = _neg_quotient(rem & (1 << at) - 1 | top << at, half + n - 1, low, n, bits, p, neg_inv)
        return g << at | f, rem
    pos = (n - 1) * bits
    head = rem >> pos
    shift = (k - 1) * bits
    g = f = (head >> shift) * neg_inv % p
    if shift:
        # ``w`` holds what the digits so far add to the next ``div // bits``
        # slots, the next one's on top; it and ``top`` sit one slot up, so
        # a one-coefficient divisor (``div == 0``) is no special case.
        div = min(k - 1, n - 1) * bits
        top = low >> pos - div << bits
        slot = (1 << bits) - 1
        window = (1 << div + bits) - 1
        w = 0
        while shift:
            w = (w << bits & window) + f * top
            shift -= bits
            f = ((head >> shift & slot) + (w >> div)) * neg_inv % p
            g = g << bits | f
    rem += g * low
    return g, rem ^ rem >> pos << pos


def _decode(
    steps: Sequence[tuple], cofs: Sequence[int], width: int, code: str | None, p: int,
    stop: int, m2: tuple[int, ...], r1: tuple[int, ...], r2: tuple[int, ...],
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """The decoder over odd p at stored steps ``0 .. stop - 1``: ``(q21, tail, k2_hat, a_hat)``.

    ``q21 = r1 - r2``; its remainder cascade gives ``tail`` and the sum
    ``k2_hat`` of the step quotients times the cofactors, and ``a_hat =
    k2_hat * m2 + r2``, all stored values.  ``steps`` and ``cofs`` are as
    :func:`_fold_euclid` yields them, with their slot layout, for inputs at
    least as long as ``q21``.  A step, skipped while the remainder is
    shorter than its modulus, is one :func:`_neg_quotient`, whose ``g``,
    minus its quotient, adds ``g * cof`` to the sum; the sum is negated and
    both are reduced mod p at the end.
    """
    q21 = _dense_sub(p, r1, r2)
    size = len(q21)
    bits = 8 * width
    rem, acc = _pack(q21, width, code), 0
    for (n, low, neg_inv, _), cof in islice(zip(steps, cofs), stop):
        if size >= n:
            g, rem = _neg_quotient(rem, size, low, n, bits, p, neg_inv)
            acc += g * cof
            size = n - 1
    tail = [c % p for c in _unpack(rem, size, width, code)]
    acc_size = -(-acc.bit_length() // bits)
    k2_hat = tuple(_strip([-c % p for c in _unpack(acc, acc_size, width, code)]))
    return q21, tuple(_strip(tail)), k2_hat, _dense_add(p, _kronecker_mul(k2_hat, m2, p), r2)


def _fold_euclid(
    a: Sequence[int], b: Sequence[int], p: int, width: int, code: str | None,
    reduce: Callable[[int], int],
) -> Iterator[tuple[tuple, int, int]]:
    """Odd-p Euclid pass over coefficient tuples, never leaving packed form: its rows, one per step.

    For ``len(a) >= len(b) > 0`` with nonzero leads, and the layout of
    :func:`_chain_layout` for ``len(a)``, a row is ``(r_{i-1}, s_{i-1},
    s_i)`` (see :func:`polycrt.poly._euclid_pass`): the steps are ``b, r_2,
    r_3, ...`` up to the last nonzero remainder, and the cofactors ``0,
    s_2, s_3, ...`` then ``s_N`` of the first zero remainder.  A step is
    ``(size, low, neg_inv, lead)``: ``low`` packs its coefficients below the
    lead, and ``lead`` and ``neg_inv``, minus its inverse, are reduced mod
    p.  A cofactor is one packed int.  Each step divides ``(r_{i-2},
    s_{i-2})`` by ``(r_{i-1}, s_{i-1})`` with one :func:`_neg_quotient` and
    one product for the cofactor.  Both are then reduced into ``[0, 3p)``
    per slot, and the remainder drops top slots that are zero mod p.
    """
    bits = 8 * width
    r0, r1, s0, s1 = _pack(a, width, code), _pack(b, width, code), 1, 0
    n0, n1, lead = len(a), len(b), b[-1]
    while n1:
        neg_inv = -pow(lead, -1, p) % p
        pos = (n1 - 1) * bits
        low = r1 ^ r1 >> pos << pos
        g, r0 = _neg_quotient(r0, n0, low, n1, bits, p, neg_inv)
        r0, s0 = reduce(r0), reduce(s0 + g * s1)
        yield (n1, low, neg_inv, lead), s1, s0
        n0, n1 = n1, n1 - 1
        while n1:
            lead = (r0 >> (n1 - 1) * bits) % p
            if lead:
                break
            n1 -= 1
            r0 &= (1 << n1 * bits) - 1
        r0, r1, s0, s1 = r1, r0, s1, s0


def _step_divmod(
    a: tuple[int, ...], div: tuple[int, ...], p: int, lead_inv: int
) -> tuple[list, list]:
    """Quotient and remainder of ``a`` by ``div`` by division steps, for ``len(a) >= len(div)``.

    ``lead_inv`` inverts the leading coefficient of ``div`` mod p.  The lists
    match :func:`_dense_divmod`'s: the quotient has ``k`` entries and
    the remainder ``n - 1``, trailing zeros included.  ``a`` and the
    divisor's low slots are packed once, in the narrowest layout that holds
    a slot of ``a`` plus the ``min(k, n - 1)`` terms below ``(p - 1)**2``
    that the ``k`` quotient digits add to it, and one :func:`_neg_quotient`
    takes the whole division.
    """
    n, k = len(div), len(a) - len(div) + 1
    width, code = _slot_layout((p - 1 + min(k, n - 1) * (p - 1) ** 2).bit_length())
    bits = 8 * width
    low, rem = _pack(div[:-1], width, code), _pack(a, width, code)
    neg, rem = _neg_quotient(rem, len(a), low, n, bits, p, -lead_inv % p)
    quot = [-c % p for c in _unpack(neg, k, width, code)]
    return quot, [c % p for c in _unpack(rem, n - 1, width, code)]


def _dense_divmod(
    a: tuple[int, ...], div: tuple[int, ...], p: int, lead_inv: int
) -> tuple[list, list]:
    """Schoolbook quotient and remainder of ``a`` by nonzero ``div``, for ``len(a) >= len(div)``.

    ``lead_inv`` is the inverse of ``div``'s leading coefficient mod p.  The
    lists are reduced mod p, trailing zeros included.
    """
    rem = list(a)
    dd = len(div) - 1
    quot = [0] * (len(rem) - dd)
    for shift in range(len(rem) - dd - 1, -1, -1):
        c = rem[shift + dd]
        if c:
            factor = (c * lead_inv) % p
            quot[shift] = factor
            for j in range(dd + 1):
                rem[shift + j] = (rem[shift + j] - factor * div[j]) % p
    return quot, rem[:dd]


# Odd-p division runs the schoolbook loop below either bound and division
# steps everywhere else.  Timed against each other on random operands at
# p = 13, 65521 and 2**61 - 1, steps were 1.15-4.5x slower by divisors of one
# and two coefficients at every quotient up to 1,000, and 1.2-4.1x slower by
# four at quotients up to 16.  By divisors of 10 or more they were
# 0.33-0.88x from quotients of 16, and by 9 and 10 within 0.88-1.21x at
# quotients of 7 and 8.  By five to nine coefficients steps were mostly
# faster from quotients of 64 (0.41-1.06x), which the bounds leave to the
# loop.
_STEP_MIN_DIVISOR = 10
_STEP_MIN_QUOTIENT = 8


def _tuple_divmod(
    b: tuple[int, ...], p: int, lead_inv: int, a: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Odd-p ``divmod`` of ``a`` by a nonzero ``b`` whose lead ``lead_inv`` inverts, stored values.

    It runs :func:`_dense_divmod` below either ``_STEP_MIN_*`` bound and
    :func:`_step_divmod` elsewhere.
    """
    n, k = len(b), len(a) - len(b) + 1
    if k < 1:
        return (), a
    kernel = _dense_divmod if n < _STEP_MIN_DIVISOR or k < _STEP_MIN_QUOTIENT else _step_divmod
    quot, rem = kernel(a, b, p, lead_inv)
    return tuple(_strip(quot)), tuple(_strip(rem))
