"""F_2 kernels on packed ints, bit i the coefficient of x^i.

The packed int is the stored value of a polynomial over F_2: :func:`_pack2`
and :func:`_unpack2` convert it from and to coefficients.  Carry-less
products and division, the Euclid pass, byte tables and their check, the
fused chain and its index, which :func:`_fuse_chain` alone builds, and the
decoder's formula over them, its cascade at one XOR per quotient bit
(:func:`_decode`), all run on it.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from itertools import repeat
from operator import lshift, or_, sub

_HEX_TO_NIBBLE = bytes.maketrans(b"0123456789abcdef", bytes(range(16)))

# Packing and unpacking go through the int's binary text, at C speed.
_BIT_TO_DIGIT = bytes.maketrans(b"\x00\x01", b"01")
_DIGIT_TO_BIT = bytes.maketrans(b"01", b"\x00\x01")


def _pack2(coeffs: Sequence[int]) -> int:
    """Pack reduced F_2 coefficients (lowest power first) into an int."""
    return int(bytes(coeffs[::-1]).translate(_BIT_TO_DIGIT), 2) if coeffs else 0


def _unpack2(v: int) -> tuple[int, ...]:
    """The coefficients of a packed int, lowest power first, without trailing zeros."""
    return tuple(bin(v)[:1:-1].encode().translate(_DIGIT_TO_BIT)) if v else ()


def _clmul(a: int, b: int) -> int:
    """Carry-less product: Horner over the hex digits of the shorter factor."""
    if a.bit_length() > b.bit_length():
        a, b = b, a
    b2, b4, b8 = b << 1, b << 2, b << 3
    table = [0, b, b2, b2 ^ b, b4, b4 ^ b, b4 ^ b2, b4 ^ b2 ^ b]
    table += [b8 ^ v for v in table]
    out = 0
    for nibble in ("%x" % a).encode().translate(_HEX_TO_NIBBLE):
        out = (out << 4) ^ table[nibble]
    return out


def _cldivmod(a: int, b: int) -> tuple[int, int]:
    """Carry-less long division of ``a`` by nonzero ``b``: ``(quotient, remainder)``."""
    top = b.bit_length()
    quot = 0
    shift = a.bit_length() - top
    while shift >= 0:
        quot |= 1 << shift
        a ^= b << shift
        shift = a.bit_length() - top
    return quot, a


def _euclid_rows(a: int, b: int) -> Iterator[tuple[int, int, int]]:
    """F_2 Euclid pass over ``a`` and nonzero ``b`` with ``deg(a) >= deg(b)``: its rows, one per step.

    A row is ``(r_{i-1}, s_{i-1}, s_i)`` (see
    :func:`polycrt.poly._euclid_pass`): the step, its cofactor, and the
    cofactor that its division by :func:`_cldivmod`'s loop leaves, which
    after the last step is ``s_N``.  No quotient is built.
    """
    r0, r1, s0, s1 = a, b, 1, 0
    while r1:
        top = r1.bit_length()
        shift = r0.bit_length() - top
        while shift >= 0:
            r0 ^= r1 << shift
            s0 ^= s1 << shift
            shift = r0.bit_length() - top
        yield r1, s1, s0
        r0, r1, s0, s1 = r1, r0, s1, s0


# A byte table of an F_2 modulus b is ``(mults, tops)``: ``mults[t]`` is the
# carry-less product t * b for each byte t, and ``tops`` inverts the byte
# of ``mults[t]`` above deg(b).  That byte is t plus terms from t's higher
# bits only, so it is distinct for every t.
ByteTable = tuple[tuple[int, ...], tuple[int, ...]]


def _clbyte_table(b: int) -> ByteTable:
    """The byte table of a nonzero packed F_2 modulus ``b``."""
    mults = [0]
    for k in range(8):
        shifted = b << k
        mults += [v ^ shifted for v in mults]
    deg = b.bit_length() - 1
    tops = [0] * 256
    for t, v in enumerate(mults):
        tops[v >> deg] = t
    return tuple(mults), tuple(tops)


def _is_byte_table(b: int, table: ByteTable) -> bool:
    """Whether ``table`` is :func:`_clbyte_table` of ``b``.

    Entries ``2h`` and ``2h + 1`` must be entry h doubled and that plus
    ``b``, which makes entry 0 zero, entry 1 ``b`` and entry t ``t * b``;
    and ``tops`` must invert the bytes above ``deg(b)``.
    """
    mults, tops = table
    deg = b.bit_length() - 1
    evens = [v << 1 for v in mults[:128]]
    return (
        len(mults) == len(tops) == 256
        and list(mults[::2]) == evens
        and list(mults[1::2]) == [v ^ b for v in evens]
        and [tops[v >> deg] for v in mults] == list(range(256))
    )


def _cltable_divmod(mults: tuple[int, ...], tops: tuple[int, ...], a: int) -> tuple[int, int]:
    """:func:`_cldivmod` of ``a`` by the modulus ``b = mults[1]``, eight quotient bits per step.

    Each step clears the byte above ``deg(b)`` at a shift that is a multiple
    of 8, highest first; the first may clear fewer than 8 bits.
    """
    deg = mults[1].bit_length() - 1
    shift = (a.bit_length() - deg - 1) & -8
    quot = 0
    while shift >= 0:
        t = tops[a >> (shift + deg)]
        a ^= mults[t] << shift
        quot = quot << 8 | t
        shift -= 8
    return quot, a


def _cltable_mul(a: int, mults: tuple[int, ...]) -> int:
    """:func:`_clmul` by the modulus of a byte table: Horner over the bytes of ``a``."""
    out = 0
    for byte in a.to_bytes((a.bit_length() + 7) >> 3, "big"):
        out = out << 8 ^ mults[byte]
    return out


def _fuse_chain(steps: Sequence[int], cofs: Sequence[int], size: int) -> tuple:
    """A cascade's steps fused one int each, for inputs of up to ``size`` bits, and their index.

    Returns ``(w, fused, (at, floors))``: the fused ints, each a cofactor in
    the low ``w`` bits and the modulus above them, and their index.  A
    cascade shifts step j's cofactor by less than the drop from step j - 1's
    degree (``size`` for step 0) to step j's, so ``w`` holds every sum it
    builds.  ``at[n]``, for the bit length ``n = w + d + 1`` of a remainder
    of degree d, is the first step of degree at most d, already shifted to
    clear d: the fused step itself where the shift is 0, so a step that
    clears one bit length adds no int.  Steps ``0 .. k - 1`` have no work
    below ``floors[k]``: ``size + 1``, then each step's degree plus 1.  The
    steps are nonzero and of strictly falling degree, the first of at most
    ``size`` bits, with one cofactor each, as
    :class:`~polycrt.poly.PackedChain` checks.
    """
    lens = [*map(int.bit_length, steps)]
    floors = (size + 1, *lens)
    cof_lens = [*map(int.bit_length, cofs)]
    drops = map(sub, floors, lens)
    w = max(cof_lens + [n + d - 1 for n, d in zip(cof_lens, drops) if n], default=0)
    fused = tuple(map(or_, map(lshift, steps, repeat(w)), cofs))
    # Step j clears the bit lengths w + floors[j + 1] .. w + floors[j] - 1
    # at shifts 0, 1, ...
    at = [None] * (w + floors[-1])
    for step, run in zip(fused[::-1], map(sub, floors[-2::-1], floors[:0:-1])):
        at += [step, *map(step.__lshift__, range(1, run))]
    return w, fused, (tuple(at), floors)


def _decode(
    w: int, index: tuple, stop: int, mults2: tuple[int, ...], r1: int, r2: int
) -> tuple[int, int, int, int]:
    """The decoder over F_2 at fused steps ``0 .. stop - 1``: ``(q21, tail, k2_hat, a_hat)``.

    ``q21 = r1 - r2``; its cascade leaves the remainder ``tail`` above the
    ``w`` bits of the weighted sum ``k2_hat``, each quotient bit one XOR of
    the shifted step that the index holds for the bit length: the first step
    of degree at most the remainder's.  ``a_hat = k2_hat * m2 + r2``, by the
    byte table ``mults2`` of ``m2``.
    """
    q21 = r1 ^ r2
    at, floors = index
    x = q21 << w
    n = x.bit_length()
    floor = w + floors[stop]
    while n >= floor:
        x ^= at[n]
        n = x.bit_length()
    tail = x >> w
    k2_hat = x ^ tail << w
    return q21, tail, k2_hat, _cltable_mul(k2_hat, mults2) ^ r2
