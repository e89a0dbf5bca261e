"""Dense univariate polynomial arithmetic over a prime field.

A polynomial is immutable.  Its ``coeffs`` are a tuple of integers in
``[0, p)``, index ``i`` holding the coefficient of ``x^i``, with no trailing
zeros.  The zero polynomial has the empty tuple and degree :data:`NEG_INF`,
which compares strictly below every integer and absorbs addition, so degree
inequalities hold for the zero polynomial without special cases.

The field picks the representation and the arithmetic.  Over F_2 a
polynomial is its packed int, bit ``i`` holding the coefficient of ``x^i``:
addition is one XOR, multiplication a carry-less shift-XOR product and
division a shift-XOR long division.  Their loops step over the hex digits or
quotient bits of one operand, and each step shifts and XORs whole ints at C
speed, where the dense loops take a bytecode step per coefficient pair.
Degree, leading coefficient, equality and hashing read the int, and the
``coeffs`` tuple is built on first read and kept; whichever thread builds it
first, it is the same value.  Every other p stores the tuple, multiplies by
Kronecker substitution (one fixed-width slot per coefficient in one int,
one bigint product; :mod:`polycrt.kronecker`) and adds with schoolbook
loops.  It divides with schoolbook loops when the quotient or the divisor is
short, as in most Euclid steps, and otherwise through a Newton reciprocal of
the reversed divisor built from Kronecker products.  Kernel results skip
re-reduction in ``Polynomial.__init__``.  The tests check the fast products
against the dense schoolbook product and the Newton division against
schoolbook division.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, Tuple, Union

from .errors import (
    BothZeroError,
    DivisionByZeroError,
    MixedFieldsError,
    ParseError,
    ZeroInputError,
)
from .field import PrimeField
from .kronecker import _kronecker_mul, _newton_divmod

NEG_INF = float("-inf")

Degree = Union[int, float]

# Guards the x^k exponent in parsed text against memory blowups.
_MAX_PARSE_DEGREE = 1 << 16

# Odd-p division runs through a Newton reciprocal once the quotient and the
# divisor both have at least this many coefficients; below either, schoolbook
# division was as fast or faster at p = 65521 and p = 13.
_NEWTON_MIN_QUOTIENT = 8
_NEWTON_MIN_DIVISOR = 40


class Polynomial:
    """A dense polynomial over a :class:`PrimeField`.

    Coefficients are ints, lowest power first, reduced mod p.  Over F_2 the
    value lives in ``_bits`` and ``_coeffs`` is None until ``coeffs`` is
    read; over any other p it lives in ``_coeffs`` and ``_bits`` is None.
    """

    __slots__ = ("field", "_coeffs", "_bits")

    def __init__(self, field: PrimeField, coeffs: Iterable[int] = ()) -> None:
        p = field.p
        _set_field(self, field)
        if p == 2:
            _set_bits(self, _pack2([c % 2 for c in coeffs]))
            _set_coeffs(self, None)
            return
        vals = [c % p for c in coeffs]
        while vals and vals[-1] == 0:
            vals.pop()
        _set_coeffs(self, tuple(vals))
        _set_bits(self, None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self) -> tuple:
        return (Polynomial, (self.field, self.coeffs))

    @property
    def coeffs(self) -> Tuple[int, ...]:
        """Coefficient tuple, lowest power first.

        Over F_2 it is unpacked from the bits on first read and kept.
        """
        coeffs = self._coeffs
        if coeffs is None:
            bits = self._bits
            coeffs = tuple(bin(bits)[:1:-1].encode().translate(_DIGIT_TO_BIT)) if bits else ()
            _set_coeffs(self, coeffs)
        return coeffs

    # Structure

    @property
    def degree(self) -> Degree:
        """Degree of the polynomial; NEG_INF for the zero polynomial."""
        bits = self._bits
        if bits is None:
            return len(self._coeffs) - 1 if self._coeffs else NEG_INF
        return bits.bit_length() - 1 if bits else NEG_INF

    @property
    def is_zero(self) -> bool:
        # The unused representation is None, or over F_2 a tuple as empty as the bits.
        return not (self._bits or self._coeffs)

    @property
    def lead(self) -> int:
        """Leading coefficient; 0 for the zero polynomial."""
        bits = self._bits
        if bits is None:
            return self._coeffs[-1] if self._coeffs else 0
        return 1 if bits else 0

    def is_monic(self) -> bool:
        return self.lead == 1

    def monic(self) -> "Polynomial":
        """Scalar multiple with leading coefficient 1 (zero stays zero)."""
        if self.is_zero or self.lead == 1:
            return self
        return self._scale(self.field.inv(self.lead))

    def _scale(self, c: int) -> "Polynomial":
        field = self.field
        p = field.p
        c %= p
        if c == 1:
            return self
        if p == 2:  # c == 0
            return _from_bits(field, 0)
        return _from_reduced(field, [(v * c) % p for v in self._coeffs])

    def _check_field(self, other: "Polynomial") -> None:
        if not isinstance(other, Polynomial):
            raise TypeError(f"expected Polynomial, got {type(other).__name__}")
        if self.field is not other.field and self.field != other.field:
            raise MixedFieldsError(
                f"cannot combine polynomials over {self.field!r} and {other.field!r}"
            )

    # Ring operations

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_field(other)
        field = self.field
        if field.p == 2:
            return _from_bits(field, self._bits ^ other._bits)
        return _from_reduced(field, _dense_add(self._coeffs, other._coeffs, field.p))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check_field(other)
        field = self.field
        if field.p == 2:
            return _from_bits(field, self._bits ^ other._bits)
        return _from_reduced(field, _dense_sub(self._coeffs, other._coeffs, field.p))

    def __neg__(self) -> "Polynomial":
        p = self.field.p
        if p == 2:
            return self
        return _from_reduced(self.field, [(-v) % p for v in self._coeffs])

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_field(other)
        field = self.field
        if field.p == 2:
            return _from_bits(field, _clmul(self._bits, other._bits))
        return _from_reduced(field, _kronecker_mul(self._coeffs, other._coeffs, field.p))

    def __divmod__(self, other: "Polynomial") -> Tuple["Polynomial", "Polynomial"]:
        """Euclidean division: ``self == q * other + r`` with deg(r) < deg(other)."""
        self._check_field(other)
        if other.is_zero:
            raise DivisionByZeroError("polynomial division by zero")
        field = self.field
        if field.p == 2:
            a, b = self._bits, other._bits
            if a.bit_length() < b.bit_length():
                return Polynomial(field), self
            quot, rem = _cldivmod(a, b)
            return _from_bits(field, quot), _from_bits(field, rem)
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            return Polynomial(field), self
        lead_inv = field.inv(b[-1])
        if len(b) < _NEWTON_MIN_DIVISOR or len(a) - len(b) + 1 < _NEWTON_MIN_QUOTIENT:
            quot, rem = _dense_divmod(a, b, field.p, lead_inv)
        else:
            quot, rem = _newton_divmod(a, b, field.p, lead_inv)
        return _from_reduced(field, quot), _from_reduced(field, rem)

    def __mod__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[1]

    def __floordiv__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[0]

    # Value semantics

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.field is not other.field and self.field != other.field:
            return False
        if self._bits is None:
            return self._coeffs == other._coeffs
        return self._bits == other._bits

    def __hash__(self) -> int:
        return hash((self.field, self._coeffs if self._bits is None else self._bits))

    def __bool__(self) -> bool:
        return bool(self._bits or self._coeffs)

    def __iter__(self) -> Iterator[int]:
        return iter(self.coeffs)

    def __repr__(self) -> str:
        return f"Polynomial('{self}', p={self.field.p})"

    def __str__(self) -> str:
        """Canonical text form: descending powers joined by '+', zero is '0'."""
        coeffs = self.coeffs
        if not coeffs:
            return "0"
        parts = []
        for i in range(len(coeffs) - 1, -1, -1):
            c = coeffs[i]
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append("x" if c == 1 else f"{c}*x")
            else:
                parts.append(f"x^{i}" if c == 1 else f"{c}*x^{i}")
        return "+".join(parts)


# Slot setters that bypass the blocked __setattr__.
_set_field = Polynomial.field.__set__
_set_coeffs = Polynomial._coeffs.__set__
_set_bits = Polynomial._bits.__set__


def _from_reduced(field: PrimeField, vals: list) -> Polynomial:
    """Polynomial over odd p from a list already reduced mod p.

    Strips trailing zeros from ``vals`` in place.
    """
    while vals and vals[-1] == 0:
        vals.pop()
    poly = object.__new__(Polynomial)
    _set_field(poly, field)
    _set_coeffs(poly, tuple(vals))
    _set_bits(poly, None)
    return poly


# Dense schoolbook kernels on coefficient tuples, for any p.  They return
# lists reduced mod p, possibly with trailing zeros.


def _dense_add(a: Tuple[int, ...], b: Tuple[int, ...], p: int) -> list:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, v in enumerate(b):
        out[i] = (out[i] + v) % p
    return out


def _dense_sub(a: Tuple[int, ...], b: Tuple[int, ...], p: int) -> list:
    out = list(a) + [0] * (len(b) - len(a))
    for i, v in enumerate(b):
        out[i] = (out[i] - v) % p
    return out


def _dense_mul(a: Tuple[int, ...], b: Tuple[int, ...], p: int) -> list:
    # The tests' reference for _clmul and _kronecker_mul; no library path calls it.
    out = [0] * (len(a) + len(b) - 1)
    for i, av in enumerate(a):
        if av:
            for j, bv in enumerate(b):
                if bv:
                    out[i + j] = (out[i + j] + av * bv) % p
    return out


def _dense_divmod(
    a: Tuple[int, ...], div: Tuple[int, ...], p: int, lead_inv: int
) -> Tuple[list, list]:
    """Quotient and remainder of ``a`` by nonzero ``div`` with ``len(a) >= len(div)``.

    ``lead_inv`` is the inverse of ``div``'s leading coefficient mod p.
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


# Packed F_2 kernels: bit i of an int is the coefficient of x^i.  Packing
# and unpacking go through the int's binary text, so both run at C speed.

_BIT_TO_DIGIT = bytes.maketrans(b"\x00\x01", b"01")
_DIGIT_TO_BIT = bytes.maketrans(b"01", b"\x00\x01")
_HEX_TO_NIBBLE = bytes.maketrans(b"0123456789abcdef", bytes(range(16)))


def _pack2(coeffs: Tuple[int, ...]) -> int:
    """Pack reduced F_2 coefficients (lowest power first) into an int."""
    return int(bytes(coeffs[::-1]).translate(_BIT_TO_DIGIT), 2) if coeffs else 0


def _from_bits(field: PrimeField, bits: int) -> Polynomial:
    """Polynomial over F_2 from its packed int; any int is canonical, so nothing is reduced."""
    poly = object.__new__(Polynomial)
    _set_field(poly, field)
    _set_bits(poly, bits)
    _set_coeffs(poly, None)
    return poly


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


def _cldivmod(a: int, b: int) -> Tuple[int, int]:
    """Carry-less long division of ``a`` by nonzero ``b``: ``(quotient, remainder)``."""
    top = b.bit_length()
    quot = 0
    shift = a.bit_length() - top
    while shift >= 0:
        quot |= 1 << shift
        a ^= b << shift
        shift = a.bit_length() - top
    return quot, a


def gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic greatest common divisor by the Euclidean algorithm.

    ``gcd(a, 0)`` is ``a`` made monic; ``gcd(0, 0)`` raises
    :class:`BothZeroError`.  The result is normalized to monic once at the
    end rather than per remainder step, saving inversions.
    """
    a._check_field(b)
    if a.is_zero and b.is_zero:
        raise BothZeroError("gcd(0, 0) is undefined")
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def xgcd(a: Polynomial, b: Polynomial) -> Tuple[Polynomial, Polynomial, Polynomial]:
    """Extended Euclid: returns ``(g, s, t)`` with ``s*a + t*b = g`` and g monic."""
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


def lcm(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic least common multiple of two nonzero polynomials."""
    a._check_field(b)
    if a.is_zero or b.is_zero:
        raise ZeroInputError("lcm requires nonzero inputs")
    return ((a * b) // gcd(a, b)).monic()


_TERM_RE = re.compile(
    r"""^\s*
        (?:
            (?P<coeff>\d+)\s*(?:\*\s*x(?:\^(?P<cpow>\d+))?)?   # c, c*x, c*x^k
          | x(?:\^(?P<pow>\d+))?                               # x, x^k
        )
        \s*$""",
    re.VERBOSE,
)

_INT_RE = re.compile(r"^\s*[+-]?\d+\s*$")


def parse_polynomial(text: str, field: PrimeField) -> Polynomial:
    """Parse polynomial text into a canonical :class:`Polynomial`.

    Two input forms are accepted:

    * term form: terms joined by ``+``, each ``c*x^k``, ``x^k``, ``c*x``,
      ``x`` or ``c``; coefficients must be integers in ``[0, p)``.  Term
      order does not matter and repeated powers are summed, so any input
      that parses round-trips through the canonical descending-order form.
    * coefficient list: ``[c0,c1,...,cn]`` ascending by power; entries are
      arbitrary integers and are reduced mod p.

    Raises :class:`ParseError` with the character position of the first
    offending token.
    """
    if not isinstance(text, str):
        raise ParseError(f"expected string input, got {type(text).__name__}", 0)
    stripped = text.strip()
    if not stripped:
        raise ParseError("empty polynomial text", 0)
    if stripped.startswith("["):
        return _parse_coeff_list(text, field)
    return _parse_terms(text, field)


def _parse_coeff_list(text: str, field: PrimeField) -> Polynomial:
    start = text.index("[")
    end = text.rfind("]")
    if end < start:
        raise ParseError("unterminated coefficient list", len(text) - 1)
    if text[end + 1 :].strip():
        raise ParseError("trailing text after coefficient list", end + 1)
    inner = text[start + 1 : end]
    if not inner.strip():
        raise ParseError("empty coefficient list", start + 1)
    coeffs = []
    offset = start + 1
    for chunk in inner.split(","):
        if not _INT_RE.match(chunk):
            raise ParseError(f"invalid coefficient {chunk.strip()!r}", offset)
        coeffs.append(int(chunk))
        offset += len(chunk) + 1
    if len(coeffs) > _MAX_PARSE_DEGREE:
        raise ParseError("coefficient list too long", start)
    return Polynomial(field, coeffs)


def _parse_terms(text: str, field: PrimeField) -> Polynomial:
    p = field.p
    powers: dict = {}
    offset = 0
    for chunk in text.split("+"):
        if not chunk.strip():
            raise ParseError("empty term", offset)
        m = _TERM_RE.match(chunk)
        if not m:
            raise ParseError(f"invalid term {chunk.strip()!r}", offset)
        if m.group("coeff") is not None:
            c = int(m.group("coeff"))
            if c >= p:
                raise ParseError(f"coefficient {c} not in [0, {p})", offset)
            star = "*" in chunk
            if star:
                k = int(m.group("cpow")) if m.group("cpow") else 1
            else:
                k = 0
        else:
            c = 1
            k = int(m.group("pow")) if m.group("pow") else 1
        if k > _MAX_PARSE_DEGREE:
            raise ParseError(f"exponent {k} too large", offset)
        powers[k] = (powers.get(k, 0) + c) % p
        offset += len(chunk) + 1
    if not powers:
        return Polynomial(field)
    coeffs = [0] * (max(powers) + 1)
    for k, c in powers.items():
        coeffs[k] = c
    return Polynomial(field, coeffs)
