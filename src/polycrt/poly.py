"""Dense univariate polynomial arithmetic over a prime field.

A polynomial is immutable.  Its ``coeffs`` are a tuple of integers in
``[0, p)``, index ``i`` holding the coefficient of ``x^i``, with no trailing
zeros.  The zero polynomial has the empty tuple and degree :data:`NEG_INF`,
which compares strictly below every integer and absorbs addition, so degree
inequalities hold for the zero polynomial without special cases.

The field picks the representation, and a polynomial stores one value.
Each field's kernel module owns its value format and its arithmetic, and
this module wraps them.  Over F_2 the value is the packed int, bit ``i``
holding the coefficient of ``x^i``, which :mod:`polycrt.gf2` packs and
unpacks and on which its shift-XOR kernels work; ``coeffs`` unpacks it on
every read.  Every other p stores the stripped tuple, and
:mod:`polycrt.kronecker` adds, multiplies by Kronecker substitution and
divides: with a schoolbook loop when the divisor or the quotient is short,
and otherwise by the division steps that the Euclid pass takes, which halve
a long quotient until its parts are short.  ``gf2`` loads with this module,
and ``kronecker`` on the first odd-p use: each odd-p branch reads it as
``polycrt.kronecker``, which the package imports when it is first read
(:mod:`polycrt`), so work over F_2 never compiles it.  ``%`` is
``divmod``'s remainder.  The Euclid pass and the decoder's remainder
cascade reduce a remainder and a cofactor-weighted sum step by step.  Each
field's pass is a generator in its kernel module that streams rows, a step
with its cofactor and the cofactor it leaves, as the kernels build them,
and :func:`_from_pass` reads any item of a row as a polynomial.  Each reader
keeps only what it reads: ``gcd``, ``xgcd`` and ``lcm`` the last row (and
``residue_error_bound`` folds ``gcd`` over pairs of moduli), the moduli
pair analysis every step and cofactor, as a :class:`PackedChain`,
and its ``sigma`` one step at a time.  The cascade runs over that chain,
which only the analysis builds, on stored values, in each field's decode
kernel (``gf2._decode``, ``kronecker._decode``), which the decode core of
:mod:`polycrt.crt` binds.
Over F_2 the chain fuses each step into one int.  Over odd p a step packs
its quotient in one int and adds one product per row, Barrett reduction
keeps slots below 3p, and the cascade reduces mod p once, at its end.
"""

from __future__ import annotations

import re
from collections import deque
from collections.abc import Iterable, Iterator, Sequence
from itertools import combinations
from math import inf
from operator import gt, index

import polycrt

from .errors import (
    BothZeroError,
    DivisionByZeroError,
    MixedFieldsError,
    ParseError,
    TooFewModuliError,
    ZeroInputError,
    ZeroModulusError,
)
from .field import PrimeField
from .gf2 import _cldivmod, _clmul, _euclid_rows, _fuse_chain, _pack2, _unpack2

NEG_INF = float("-inf")

Degree = int | float

# Highest degree parsed text may have, in either input form; guards memory.
_MAX_PARSE_DEGREE = 1 << 16

# Most digits a coefficient-list entry may have, whatever the interpreter's
# int digit limit is: int() costs time quadratic in the digits.  CPython's
# default limit.
_MAX_ENTRY_DIGITS = 4300


class Polynomial:
    """A dense polynomial over a :class:`PrimeField`.

    Coefficients are ints, lowest power first, reduced mod p; anything
    without ``__index__``, such as a float, raises ``TypeError``.  The one
    value slot ``_value`` holds the packed int over F_2 and the coefficient
    tuple over any other p; nothing else is stored, then or later.
    """

    __slots__ = ("field", "_value")

    def __init__(self, field: PrimeField, coeffs: Iterable[int] = ()) -> None:
        p = field.p
        _set_field(self, field)
        vals = [index(c) % p for c in coeffs]
        _set_value(self, _pack2(vals) if p == 2 else tuple(polycrt.kronecker._strip(vals)))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self) -> tuple:
        return (Polynomial, (self.field, self.coeffs))

    @property
    def coeffs(self) -> tuple[int, ...]:
        """Coefficient tuple, lowest power first; over F_2 unpacked from the bits on every read."""
        v = self._value
        return v if v.__class__ is tuple else _unpack2(v)

    # Structure

    @property
    def degree(self) -> Degree:
        """Degree of the polynomial; NEG_INF for the zero polynomial."""
        v = self._value
        if not v:
            return NEG_INF
        return len(v) - 1 if v.__class__ is tuple else v.bit_length() - 1

    @property
    def is_zero(self) -> bool:
        return not self._value

    @property
    def lead(self) -> int:
        """Leading coefficient; 0 for the zero polynomial."""
        v = self._value
        if not v:
            return 0
        return v[-1] if v.__class__ is tuple else 1

    def monic(self) -> Polynomial:
        """Scalar multiple with leading coefficient 1 (zero stays zero)."""
        if self.is_zero or self.lead == 1:
            return self
        return self._scale(self.field.inv(self.lead))

    def _scale(self, c: int) -> Polynomial:
        field = self.field
        p = field.p
        c %= p
        if c == 1:
            return self
        if p == 2:  # c == 0
            return _from_bits(field, 0)
        return _from_reduced(field, [(v * c) % p for v in self._value])

    def _check_field(self, other: Polynomial) -> None:
        if not isinstance(other, Polynomial):
            raise TypeError(f"expected Polynomial, got {type(other).__name__}")
        if self.field is not other.field and self.field != other.field:
            raise MixedFieldsError(
                f"cannot combine polynomials over {self.field!r} and {other.field!r}"
            )

    # Ring operations

    def __add__(self, other: Polynomial) -> Polynomial:
        self._check_field(other)
        field = self.field
        if field.p == 2:
            return _from_bits(field, self._value ^ other._value)
        return _from_bits(field, polycrt.kronecker._dense_add(field.p, self._value, other._value))

    def __sub__(self, other: Polynomial) -> Polynomial:
        self._check_field(other)
        field = self.field
        if field.p == 2:
            return _from_bits(field, self._value ^ other._value)
        return _from_bits(field, polycrt.kronecker._dense_sub(field.p, self._value, other._value))

    def __neg__(self) -> Polynomial:
        p = self.field.p
        if p == 2:
            return self
        return _from_reduced(self.field, [(-v) % p for v in self._value])

    def __mul__(self, other: Polynomial) -> Polynomial:
        self._check_field(other)
        field = self.field
        if field.p == 2:
            return _from_bits(field, _clmul(self._value, other._value))
        return _from_reduced(field, polycrt.kronecker._kronecker_mul(self._value, other._value, field.p))

    def __divmod__(self, other: Polynomial) -> tuple[Polynomial, Polynomial]:
        """Euclidean division: ``self == q * other + r`` with deg(r) < deg(other)."""
        self._check_field(other)
        if other.is_zero:
            raise DivisionByZeroError("polynomial division by zero")
        field = self.field
        b = other._value
        if field.p == 2:
            quot, rem = _cldivmod(self._value, b)
        else:
            quot, rem = polycrt.kronecker._tuple_divmod(b, field.p, field.inv(b[-1]), self._value)
        return _from_bits(field, quot), _from_bits(field, rem)

    def __mod__(self, other: Polynomial) -> Polynomial:
        """Remainder of :meth:`__divmod__`."""
        return divmod(self, other)[1]

    def __floordiv__(self, other: Polynomial) -> Polynomial:
        return divmod(self, other)[0]

    # Value semantics

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.field is not other.field and self.field != other.field:
            return False
        return self._value == other._value

    def __hash__(self) -> int:
        return hash((self.field, self._value))

    def __bool__(self) -> bool:
        return bool(self._value)

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
_set_value = Polynomial._value.__set__


def _from_reduced(field: PrimeField, vals: list) -> Polynomial:
    """Polynomial over odd p from a list already reduced mod p; strips ``vals`` in place."""
    return _from_bits(field, tuple(polycrt.kronecker._strip(vals)))


def _from_bits(field: PrimeField, value: int | tuple[int, ...]) -> Polynomial:
    """Polynomial from a stored value, which is taken as it is: nothing is reduced or checked.

    Over F_2 any packed int is canonical.  Over odd p ``value`` must be a
    tuple reduced mod p without trailing zeros, as the value kernels return.
    """
    poly = object.__new__(Polynomial)
    _set_field(poly, field)
    _set_value(poly, value)
    return poly


def _record(cls: type, **fields: object):
    """Frozen dataclass ``cls`` from library-computed ``fields``; skips ``__init__`` and ``__post_init__``."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


class PackedChain:
    """The steps of a remainder cascade, each a modulus and a cofactor, as the kernels store them.

    This is the decoder's state, and only
    :func:`~polycrt.levels.analyze_pair` builds one, from its Euclid pass;
    readers of a pass that never decode read its steps with
    :func:`_from_pass`.  An analysis pickles and copies as its moduli, so a
    restored one builds its chain afresh, the same way.  ``size`` is the
    most coefficients an input to the cascade may have.  A chain has the
    shape the Euclid pass gives it: nonzero moduli of strictly falling
    degree, the first of at most ``size`` coefficients, and one cofactor
    each; the constructor raises ``ValueError`` for any other.
    Over F_2, ``layout`` and ``index`` are those of the fused chain of
    :func:`~polycrt.gf2._fuse_chain`, whose index holds each step already
    shifted for every bit length it clears, and ``steps`` and ``cofs`` are
    both its tuple of fused ints.  Over odd p, ``index`` is None,
    ``layout`` is the slot width and struct code of
    :func:`~polycrt.kronecker._chain_layout` for ``size``, and ``steps`` and
    ``cofs`` are as :func:`~polycrt.kronecker._fold_euclid` yields them,
    their slots holding any value below 3p; :func:`~polycrt.kronecker._decode`
    runs the cascade over them.
    """

    __slots__ = ("field", "size", "layout", "steps", "cofs", "index")

    def __init__(
        self, field: PrimeField, size: int, layout: tuple | None, steps: Sequence,
        cofs: Sequence[int],
    ) -> None:
        self.field = field
        self.size = size
        if field.p == 2:
            self.layout, fused, self.index = _fuse_chain(steps, cofs, size)
            self.steps = self.cofs = fused
            lens = self.index[1]
        else:
            self.layout, self.steps, self.cofs, self.index = layout, tuple(steps), tuple(cofs), None
            lens = (size + 1, *(step[0] for step in self.steps))
        if len(steps) != len(cofs) or not all(map(gt, lens, lens[1:])) or lens[-1] < 1:
            raise ValueError(f"not a Euclid chain for inputs of {size} coefficients")

    def modulus(self, i: int) -> Polynomial:
        """Step i's modulus."""
        if self.index:
            return _from_bits(self.field, self.steps[i] >> self.layout)
        return _from_pass(self.field, self.layout, self.steps[i])

    def cofactor(self, i: int) -> Polynomial:
        """Step i's cofactor."""
        if self.index:
            return _from_bits(self.field, self.cofs[i] & ~(-1 << self.layout))
        return _from_pass(self.field, self.layout, self.cofs[i])

    def degrees(self) -> tuple[list, list]:
        """Degrees of the step moduli and of the cofactors, read off the packed ints.

        An odd-p cofactor whose top slot is zero mod p has no degree: None.
        """
        if self.index:
            w = self.layout
            mask = ~(-1 << w)
            lens = map(int.bit_length, map(mask.__and__, self.cofs))
            return [n - w - 1 for n in map(int.bit_length, self.steps)], [
                n - 1 if n else NEG_INF for n in lens
            ]
        bits, p = 8 * self.layout[0], self.field.p
        cof_degs: list = []
        for cof in self.cofs:
            top = (cof.bit_length() - 1) // bits
            cof_degs.append(NEG_INF if not cof else top if (cof >> top * bits) % p else None)
        return [step[0] - 1 for step in self.steps], cof_degs


def _euclid_pass(a: Polynomial, b: Polynomial) -> tuple:
    """The Euclid pass over ``(a, b)``: ``(size, layout, rows)``, the rows streamed one per step.

    For nonzero ``b`` with ``deg(a) >= deg(b)``: ``r_0, r_1 = a, b``,
    ``r_i = r_{i-2} mod r_{i-1}`` and ``s_i * a + t_i * b == r_i``, where
    ``s_0, s_1 = 1, 0`` and ``s_i = s_{i-2} - q_i * s_{i-1}``.  Row ``i -
    2`` is ``(r_{i-1}, s_{i-1}, s_i)``, for ``i`` from 2 up to the first
    zero ``r_N``: a step, its cofactor, and the cofactor it leaves, for
    inputs as long as ``a``; no step builds a quotient.  Step 0 is ``(b,
    0)``, and ``s_N`` of the last row has ``s_N * a == -t_N * b``, so it is
    ``b / gcd(a, b)`` times a nonzero scalar.  Each field's pass is a
    generator in its kernel module, :func:`~polycrt.gf2._euclid_rows` and
    :func:`~polycrt.kronecker._fold_euclid`, and keeps no row it has
    yielded.  ``size``, ``layout`` and the steps and cofactors are a
    :class:`PackedChain`'s arguments after its field, and :func:`_from_pass`
    reads any item of a row.
    """
    field, x, y = a.field, a._value, b._value
    if field.p == 2:
        return x.bit_length(), None, _euclid_rows(x, y)
    width, code, reduce = polycrt.kronecker._chain_layout(field.p, len(x))
    return len(x), (width, code), polycrt.kronecker._fold_euclid(x, y, field.p, width, code, reduce)


def _from_pass(field: PrimeField, layout: tuple | None, item: int | tuple) -> Polynomial:
    """An item of a row of :func:`_euclid_pass`, with the pass's ``layout``, as a polynomial.

    Over F_2 ``item`` is the packed int.  Over odd p it is a step ``(n, low,
    neg_inv, lead)`` or a packed cofactor of
    :func:`~polycrt.kronecker._fold_euclid`, whose slots, below 3p, are
    reduced mod p here.
    """
    if field.p == 2:
        return _from_bits(field, item)
    p, bits = field.p, 8 * layout[0]
    if item.__class__ is tuple:  # a step: its lead, nonzero and below p, over its low slots
        item = item[1] | item[3] << (item[0] - 1) * bits
    slots = -(-item.bit_length() // bits)
    return _from_reduced(field, [c % p for c in polycrt.kronecker._unpack(item, slots, *layout)])


def _euclid(name: str, a: Polynomial, b: Polynomial) -> tuple[Polynomial, ...]:
    """``(x, y, r_{N-1}, s_{N-1}, s_N)``: the operands by degree and the last row of their pass."""
    a._check_field(b)
    if a.is_zero and b.is_zero:
        raise BothZeroError(f"{name}(0, 0) is undefined")
    x, y = (b, a) if a.degree < b.degree else (a, b)
    if y.is_zero:
        return x, y, x, Polynomial(x.field, (1,)), y
    _, layout, rows = _euclid_pass(x, y)
    (row,) = deque(rows, 1)
    return (x, y, *(_from_pass(x.field, layout, item) for item in row))


def gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic greatest common divisor: the Euclid pass's last remainder, made monic.

    ``gcd(a, 0)`` is ``a`` made monic; ``gcd(0, 0)`` raises :class:`BothZeroError`.
    """
    return _euclid("gcd", a, b)[2].monic()


def xgcd(a: Polynomial, b: Polynomial) -> tuple[Polynomial, Polynomial, Polynomial]:
    """Extended Euclid: returns ``(g, s, t)`` with ``s*a + t*b = g`` and g monic.

    ``deg(s) < deg(b/g)`` and ``deg(t) < deg(a/g)`` unless ``a``, ``b`` are scalar multiples.
    """
    x, y, g, s, _ = _euclid("xgcd", a, b)
    t, rem = (y, y) if y.is_zero else divmod(g - s * x, y)
    if not rem.is_zero:
        raise AssertionError("the Euclid pass's cofactor leaves a remainder")
    c = g.field.inv(g.lead)
    g, s, t = g._scale(c), s._scale(c), t._scale(c)
    return (g, s, t) if x is a else (g, t, s)


def lcm(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic least common multiple of two nonzero polynomials."""
    a._check_field(b)
    if a.is_zero or b.is_zero:
        raise ZeroInputError("lcm requires nonzero inputs")
    x, _, _, _, last = _euclid("lcm", a, b)
    return (x * last).monic()


def residue_error_bound(moduli: Sequence[Polynomial]) -> int:
    """Exclusive residue error bound for robust reconstruction over L moduli.

    Computed as the maximum over moduli of the smallest pairwise gcd degree
    with the others; reconstruction of any polynomial below the lcm degree
    tolerates per-residue errors of degree strictly below this value.  Zero
    means no robustness (some modulus is coprime to all others).
    """
    if len(moduli) < 2:
        raise TooFewModuliError("at least two moduli are required")
    for mod in moduli:
        if mod.is_zero:
            raise ZeroModulusError("moduli must be nonzero")
    # worst[i] is the smallest gcd degree of modulus i with the others; one
    # gcd per unordered pair, since gcd(mi, mj) and gcd(mj, mi) share a degree.
    worst = [inf] * len(moduli)
    for i, j in combinations(range(len(moduli)), 2):
        d = gcd(moduli[i], moduli[j]).degree
        worst[i], worst[j] = min(worst[i], d), min(worst[j], d)
    return max(worst)


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
    # One pass over the text, before any entry is matched or converted.
    if inner.count(",") > _MAX_PARSE_DEGREE:
        raise ParseError("coefficient list too long", start)
    coeffs = []
    offset = start + 1
    for chunk in inner.split(","):
        if not _INT_RE.match(chunk):
            raise ParseError(f"invalid coefficient {chunk.strip()!r}", offset)
        if len(chunk.strip().lstrip("+-")) > _MAX_ENTRY_DIGITS:
            raise ParseError(f"coefficient of more than {_MAX_ENTRY_DIGITS} digits", offset)
        try:
            coeffs.append(int(chunk))
        except ValueError as exc:  # over a lower int digit limit
            raise ParseError(f"invalid coefficient: {exc}", offset) from None
        offset += len(chunk) + 1
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
            c = _bounded_int(m.group("coeff"), p - 1, f"coefficient {{}} not in [0, {p})", offset)
            k = m.group("cpow") or ("1" if "*" in chunk else "0")
        else:
            c = 1
            k = m.group("pow") or "1"
        k = _bounded_int(k, _MAX_PARSE_DEGREE, "exponent {} too large", offset)
        powers[k] = (powers.get(k, 0) + c) % p
        offset += len(chunk) + 1
    coeffs = [0] * (max(powers) + 1)
    for k, c in powers.items():
        coeffs[k] = c
    return Polynomial(field, coeffs)


def _bounded_int(digits: str, bound: int, message: str, offset: int) -> int:
    """Decimal ``digits`` as an int, or a :class:`ParseError` at ``offset`` when above ``bound``.

    The length is checked, leading zeros stripped, before converting, so an
    over-long literal costs one pass over its text.
    """
    digits = digits.lstrip("0") or "0"
    if len(digits) > len(str(bound)) or int(digits) > bound:
        shown = digits if len(digits) <= 40 else digits[:40] + "..."
        raise ParseError(message.format(shown), offset)
    return int(digits)
