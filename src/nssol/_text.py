"""Text of float64 arrays, formatted on whole arrays at once, and the
whole payload of a table: a CSV table, its header row then every number
exactly as ``'%.17g' % x``, and a JSON document, byte for byte what
``json.dumps(doc, indent=2)`` writes, every number of its columns
exactly as ``repr(x)``.  This module writes every byte of a table
payload; the CLI only picks the format.

A finite x with 1e-11 < |x| < 1e17, or a zero, is converted with integer
arithmetic only (the correctly rounded binary-to-decimal conversion of
Gay, 1990, done on arrays): x = m * 2**q from frexp, the 17-digit
decimal D = m * 5**k * 2**(q + k), k = 16 - e, from an exact 128-bit
product of 32-bit limbs, shifted right with round-half-even on the exact
remainder.  The decade e is the one of the truncated quotient (1e-07 is
9.99...95e-08 as a double).  The window keeps 5**k below 2**64, and no
rounding in it reaches 10**17, which would carry into e + 1: 10**0 to
10**17 are doubles, and the doubles just below 10**-10 to 10**-1 lie
more than half a unit of the 17th digit below them (1e-14, outside,
does carry).  Any other value goes through Python's own ``'%.17g'``,
one at a time.

``repr`` writes the shortest digits that read back as x, the nearest to
x among them (ties to even).  They come from the same truncated 17-digit
quotient and its remainder, rounded correctly to 15 and to 16 digits,
the shortest candidate that reads back as x kept:

- the 15-digit one with its trailing zeros stripped is repr's digits
  whenever repr has 15 digits or fewer: 15-digit decimals lie more than
  four ulps of x apart, so at most one of them reads back as x, and it
  is the nearest one;
- else, if any 16-digit string reads back as x, the nearest one does;
- else x needs 17 digits, and those are ``'%.17g'``'s.

Whether a candidate d * 10**p reads back as x is Clinger's test (1990):
for d < 2**53 and |p| <= 22 both factors are doubles, and one correctly
rounded multiply or divide is the nearest double to d * 10**p.  Python's
``repr`` formats, one at a time, what the test cannot decide: values
whose 17-digit decade is below -7 (|p| > 22), and 16-digit candidates
of 2**53 or more.  An exact power of two has an asymmetric rounding
interval, a quarter ulp below it and half an ulp above, so a farther
16-digit string could read back where the nearest does not; for none
of the 80 powers of two in decades -7..16 does that happen, and the
tests check each of them.  repr lays the digits out in fixed notation
for 1e-4 <= |x| < 1e16, with ".0" after an integral value, else in
scientific notation with a signed exponent of two digits or more
(1e-05, 1e+16); a negative zero is -0.0.

A value's text is laid out in four little-endian 64-bit words, byte by
byte: the sign, the lead of a number below 1 ("0." and up to three
zeros), the first digit and a point after it; the other 16 digits; the
exponent suffix of scientific notation, repr's ".0" of an integral
value, or the last digit, moved up by a point after digit 2..16.
Unused bytes are NUL.  A CSV cell puts its comma or newline in byte 31;
a JSON cell has a fifth word for what follows it in an indented list,
the next number's indent or the list's end.  A
table is written a block of whole grid rows, about BLOCK points, at a
time: a CSV block holds every column of its rows, a JSON block one
column's, so the columns of a JSON document follow each other with none
held whole.  The NULs of a block go in one ``bytearray.translate``, and
its bytes are yielded at once, never decoded or joined: a payload of
any size streams through the memory of one block.

Every integer operation on the mantissa and on the text words is uint64
with uint64 operands: mixed with a signed integer, numpy 1.x promotes to
float64 and drops bits.  Exponents, digit counts and table indices are
intp.
"""

import json
import math

import numpy as np

from ._interp import BLOCK

_U = np.uint64
_WORD = np.dtype("<u8")
_ONE = _U(1)
_LO32 = _U(0xFFFFFFFF)
_0, _8, _32, _48, _56, _63 = _U(0), _U(8), _U(32), _U(48), _U(56), _U(63)
_TEN, _HUNDRED = _U(10), _U(100)
_TEN4, _TEN8 = _U(10**4), _U(10**8)
_TEN16, _TEN17 = _U(10**16), _U(10**17)
_TWO53 = _U(2**53)

#: the conversion window, and its decades: 5**(16 - e) fits 64 bits
_LO, _HI = 1e-11, 1e17
_E_MIN, _E_MAX = -11, 16
#: the lowest decade whose 16-digit candidates Clinger's test decides
_E_CLINGER = -7

#: 5**k for k = 0..27, and the doubles 10**k for k = 0..26 (exact to 22)
_POW5 = np.cumprod(np.concatenate([[_ONE], np.full(27, 5, _U)]), dtype=_U)
_POW10 = np.array([float(10**k) for k in range(27)])

_ZERO, _DOT, _MINUS = ord("0"), ord("."), ord("-")
_ZERO_U, _DOT_U, _MINUS_U = _U(_ZERO), _U(_DOT), _U(_MINUS)

#: the four ASCII digits of 0..9999, and how many of them are trailing zeros
_DIGITS = np.indices((10, 10, 10, 10)).reshape(4, -1).T
_QUAD = (_DIGITS + _ZERO).astype(np.uint8, order="C").view(np.uint32).ravel()
_Z = _DIGITS == 0
_TZ4 = _Z[:, 3] * (1 + _Z[:, 2] * (1 + _Z[:, 1] * (1 + _Z[:, 0].astype(np.intp))))


def _words(chars):
    """Rows of 8*k bytes as k little-endian words each."""
    return np.ascontiguousarray(chars, dtype=np.uint8).view(_WORD)


#: per decade e = _E_MIN.._E_MAX: the first word's lead, bytes 1..5, in
#: fixed notation below 1 (both formats write 1e-4 <= |x| < 1 so)
_E = np.arange(_E_MIN, _E_MAX + 1)
_UNDER1 = (_E >= -4) & (_E < 0)
_around = np.zeros((_E.size, 8), np.uint8)
_around[:, 1] = np.where(_UNDER1, _ZERO, 0)
_around[:, 2] = np.where(_UNDER1, _DOT, 0)
_around[:, 3:6] = np.where(_UNDER1[:, None] & (np.arange(2, 5) <= -_E[:, None]), _ZERO, 0)
_LEAD = _words(_around).ravel()


def _notation(fixed_below):
    """Per decade e = _E_MIN.._E_MAX, a format's layout: how many digits
    come before the point in fixed notation, whether the point of a
    fraction follows the first digit (from 1 to 10, and in scientific
    notation, used below 1e-4 and from 10**fixed_below), and the last
    word: the exponent in scientific notation, else nothing."""
    sci = (_E < -4) | (_E >= fixed_below)
    integral = np.where(sci, 0, np.maximum(_E, 0))
    last = np.zeros((_E.size, 8), np.uint8)
    last[:, 0] = np.where(sci, ord("e"), 0)
    last[:, 1] = np.where(sci, np.where(_E < 0, _MINUS, ord("+")), 0)
    last[:, 2] = np.where(sci, abs(_E) // 10 + _ZERO, 0)
    last[:, 3] = np.where(sci, abs(_E) % 10 + _ZERO, 0)
    return integral, sci | (_E == 0), _words(last).ravel()


#: %g's choice at 17 digits: scientific for e < -4 and e >= 17 (outside)
_PRINTF = _notation(17)
#: repr's: scientific for e < -4 and e >= 16, and ".0" after an integral
#: value in fixed notation
_REPR_FIXED = 16
_REPR = _notation(_REPR_FIXED)
_POINT_ZERO = _U(_DOT | _ZERO << 8)

#: digits 2..17 (words 1 and 2) kept by a text of 1..17 digits
_KEEP1, _KEEP2 = _words(np.where(np.arange(1, 17) < np.arange(18)[:, None], 0xFF, 0)).T.copy()

#: a point at byte p = 1..15 of words 1 to 3 (after digit p + 1 of 17):
#: the bytes before it kept, the point, the bytes after it moved up one
_B, _P = np.arange(24), np.arange(16)[:, None]
_BEFORE = _words(np.where(_B < _P, 0xFF, 0))
_AFTER = _words(np.where(_B > _P, 0xFF, 0))
_POINT = _words(np.where(_B == _P, _DOT, 0))
del _DIGITS, _Z, _UNDER1, _around, _B, _P


def _scaled(m, q, e):
    """Truncated 17-digit quotient Q = floor(m * 2**q * 10**(16 - e)),
    whether it rounds up (half-even) and whether it is exact (no
    remainder), for uint64 m < 2**53, intp q and e, -11 <= e <= 16 and
    Q < 10**18."""
    k = 16 - e
    p = _POW5[k]
    s = -(q + k)  # -5 <= s <= 63 in the window
    right = np.maximum(s, 0).astype(_U)
    left = np.maximum(-s, 0).astype(_U)
    # m * p = hi * 2**64 + lo from 32-bit limbs
    m0, m1 = m & _LO32, m >> _32
    p0, p1 = p & _LO32, p >> _32
    a, b, c = m0 * p0, m0 * p1, m1 * p0
    mid = (a >> _32) + (b & _LO32) + (c & _LO32)
    lo = (a & _LO32) | (mid << _32)
    hi = m1 * p1 + (b >> _32) + (c >> _32) + (mid >> _32)
    # hi << (64 - right) in two steps: no shift reaches 64
    quotient = (((hi << _ONE) << (_63 - right)) | (lo >> right)) << left
    full = _ONE << right
    twice = (lo & (full - _ONE)) << _ONE  # twice the remainder, < 2**64
    up = (twice > full) | ((twice == full) & ((quotient & _ONE) == _ONE))
    return quotient, up.astype(_U), twice == _0


def _decimal(x):
    """|x|, which values lie in the window, and for those the decade e
    and _scaled's figures of the 17-digit quotient; the other rows hold
    the figures of 1.0."""
    size = np.abs(x)
    fast = (size > _LO) & (size < _HI)
    y = np.where(fast, size, 1.0)
    frac, q = np.frexp(y)
    m = (frac * 2.0**53).astype(_U)
    q = q.astype(np.intp) - 53
    e = np.clip(np.floor(np.log10(y)).astype(np.intp), _E_MIN, _E_MAX)
    quotient, up, exact = _scaled(m, q, e)
    # the estimate from log10 can miss the decade next to a power of ten
    miss = np.flatnonzero((quotient < _TEN16) | (quotient >= _TEN17))
    if miss.size:
        e[miss] += np.where(quotient[miss] < _TEN16, -1, 1)
        quotient[miss], up[miss], exact[miss] = _scaled(m[miss], q[miss], e[miss])
    return size, fast, e, quotient, up, exact


def _layout(x, digits, e, notation, text):
    """Write the text of each value of x, sign included, from its digits
    (17 of them, trailing zeros after the significant ones; a zero's
    are 0) and decade e, into the rows of text, in a format's notation.
    Returns which values have a fraction."""
    integral_of, point_of, last = notation
    # the first digit, then four groups of four
    top9 = digits // _TEN8
    low8 = digits - top9 * _TEN8
    first = top9 // _TEN8
    high8 = top9 - first * _TEN8
    quads = np.empty((x.size, 4), _U)
    quads[:, 0] = high8 // _TEN4
    quads[:, 1] = high8 - quads[:, 0] * _TEN4
    quads[:, 2] = low8 // _TEN4
    quads[:, 3] = low8 - quads[:, 2] * _TEN4
    quads = quads.astype(np.intp)
    # significant digits: 17 less the trailing zeros (16 of a zero's 17)
    t0, t1, t2, t3 = np.take(_TZ4, quads).T
    significant = 17 - (t3 + (t3 == 4) * (t2 + (t2 == 4) * (t1 + (t1 == 4) * t0)))

    # fixed notation keeps the first e + 1 digits (e >= 0) however many
    # are zeros, then drops trailing zeros, and %g a bare point
    decade = e - _E_MIN
    integral = np.take(integral_of, decade)
    kept = np.maximum(significant, integral + 1)
    fraction = significant > integral + 1
    point = fraction & np.take(point_of, decade)
    text[:, 0] = (np.take(_LEAD, decade) | np.signbit(x).astype(_U) * _MINUS_U
                  | (first + _ZERO_U) << _48 | point.astype(_U) * _DOT_U << _56)
    quads = np.take(_QUAD, quads).view(_WORD)
    text[:, 1] = quads[:, 0] & np.take(_KEEP1, kept)
    text[:, 2] = quads[:, 1] & np.take(_KEEP2, kept)
    text[:, 3] = np.take(last, decade)
    inner = np.flatnonzero(fraction & (integral > 0))
    if inner.size:  # a point after digit 2..16: move what follows it up
        at = integral[inner]
        plain = text[inner, 1:4]
        moved = plain << _8
        moved[:, 1:] |= plain[:, :-1] >> _56
        text[inner, 1:4] = (plain & _BEFORE[at]) | (moved & _AFTER[at]) | _POINT[at]
    return fraction


def _fallback(x, rows, text, spec):
    """Overwrite the given rows of text with ``spec % v``, one at a time."""
    if rows.size:
        text.view(np.uint8)[rows] = np.array(
            [spec % v for v in x[rows].tolist()], dtype="S32").view(np.uint8).reshape(-1, 32)


def cells(x, text):
    """Write the text of each value of the float64 array x, in C order,
    into the rows of text, an (x.size, 4) array of words: ``'%.17g' % v``
    with NULs between and after its parts, byte 31 left NUL."""
    x = np.asarray(x, dtype=float).ravel()
    size, fast, e, quotient, up, _ = _decimal(x)
    digits = quotient + up  # never 10**17 in the window: no carry
    digits[~fast] = 0  # zeros print as "0"; the rest is overwritten below
    e[~fast] = 0
    _layout(x, digits, e, _PRINTF, text)
    _fallback(x, np.flatnonzero(~fast & (size != 0.0)), text, b"%.17g")


def _nearest(quotient, exact, unit):
    """The exact value of the truncated quotient in units of 10 or 100,
    rounded half to even."""
    head, tail = quotient // unit, quotient % unit
    half = unit >> _ONE
    up = (tail > half) | (tail == half) & (~exact | ((head & _ONE) == _ONE))
    return head + up.astype(_U)


def _reads_back(d, p, size):
    """Whether the doubles d * 10**p are size, by Clinger's test (valid
    for d < 2**53 and |p| <= 22)."""
    d = d.astype(float)
    scale = np.take(_POW10, np.abs(p))
    return np.where(p < 0, d / scale, d * scale) == size


def repr_cells(x, text):
    """Write the text of each value of the float64 array x, in C order,
    into the rows of text, an (x.size, 4) array of words: ``repr(v)``
    with NULs between and after its parts."""
    x = np.asarray(x, dtype=float).ravel()
    size, fast, e, quotient, up, exact = _decimal(x)
    fast &= e >= _E_CLINGER
    c15 = _nearest(quotient, exact, _HUNDRED)
    c16 = _nearest(quotient, exact, _TEN)
    ok15 = _reads_back(c15, e - 14, size)
    ok16 = _reads_back(c16, e - 15, size)
    fast &= ok15 | (c16 < _TWO53)  # else the test cannot decide c16
    digits = quotient + up
    digits = np.where(ok16, c16 * _TEN, digits)
    digits = np.where(ok15, c15 * _HUNDRED, digits)
    digits[~fast] = 0  # zeros print as "0.0"; the rest is overwritten below
    e[~fast] = 0
    carry = digits == _TEN17  # 15 nines rounded up: 10**(e + 1) itself
    digits[carry] = _TEN16
    e += carry
    fraction = _layout(x, digits, e, _REPR, text)
    text[:, 3] |= (~fraction & (e >= 0) & (e < _REPR_FIXED)).astype(_U) * _POINT_ZERO
    _fallback(x, np.flatnonzero(~fast & (size != 0.0)), text, b"%r")


def _grid(keys, kernel):
    """The product grid of the 1-d arrays keys, in blocks of whole
    first-key rows, about BLOCK grid points each: per key its text,
    formatted once by kernel, and its stride, the grid points between
    its steps; and the slice of the first key of each block."""
    sizes = [k.size for k in keys]
    strides = [math.prod(sizes[d + 1:]) for d in range(len(keys))]
    texts = []
    for k in keys:
        texts.append(np.empty((k.size, 4), _WORD))
        kernel(k, texts[-1])
    step = max(1, BLOCK // strides[0])
    blocks = [slice(i, min(i + step, sizes[0])) for i in range(0, sizes[0], step)]
    return texts, strides, blocks


def _key(texts, strides, d, rows, out):
    """Write the text of key d at the grid points of the first-key rows
    into out.  A later key's is the same in every full block."""
    at = np.arange(rows.start * strides[0], rows.stop * strides[0])
    np.take(texts[d], at // strides[d], axis=0, out=out, mode="wrap")


def csv_table(header, keys, values):
    """A CSV table over the product grid of the 1-d arrays keys, with the
    arrays values of that grid's shape: the header row, then one row per
    grid point, in C order, its keys then its values.  Yields the header,
    then the bytes of a block of whole first-key rows at a time, as soon
    as it is formatted.  One buffer serves the full blocks after the
    first, whose later keys it keeps, and the last block has its own."""
    yield (",".join(header) + "\n").encode()
    texts, strides, blocks = _grid(keys, cells)
    columns = len(keys) + len(values)
    ends = np.full(columns, _U(ord(",")) << _56)
    ends[-1] = _U(ord("\n")) << _56
    values = [np.reshape(v, (keys[0].size, -1)) for v in values]
    buf = None
    for rows in blocks:
        if buf is None or rows is blocks[-1]:
            points = (rows.stop - rows.start) * strides[0]
            buf = bytearray(points * columns * 32)
            text = np.frombuffer(buf, _WORD).reshape(points, columns, 4)
            for d in range(1, len(keys)):
                _key(texts, strides, d, rows, text[:, d])
        _key(texts, strides, 0, rows, text[:, 0])
        for j, v in enumerate(values, len(keys)):
            cells(v[rows], text[:, j])
        text[..., 3] |= ends
        yield buf.translate(None, b"\0")


#: the fifth word of a JSON cell: what follows a number of a column at
#: indent 2, the next number's indent or, after the last, the list's end
_JSON_SEPARATOR, _JSON_END = np.frombuffer(b",\n    \0\0\n  ]\0\0\0\0", _WORD)


def json_table(header, keys, values, extra):
    """The document ``json.dumps(doc, indent=2) + "\\n"`` of doc, an
    object whose members are the columns of a table over the product
    grid of the 1-d arrays keys, with the arrays values of that grid's
    shape, each named by header (the keys then the values at each grid
    point, in C order), then the members of the dict extra.  Yields a
    column's key line, then the bytes of a block of its whole first-key
    rows at a time, as soon as they are made, so no column is held
    whole.  Each key is formatted once, and a later key's text of a full
    block, the same in each, is made once and yielded again."""
    texts, strides, blocks = _grid(keys, repr_cells)
    values = [np.reshape(v, (keys[0].size, -1)) for v in values]
    lead = "{"
    for c, name in enumerate(header):
        yield f"{lead}\n  {json.dumps(name)}: [\n    ".encode()
        lead = ","
        buf = None
        for rows in blocks:
            last = rows is blocks[-1]
            if buf is None or last:
                points = (rows.stop - rows.start) * strides[0]
                buf = bytearray(points * 40)
                cell = np.frombuffer(buf, _WORD).reshape(points, 5)
                cell[:, 4] = _JSON_SEPARATOR
                if last:
                    cell[-1, 4] = _JSON_END
                chunk = None
            if chunk is None or not 0 < c < len(keys):  # else a later key's repeat
                if c < len(keys):
                    _key(texts, strides, c, rows, cell[:, :4])
                else:
                    repr_cells(values[c - len(keys)][rows], cell[:, :4])
                chunk = buf.translate(None, b"\0")
            yield chunk
    # extra's members as json.dumps writes them at indent 2, its braces cut
    yield ("," + json.dumps(extra, indent=2)[1:-2] if extra else "").encode() + b"\n}\n"
