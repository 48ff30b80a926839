"""Python's ``repr`` of float64 values, for whole blocks of a CSV table at once.

The digits are the shortest decimal that reads back as the same double and,
among those, the one nearest to it (ties to an even last digit).  They come
from Dragonbox (J. Jeon, "Dragonbox: A New Floating-Point Binary-to-Decimal
Conversion Algorithm", 2020), written in numpy uint64 arithmetic, which
wraps exactly and does not depend on SIMD dispatch: one 64 x 128-bit
product per value gives the right end z of the value's rounding interval,
scaled so that the interval is 100 to 1000 units wide, and a multiple of
1000 inside the interval, or else the multiple of 100 nearest its center,
is the answer.  The layout is CPython's: fixed notation when
-4 < decpt <= 16 for a value 0.d1...dn * 10**decpt, with ``.0`` on integral
values, otherwise ``d[.ddd]e+XX`` with at least two exponent digits;
``-0.0``, ``nan``, ``inf`` and ``-inf``.

:func:`slots` builds each value's text in a 32-byte slot of four
little-endian uint64 words: the sign and any "0.000" right-aligned in the
first word, then the digits with the point among them, and the exponent at
a fixed place in the last word, with zero bytes around them.  Per table,
:func:`csv_rows` puts each separator in its slot's last byte; the nonzero
bytes of the slots, in order, are then the CSV text.
"""

import numpy as np

_U64 = np.uint64
_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_KAPPA = 2
_BIG = 10 ** (_KAPPA + 1)


def _floor_log10_pow2(e):
    """floor(e * log10(2)) for |e| <= 2620."""
    return (e * 315653) >> 20


def _floor_log2_pow10(k):
    """floor(k * log2(10)) for |k| <= 1233."""
    return (k * 1741647) >> 19


def _phi(k: int) -> int:
    """The cache entry for 10**k: ceil(10**k * 2**(127 - floor(k log2 10))), in [2**127, 2**128)."""
    s = 127 - _floor_log2_pow10(k)
    if k < 0:
        return -(-(1 << s) // 10**-k)
    return 10**k << s if s >= 0 else -(-(10**k) >> -s)


# columns of the exponent table
_BETA1, _X_LOW, _LIMBS, _SMALL_CUT, _HALF_FRAC, _DIST_BASE, _E10 = 0, 1, slice(2, 6), 6, 7, 8, 9


def _exponent_table() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dragonbox's constants for binary64, one row per top 12 bits of a double (sign and biased exponent).

    For the biased exponent b, e = max(b, 1) - 1075 is the exponent of the
    significand's last bit, k = kappa - floor(e log10 2), phi the cache
    entry for 10**k and beta = e + floor(k log2 10), in [6, 9].  A
    significand c rounds from the interval 2**(e-1) (2c -+ 1); times 10**k
    that is (2c -+ 1) * phi * 2**(beta - 128).  So with x = (2c + 1) << beta,
    z = x * phi / 2**128 is its right end, delta = phi / 2**(127 - beta) its
    width, in [100, 1000), and y = z - delta/2 its center.

    The columns: beta + 1; (2**53 [b > 0] + 1) << beta, so that
    x = (c's stored bits << (beta + 1)) + that; phi's four 32-bit limbs,
    lowest first; floor(delta) << 54 with the top 54 bits of delta's
    fraction below it; the top 64 bits of delta/2's fraction;
    1050 - floor(delta/2); and the decimal exponent -k + kappa of the
    result.  b = 2047 (inf and nan) reuses b = 2046's row and b = 0 reuses
    b = 1's.

    Then, for b in 1..2046, (f, k') with f * 10**k' the repr digits of
    2**(b - 1023): Dragonbox's shorter-interval case.  A significand of zero
    bits has half the spacing below it that it has above, and as 2**52 is
    even both ends of its interval round to it.
    """
    phi = [_phi(k) for k in range(-292, 327)]
    phi_hi = np.array([p >> 64 for p in phi], dtype=_U64)
    phi_lo = np.array([p & _M64 for p in phi], dtype=_U64)

    b = np.arange(2048)
    e = np.clip(b, 1, 2046) - 1075
    minus_k = _floor_log10_pow2(e) - _KAPPA
    beta = (e + _floor_log2_pow10(-minus_k)).astype(_U64)
    hi, lo = phi_hi[292 - minus_k], phi_lo[292 - minus_k]
    table = np.empty((2048, 10), dtype=_U64)
    table[:, _BETA1] = beta + 1
    table[:, _X_LOW] = ((b > 0).astype(_U64) << 53 | 1) << beta
    table[:, _LIMBS] = np.stack([lo & _M32, lo >> 32, hi & _M32, hi >> 32], axis=1)
    delta_frac = (hi << (beta + 1)) | (lo >> (63 - beta))
    table[:, _SMALL_CUT] = (hi >> (63 - beta)) << 54 | delta_frac >> 10
    table[:, _HALF_FRAC] = (hi << beta) | (lo >> (64 - beta))
    table[:, _DIST_BASE] = _BIG + 10**_KAPPA // 2 - (hi >> (64 - beta))
    table[:, _E10] = (minus_k + _KAPPA).view(_U64)

    e = e[1:2047]
    minus_k = (e * 631305 - 261663) >> 21  # floor(e log10(2) - log10(4/3))
    beta = (e + _floor_log2_pow10(-minus_k)).astype(_U64)
    hi = phi_hi[292 - minus_k]
    left = (hi - (hi >> 54)) >> (11 - beta)
    left += (e < 2) | (e > 3)  # the left end is an integer only for these exponents
    right = ((hi + (hi >> 53)) >> (11 - beta)) // 10 * 10
    f = ((hi >> (10 - beta)) + 1) // 2
    tie = ((f & 1) == 1) & (e == -77)  # the one exponent whose candidate can be a tie
    f = np.where(right >= left, right, f - tie + (~tie & (f < left)))
    short_f, short_e = np.ones(2048, dtype=_U64), np.zeros(2048, dtype=np.int64)
    short_f[1:2047], short_e[1:2047] = f, minus_k
    return np.tile(table, (2, 1)), np.tile(short_f, 2), np.tile(short_e, 2)


_TABLE, _SHORT_F, _SHORT_E = _exponent_table()


def _mul_phi(x, row):
    """(z, mid): bits 128 and up, and bits 64 to 127, of x * phi for x < 2**63, on 32-bit limbs.

    ``row`` holds each value's exponent-table row, phi's limbs among them.
    """
    p0, p1, p2, p3 = row[:, _LIMBS].T
    lo = x & _M32
    hi = x >> 32
    t = lo * p0
    t >>= 32
    t += lo * p1
    u = t & _M32
    u += hi * p0
    t >>= 32
    t += lo * p2
    u >>= 32
    u += hi * p1
    u += t & _M32
    mid = u & _M32
    t >>= 32
    t += lo * p3
    u >>= 32
    u += hi * p2
    u += t & _M32
    mid |= u << 32
    t >>= 32
    u >>= 32
    u += t
    u += hi * p3
    return u, mid


def _exact_steps(x, c, row):
    """Dragonbox's steps 2 and 3 as published, for the values given; f at the decimal exponent of ``_E10``.

    f is 10 times the quotient by 1000 when a multiple of 1000 lies in the
    interval, otherwise the multiple of 100 nearest the center y, ties to
    even.  Each rare branch (the right end excluded, the remainder equal to
    delta, a center halfway between two multiples of 100) is evaluated
    here on every value given and picked with masks; its parities come
    from the products of phi with the left end and the center.
    """
    z, mid = _mul_phi(x, row)
    s = z // _BIG
    r = z - s * _BIG
    delta = row[:, _SMALL_CUT] >> 54
    even = (c & 1) == 0
    # the right end is excluded when it is an integer and c is odd: try the next lower multiple of 1000
    excluded = (r == 0) & (mid == 0) & ~even
    s -= excluded
    r += excluded * _U64(_BIG)
    # r == delta puts the multiple of 1000 on the left end, kept when that is an integer and c is even
    beta_pow = _U64(1) << (row[:, _BETA1] - 1)
    left, left_mid = _mul_phi(x - 2 * beta_pow, row)
    left_in = ((left & 1) == 1) | ((left_mid == 0) & even)
    small = (r > delta) | excluded | ((r == delta) & ~left_in)
    dist = r + row[:, _DIST_BASE] - _BIG
    f = s * 10 + np.where(small, dist // 100, 0)
    # dist divisible by 100: y is below the multiple when its parity differs from dist's; a tie goes to even
    center, center_mid = _mul_phi(x - beta_pow, row)
    down = ((center & 1) != (dist & 1)) | (((f & 1) == 1) & (center_mid == 0))
    f -= small & (dist % 100 == 0) & down
    return f


def _shortest_decimal(bits):
    """(f, e, special): f * 10**e gives the repr digits of each finite nonzero value, f < 10**17.

    ``bits`` are the values as uint64.  ``special`` indexes the zeros,
    infinities and nans, whose f and e are placeholders.  This is Dragonbox
    with the fractions of z, delta and delta/2 compared to their top 64
    bits: the few values whose comparison those bits leave open (nearly
    all of them short decimals) take :func:`_exact_steps`.
    """
    top = (bits >> 52).view(np.intp)
    row = _TABLE.take(top, axis=0)
    c = bits & ((1 << 52) - 1)
    x = c << row[:, _BETA1]
    x += row[:, _X_LOW]
    z, mid = _mul_phi(x, row)
    s = z // _BIG
    r = z - s * _BIG
    # (r, fraction of z) above (delta, its fraction): the interval misses 1000 s, so f is the multiple
    # of 100 nearest the center, 10 s - 10 + (r + 1050 - floor(delta/2) - borrow) // 100
    cut = (r << 54) | (mid >> 10)
    small_cut = row[:, _SMALL_CUT]
    small = cut > small_cut
    # the center borrows from r when the fraction of z is below that of delta/2
    below = mid - row[:, _HALF_FRAC]
    dist = r + row[:, _DIST_BASE]
    dist -= below > mid
    f = dist // 100
    dist -= f * 100
    f -= 10
    f *= small
    f += s * 10
    # open: r of 0 or delta with fractions that agree in their top bits, or a center those bits put
    # on a tie between two multiples of 100; the low bits decide them
    cut -= small_cut
    np.minimum(cut, cut + small_cut, out=cut)
    dist |= below
    open_ = np.flatnonzero(np.minimum(cut, dist) <= 1)
    if len(open_):
        f[open_] = _exact_steps(x[open_], c[open_], row[open_])
    e = row[:, _E10].view(np.int64).copy()
    # no stored significand bits (powers of two, zeros, infinities) or the top exponent (nans too)
    unusual = np.flatnonzero((c == 0) | ((top & 0x7FF) == 0x7FF))
    at = top[unusual]
    f[unusual] = _SHORT_F[at]
    e[unusual] = _SHORT_E[at]
    return f, e, unusual[(at & 0x7FF) % 0x7FF == 0]


def _word(text: str, offset: int = 0) -> int:
    """``text`` as bytes ``offset``, ``offset + 1``, ... of a little-endian uint64."""
    return sum(ord(ch) << 8 * (offset + i) for i, ch in enumerate(text))


def _right(text: str) -> int:
    """``text`` as the last bytes of a little-endian uint64."""
    return _word(text, 8 - len(text))


def _quad_tables() -> tuple[np.ndarray, np.ndarray]:
    """Two tables indexed by a quad q = 0..9999 of four digits.

    The first holds q's ASCII digits, the first in the lowest byte of a
    uint64.  The second, for quad j of the 17 digits (digits 4j..4j+3),
    holds how many of the 17 run up to q's last nonzero digit, 0 for 0000.
    """
    q = np.arange(10000, dtype=np.int16)
    ascii_bytes = np.zeros((10000, 8), dtype=np.uint8)
    for i in range(4):
        ascii_bytes[:, i] = 48 + q // 10 ** (3 - i) % 10
    last = 4 - (q % 10 == 0).view(np.uint8) - (q % 100 == 0).view(np.uint8) - (q % 1000 == 0).view(np.uint8)
    significant = np.array([np.where(q > 0, 4 * j + last, 0) for j in range(4)], dtype=np.uint8)
    return ascii_bytes.view("<u8").reshape(-1), significant


_QUAD, _SIGNIFICANT = _quad_tables()
_POW10 = np.array([10**i for i in range(18)], dtype=_U64)
# by the exponent field of float(f) for 1 <= f < 2**57: the fewest digits f can have, and 10 to that power
_DIGITS = np.zeros((1024 + 57, 2), dtype=_U64)
_DIGITS[1023:] = [(d, 10**d) for d in (len(str(1 << i)) for i in range(58))]

# by decpt + _DECPT_OFFSET: the digits kept at least (up to the point and one after it for
# ddd.0), the point's byte (0 for none), the exponent's index and the "0.000" prefix's
_DECPT_OFFSET = 330
_EXPONENTS = [f"e{x:+03d}" for x in range(-324, 309)] + [""]
_NO_EXPONENT = len(_EXPONENTS) - 1
_NOTATION = np.array(
    [(d + 1, d, _NO_EXPONENT, 0) if 0 < d <= 16 else (0, 0, _NO_EXPONENT, 1 - d) if -4 < d <= 0
     else (0, 1, min(max(d + 323, 0), _NO_EXPONENT - 1), 0) for d in range(-_DECPT_OFFSET, _DECPT_OFFSET)],
    dtype=np.int16,
)
# the sign and "0." followed by 0-3 zeros, right-aligned, at negative * 5 + (1 - decpt),
# or the sign alone at negative * 5
_PREFIX = np.array([_right(sign + lead) for sign in ("", "-") for lead in ["", "0.", "0.0", "0.00", "0.000"]],
                   dtype=_U64)
# each exponent at bytes 2 to 6 of a word; byte 7 is the separator's
_SUFFIX = np.frombuffer("".join(f"\0\0{e}".ljust(8, "\0") for e in _EXPONENTS).encode(), dtype="<u8")
_COMMA, _NEWLINE = _U64(ord(",") << 56), _U64(ord("\n") << 56)
_POINT_LENGTH = 18


def _body_table() -> np.ndarray:
    """By point * 18 + length: where each byte of the 24-byte body comes from, in three uint64 words.

    The digits are the 17 of f left-aligned; ``length`` of them are kept.
    Bytes before the point come from the digits, the point is "." and the
    kept digits after it move up one byte; a point of 0 puts a zero byte
    first instead.  Per word j, columns 3j to 3j + 2: the mask taking the
    digits, the mask taking the moved digits, and the point's byte.
    """
    point = np.arange(17)[:, None, None]
    length = np.arange(_POINT_LENGTH)[:, None]
    byte = np.arange(24)
    kept = byte < np.minimum(point, length)
    moved = (point < byte) & (byte <= length)
    dot = (point == byte) & (point > 0)
    # each as three words of 0xFF (or ".") bytes
    shape = (17, _POINT_LENGTH, 24)
    kept, moved, dot = (np.ascontiguousarray(np.broadcast_to(m * np.uint8(fill), shape)).view("<u8")
                        for m, fill in ((kept, 0xFF), (moved, 0xFF), (dot, ord("."))))
    return np.stack([kept, moved, dot], axis=-1).reshape(-1, 9)


_BODY = _body_table()
# "0.0", "inf" and "nan", right-aligned, then with a sign
_SPECIAL = np.array([_right(t) for t in ("0.0", "inf", "nan", "-0.0", "-inf", "nan")], dtype=_U64)


def slots(values: np.ndarray) -> np.ndarray:
    """Each float64 value's ``repr`` in a 32-byte slot, as an ``(n, 4)`` uint64 array in ``values``' C order:
    the text's bytes are nonzero, every other byte (the last among them) zero."""
    bits = np.ascontiguousarray(values, dtype=np.float64).reshape(-1).view(_U64)
    f, e, special = _shortest_decimal(bits)

    # f's digit count, from its binary exponent and one comparison
    digits = _DIGITS.take(f.astype(np.float64).view(np.intp) >> 52, axis=0)
    n = digits[:, 0] + (f >= digits[:, 1])
    # the 17 digits of f left-aligned, as four quads and a last digit
    left = f * _POW10.take(17 - n)
    high = left // 10**9
    low = left - high * 10**9
    q1 = high // 10**4
    q2 = high - q1 * 10**4
    low8 = low // 10
    d17 = low - low8 * 10
    q3 = low8 // 10**4
    q4 = low8 - q3 * 10**4
    quads = [q.view(np.intp) for q in (q1, q2, q3, q4)]
    significant = _SIGNIFICANT[0].take(quads[0])
    np.maximum(significant, (d17 != 0).view(np.uint8) * np.uint8(17), out=significant)
    for j in range(1, 4):
        np.maximum(significant, _SIGNIFICANT[j].take(quads[j]), out=significant)

    notation = _NOTATION.take(e.view(np.intp) + n.view(np.intp) + _DECPT_OFFSET, axis=0)
    length = np.maximum(significant, notation[:, 0])
    # a one-digit exponent form has no point: the point is at most the last kept digit's byte
    layout = np.minimum(notation[:, 1], length - 1)
    layout *= _POINT_LENGTH
    layout += length
    body = _BODY.take(layout, axis=0)

    words = np.empty((len(bits), 4), dtype=np.dtype("<u8"))
    words[:, 0] = _PREFIX.take(notation[:, 3] + 5 * (bits >> 63).view(np.intp))
    w0 = _QUAD.take(quads[1])
    w0 <<= 32
    w0 |= _QUAD.take(quads[0])
    w1 = _QUAD.take(quads[3])
    w1 <<= 32
    w1 |= _QUAD.take(quads[2])
    d17 += 48
    # the body: digits before the point, the point, then the kept digits one byte up
    for j, (w, below) in enumerate(((w0, None), (w1, w0), (d17, w1))):
        moved = w << 8
        if below is not None:
            moved |= below >> 56
        out = words[:, 1 + j]
        np.bitwise_and(moved, body[:, 3 * j + 1], out=out)
        out |= body[:, 3 * j + 2]
        out |= w & body[:, 3 * j]
    # the exponent at bytes 26 to 30: a gap of zero bytes may precede it
    words[:, 3] |= _SUFFIX.take(notation[:, 2])

    if len(special):
        special_bits = bits[special]
        nan = (special_bits << 1) > (0x7FF << 53)
        kind = np.where(nan, 2, (special_bits >> 52 & 0x7FF) != 0) + 3 * (special_bits >> 63).view(np.intp)
        words[special, 0] = _SPECIAL[kind]
        words[special, 1:] = 0
    return words


def csv_rows(words: np.ndarray) -> bytes:
    """The CSV rows of a ``(rows, columns, 4)`` array of :func:`slots`: "," ends each slot but a row's last, a
    newline that one.  The separators are written into ``words``."""
    words[:, :-1, 3] |= _COMMA
    words[:, -1:, 3] |= _NEWLINE
    return words.tobytes().translate(None, b"\0")


def csv_block(block: np.ndarray) -> bytes:
    """The CSV rows of a 2-D float64 array: ``",".join(map(repr, row)) + "\\n"`` per row."""
    return csv_rows(slots(block).reshape(*block.shape, 4))
