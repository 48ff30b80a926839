"""Python's ``repr`` of float64 values, for whole blocks of a CSV table at once.

The digits are the shortest decimal that reads back as the same double and,
among those, the one nearest to it (ties to an even last digit).  They come
from Schubfach (R. Giulietti, "The Schubfach way to render doubles", 2020),
written as the JDK's ``DoubleToDecimal.toDecimal`` in numpy uint64
arithmetic, which wraps exactly and does not depend on SIMD dispatch.  The
layout is CPython's: fixed notation when -4 < decpt <= 16 for a value
0.d1...dn * 10**decpt, with ``.0`` on integral values, otherwise
``d[.ddd]e+XX`` with at least two exponent digits; ``-0.0``, ``nan``,
``inf`` and ``-inf``.

Each value's text, with the separator after it, is built in a 32-byte slot
of four little-endian uint64 words: the sign and any "0.000" right-aligned
in the first word, the digits, point, exponent and separator from the
second word on, and zero bytes around them.  The nonzero bytes of the
slots, in order, are then the CSV text, one run of them per value.
"""

import numpy as np

_U64 = np.uint64
_M32 = 0xFFFFFFFF
_M63 = (1 << 63) - 1
_EXPONENT_BITS = 0x7FF << 52
_ONE = 0x3FF << 52

# decimal exponents k of the scaled powers of ten g(k), as in the JDK
_K_MIN, _K_MAX = -324, 292


def _flog10pow2(q):
    """floor(q * log10(2)) for |q| <= 5456721."""
    return (q * 661971961083) >> 41


def _flog2pow10(e):
    """floor(e * log2(10)) for |e| <= 6432162."""
    return (e * 913124641741) >> 38


def _scaled_powers_of_ten():
    """g1, and the 32-bit limbs of g1 and g0, with g = g1 2**63 + g0, per k; and h - q.

    g = floor(10**-k 2**(125 - flog2pow10(-k))) + 1, in [2**125, 2**126].
    """
    g1s, g0s, shift = [], [], []
    for k in range(_K_MIN, _K_MAX + 1):
        r = 125 - _flog2pow10(-k)
        if k <= 0:
            beta = 10**-k << r if r >= 0 else 10**-k >> -r
        else:
            beta = (1 << r) // 10**k
        g = beta + 1
        g1s.append(g >> 63)
        g0s.append(g & _M63)
        shift.append(_flog2pow10(-k) + 2)
    g1, g0 = np.array(g1s, dtype=_U64), np.array(g0s, dtype=_U64)
    return g1, g1 >> 32, g1 & _M32, g0 >> 32, g0 & _M32, np.array(shift, dtype=np.int64)


_G1, _G1_HI, _G1_LO, _G0_HI, _G0_LO, _H_MINUS_Q = _scaled_powers_of_ten()


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


def _byte_masks(pick) -> np.ndarray:
    """[j][i]: word j of a 24-byte block with 0xFF at each byte b where ``pick(b, i)``, i = 0..24."""
    return np.array(
        [[sum(0xFF << 8 * b for b in range(8) if pick(8 * j + b, i)) for i in range(25)] for j in range(3)],
        dtype=_U64,
    )


# the bytes before byte i, the bytes after it, and "." at it
_BELOW = _byte_masks(lambda b, i: b < i)
_ABOVE = _byte_masks(lambda b, i: b > i)
_POINT = _byte_masks(lambda b, i: b == i) & _word("." * 8)
_NO_POINT = 24
# the sign and "0." followed by 0-3 zeros, right-aligned, at negative * 5 + (1 - decpt),
# or the sign alone at negative * 5
_PREFIX = np.array([_right(sign + lead) for sign in ("", "-") for lead in ["", "0.", "0.0", "0.00", "0.000"]],
                   dtype=_U64)
# exponents -324..308 and none, each followed by "," and by a newline
_EXPONENTS = [f"e{x:+03d}" for x in range(-324, 309)] + [""]
_SUFFIX = np.frombuffer("".join(f"{e}{sep}".ljust(8, "\0") for e in _EXPONENTS for sep in ",\n").encode(), dtype="<u8")
_NO_EXPONENT = len(_EXPONENTS) - 1
_POW10 = np.array([10**i for i in range(20)], dtype=_U64)
# "0.0", "inf" and "nan", right-aligned, then with a sign
_SPECIAL = np.array([_right(t) for t in ("0.0", "inf", "nan", "-0.0", "-inf", "nan")], dtype=_U64)


def _mulhi(a_hi, a_lo, b_hi, b_lo):
    """High 64 bits of the product of a < 2**63 and b < 2**63, given as 32-bit limbs."""
    t = a_hi * b_lo + ((a_lo * b_lo) >> 32)
    w = a_lo * b_hi + (t & _M32)
    return a_hi * b_hi + (t >> 32) + (w >> 32)


def _rop(g1, g1_hi, g1_lo, g0_hi, g0_lo, cp):
    """cp * g * 2**-127 rounded to odd, g = g1 2**63 + g0 (JDK ``rop``)."""
    cp_hi, cp_lo = cp >> 32, cp & _M32
    x1 = _mulhi(g0_hi, g0_lo, cp_hi, cp_lo)
    y1 = _mulhi(g1_hi, g1_lo, cp_hi, cp_lo)
    z = ((g1 * cp) >> 1) + x1
    return (y1 + (z >> 63)) | (((z & _M63) + _M63) >> 63)


def _shortest_decimal(bits):
    """(f, k) with f * 10**k the repr digits of each positive finite double, f < 10**17.

    This is the JDK's ``toDecimal(q, c, 0)`` for every double, with one
    change: subnormals use their own c and q = -1074 (the JDK scales the two
    smallest by ten), and the one-digit-shorter test runs from s >= 10
    rather than s >= 100, because the JDK renders at least two digits
    (4.9E-324) where repr renders the shortest (5e-324).  Integral values
    skip the JDK's fast path, which only saves time: this path gives them
    the same digits.
    """
    t = bits & ((1 << 52) - 1)
    bq = (bits >> 52) & 0x7FF
    c = t | (np.minimum(bq, 1) << 52)
    q = np.maximum(bq, 1).view(np.int64) - 1075
    irregular = (t == 0) & (bq > 1)
    # flog10pow2(q), or flog10threeQuartersPow2(q) where the spacing below c is halved
    k = (q * 661971961083 - irregular * 274743187321) >> 41
    i = k - _K_MIN
    h = (q + _H_MINUS_Q[i]).view(_U64)

    g = _G1[i], _G1_HI[i], _G1_LO[i], _G0_HI[i], _G0_LO[i]
    cb = c << 2
    out = c & 1
    vbl, vb, vbr = (_rop(*g, cp << h) for cp in (cb - 2 + irregular, cb, cb + 2))
    vbl += out
    vbr -= out

    s = vb >> 2
    sp10 = (s // 10) * 10
    upin = vbl <= sp10 << 2
    wpin = (sp10 + 10) << 2 <= vbr
    shorter = (s >= 10) & (upin != wpin)
    uin = vbl <= s << 2
    win = (s + 1) << 2 <= vbr
    cmp = (vb - ((s << 2) + 2)).view(np.int64)
    closer_s = (cmp < 0) | ((cmp == 0) & ((s & 1) == 0))
    take_s = (uin & ~win) | (~(uin ^ win) & closer_s)
    f = np.where(shorter, sp10 + 10 * wpin.view(np.uint8), s + 1 - take_s.view(np.uint8))
    return f, k


def csv_block(block: np.ndarray) -> bytes:
    """The CSV rows of a 2-D float64 array: ``",".join(map(repr, row)) + "\\n"`` per row."""
    rows, cols = block.shape
    if rows * cols == 0:
        return b""
    bits = np.ascontiguousarray(block, dtype=np.float64).reshape(-1).view(_U64)
    special = np.flatnonzero(((bits & _EXPONENT_BITS) == _EXPONENT_BITS) | (bits << 1 == 0))
    if len(special):
        special_bits = bits[special]
        bits = bits.copy()
        bits[special] = _ONE
    f, e = _shortest_decimal(bits)

    # the 17 digits of f left-aligned; its bit length gives its digit count to within one
    bit_length = (f.astype(np.float64).view(np.int64) >> 52) - 1022
    digits = _flog10pow2(bit_length - 1) + 1
    digits += f >= _POW10[digits]
    decpt = e + digits
    left = f * _POW10[17 - digits]
    high = left // 10**9
    low = left - high * 10**9
    q1 = high // 10**4
    q2 = high - q1 * 10**4
    low8 = low // 10
    d16 = low - low8 * 10
    q3 = low8 // 10**4
    q4 = low8 - q3 * 10**4
    quads = [q.view(np.intp) for q in (q1, q2, q3, q4)]
    significant = np.maximum(_SIGNIFICANT[0][quads[0]], (d16 != 0).view(np.uint8) * 17)
    for j in range(1, 4):
        np.maximum(significant, _SIGNIFICANT[j][quads[j]], out=significant)
    significant = significant.astype(np.intp)

    fixed = (decpt > -4) & (decpt <= 16)
    fraction = fixed & (decpt <= 0)  # 0.000ddd: the prefix holds "0." and the zeros
    positional = fixed & (decpt > 0)  # ddd.ddd, or ddd000.0
    # digits kept: the significant ones, and for ddd000.0 those up to the
    # point and the zero after it, all zeros of the 17
    length = np.maximum(significant, (decpt + 1) * positional)
    point = np.where(positional, decpt, np.where(fixed | (significant == 1), _NO_POINT, 1))
    suffix_index = (np.where(fixed, _NO_EXPONENT, decpt + 323) * 2).reshape(rows, cols)
    suffix_index[:, -1] += 1
    suffix = _SUFFIX[suffix_index.reshape(-1)]

    # digits, then the suffix at byte `length`, then the point at byte `point`
    block_words = [_QUAD[quads[0]] | _QUAD[quads[1]] << 32, _QUAD[quads[2]] | _QUAD[quads[3]] << 32, d16 + 48]
    word = length >> 3
    shift = ((length & 7) << 3).view(_U64)
    low_part, high_part = suffix << shift, suffix >> (64 - shift)
    for j in range(3):
        w = block_words[j] & _BELOW[j][length]
        w |= low_part * (word == j)
        if j:
            w |= high_part * (word == j - 1)
        block_words[j] = w
    w0, w1, w2 = block_words
    s0, s1, s2 = w0 << 8, (w1 << 8) | (w0 >> 56), (w2 << 8) | (w1 >> 56)

    words = np.empty((len(bits), 4), dtype=np.dtype("<u8"))
    words[:, 0] = _PREFIX[(bits >> 63).view(np.intp) * 5 + fraction * (1 - decpt)]
    for j, (w, s) in enumerate(((w0, s0), (w1, s1), (w2, s2))):
        words[:, 1 + j] = (w & _BELOW[j][point]) | (s & _ABOVE[j][point]) | _POINT[j][point]

    if len(special):
        nan = (special_bits << 1) > (_EXPONENT_BITS << 1)
        kind = np.where(nan, 2, (special_bits & _EXPONENT_BITS) != 0) + 3 * (special_bits >> 63).view(np.intp)
        words[special, 0] = _SPECIAL[kind]
        words[special, 1] = np.where(special % cols == cols - 1, ord("\n"), ord(","))
        words[special, 2:] = 0
    text = words.view(np.uint8).reshape(-1)
    return text[text != 0].tobytes()
