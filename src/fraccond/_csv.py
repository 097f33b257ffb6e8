"""CSV tables of float64 written as ``%.17g``, byte for byte what
``np.savetxt(path, table, fmt="%.17g", delimiter=",", header=header,
comments="")`` writes, without a Python format call per value.

The digits are exact.  A normal, finite, nonzero |x| = m 2**(be - 1075),
with m the 53-bit significand and be the biased exponent, has the decimal
exponent X = floor(log10 |x|), and its 17 significant digits are the
integer D = round-half-even(m 5**k / 2**r) with k = 16 - X and
r = 1075 - be - k.  For k in [0, 27] (5**27 < 2**63) the product m 5**k is
built exactly in 128 bits from 32-bit limbs in uint64 arithmetic, and one
shift by r yields D with its round bit and sticky bits.  A value falls back
to ``"%.17g" % v`` itself when its k or r lies outside that range, when
m 5**k / 2**r is below 10**16 before rounding or D reaches 10**17 (log10
was off by one, or the rounding carried into the next decade), or when it
is +-0, subnormal, inf or nan.  Either way every byte comes from the one
correctly rounded rule.

The ``%g`` layout: fixed notation for -4 <= X < 17, exponent notation
otherwise (a sign and at least two exponent digits); trailing zeros of the
fraction and a bare '.' are dropped.  Each value gets a 48-byte field in
which absent characters are NUL, ending in its ',' or '\\n';
``bytes.translate`` then drops the NULs.  Tables are written in blocks of
at most BLOCK_CELLS values, a working set of about 4 MiB.
"""

from __future__ import annotations

import numpy as np

BLOCK_CELLS = 1 << 14

_U = np.uint64
_POW5 = np.array([5**k for k in range(28)], dtype=_U)


def _layout(X: int):
    """The %.17g layout at decimal exponent X: the prefix before the
    digits, the exponent after them, the digit after which a '.' may stand,
    and how many digits stand even when they are trailing zeros."""
    if X < -4:
        return b"", b"e%+03d" % X, 0, 1
    if X < 0:
        return b"0." + b"0" * (-X - 1), b"", 16, 1
    return b"", b"", X, X + 1


# A field is 6 little-endian words, 48 bytes: the sign, the prefix, the
# first digit and its '.' slot; four words of 4 digits, each digit followed
# by its '.' slot; the exponent and, in the last byte, the separator.
# Tables by k = 16 - X for the decimal exponents X in [-11, 16]:
_LAYOUTS = [_layout(16 - k) for k in range(28)]
_HEAD = np.array([int.from_bytes(b"\0" + f[0], "little") for f in _LAYOUTS],
                 dtype=_U)
_TAIL = np.array([int.from_bytes(f[1], "little") for f in _LAYOUTS], dtype=_U)
_DOT_AFTER = np.array([f[2] for f in _LAYOUTS])
_INTEGER = np.array([f[3] for f in _LAYOUTS])
# by 4-digit group g: its ASCII digits in the even bytes of a word, and its
# trailing zeros
_DIGIT = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1)  # of each g
_SPREAD = np.zeros((8, 10_000), dtype=np.uint8)
_SPREAD[::2] = ord("0") + _DIGIT
_SPREAD = np.ascontiguousarray(_SPREAD.T).view("<u8")[:, 0]
_zero = _DIGIT == 0
_TRAILING = _zero[3] * (1 + _zero[2] * (1 + _zero[1] * (1 + _zero[0])))
# by the count of digits printed: the bytes of the four group words kept
_KEEP = np.array([[sum(0xFF << 16 * j for j in range(4) if 1 + 4 * c + j < n)
                   for c in range(4)] for n in range(18)], dtype=_U)


def write_table(path: str, table: np.ndarray, header: str) -> None:
    """Write a 2-D float64 table as CSV with one header line (none if the
    header is empty)."""
    table = np.asarray(table, dtype=np.float64)
    rows, cols = table.shape
    step = max(BLOCK_CELLS // max(cols, 1), 1)
    with open(path, "wb") as fh:
        if header:
            fh.write(header.encode("latin-1") + b"\n")
        for lo in range(0, rows, step):
            fh.write(_format_block(table[lo:lo + step]))


def _format_block(block: np.ndarray) -> bytes:
    """The CSV lines of a (rows, cols) block."""
    rows, cols = block.shape
    v = np.ascontiguousarray(block).reshape(-1)
    fast, D, k = _decimal(v)
    text = _fields(D, k, v.view(_U) >> _U(63)).view(np.uint8)
    for c in np.flatnonzero(~fast):
        value = b"%.17g" % v[c]
        text[c] = 0
        text[c, :len(value)] = np.frombuffer(value, dtype=np.uint8)
    sep = text[:, -1].reshape(rows, cols)
    sep[:, :-1] = ord(",")
    sep[:, -1] = ord("\n")
    return text.tobytes().translate(None, b"\0")


def _fields(D: np.ndarray, k: np.ndarray, negative: np.ndarray) -> np.ndarray:
    """The (n, 6) words of the fields of the values with digits D, layout k
    and sign bit ``negative``; the separator bytes are left unset."""
    head = D // _U(10**16)
    rest = D - head * _U(10**16)
    hi8 = rest // _U(10**8)
    groups = []
    for part in (hi8, rest - hi8 * _U(10**8)):
        top = part // _U(10**4)
        groups += [top, part - top * _U(10**4)]
    groups = [g.astype(np.intp) for g in groups]  # indices into the tables
    zeros = np.zeros(D.size, dtype=np.intp)  # trailing zeros of the digits
    for c in (3, 2, 1, 0):
        zeros += _TRAILING[groups[c]] * (zeros == 4 * (3 - c))
    shown = np.maximum(17 - zeros, _INTEGER[k])
    p = _DOT_AFTER[k]

    field = np.empty((D.size, 6), dtype="<u8")
    field[:, 0] = (_HEAD[k] | negative * _U(ord("-"))
                   | (_U(ord("0")) + head) << _U(48))
    keep = _KEEP[shown]
    for c in range(4):
        field[:, 1 + c] = _SPREAD[groups[c]] & keep[:, c]
    field[:, 5] = _TAIL[k]
    field.view(np.uint8)[np.arange(D.size), 7 + 2 * p] = np.where(
        shown > p + 1, ord("."), 0)
    return field


def _decimal(v: np.ndarray):
    """(fast, D, k): where ``fast``, the 17 significant digits D of v as an
    integer in [10**16, 10**17) and k = 16 - X for its decimal exponent X;
    elsewhere the value is left to the per-value fallback."""
    bits = v.view(_U)
    be = (bits >> _U(52)) & _U(0x7FF)
    m = (bits & _U((1 << 52) - 1)) | _U(1 << 52)
    normal = (be != 0) & (be != 0x7FF)
    X = np.floor(np.log10(np.where(normal, np.abs(v), 1.0))).astype(np.int64)
    k = 16 - X
    r = 1075 - be.astype(np.int64) - k
    fast = normal & (k >= 0) & (k <= 27) & (r >= 1) & (r <= 63)
    p5 = _POW5[np.where(fast, k, 0)]
    s = np.where(fast, r - 1, 0).astype(_U)

    # m 5**k = hi 2**64 + lo, from the 32-bit limbs of both factors
    low32 = _U(0xFFFFFFFF)
    m0, m1 = m & low32, m >> _U(32)
    p0, p1 = p5 & low32, p5 >> _U(32)
    t = m0 * p0
    mid = m0 * p1 + m1 * p0 + (t >> _U(32))  # < 2**63 + 2**53 + 2**32
    lo = (t & low32) | (mid << _U(32))
    hi = m1 * p1 + (mid >> _U(32))

    # q2 = (m 5**k) >> (r - 1), whose low bit is the round bit, is below
    # 2 * 10**18 < 2**61 even when log10 was off by one;
    # (hi << (63 - s)) << 1 is hi << (64 - s) without a shift by 64
    q2 = (lo >> s) | ((hi << (_U(63) - s)) << _U(1))
    q = q2 >> _U(1)
    sticky = (lo & ((_U(1) << s) - _U(1))) != 0
    up = (q2 & _U(1) != 0) & (sticky | (q & _U(1) != 0))  # half to even
    D = q + up
    # X is right when m 5**k / 2**r >= 10**16 before rounding (a D rounded
    # up to 10**16 can come from a value below 10**X), and D < 10**17 when
    # the rounding does not carry into the next decade
    fast &= (q >= _U(10**16)) & (D < _U(10**17))
    return fast, np.where(fast, D, _U(10**16)), np.where(fast, k, 0)
