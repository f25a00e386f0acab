"""CSV cells as fixed-width byte rows, float cells vectorized in numpy.

`float_cells(x)` turns a float64 array into a `(x.size, WIDTH)` uint8
matrix: row k holds the ASCII bytes of repr(float(x[k])) with NUL bytes
among them, so that dropping every NUL leaves exactly repr's bytes. The
digits are the shortest decimal that reads back as x and, among those,
the one nearest x, as repr chooses them; the layout is repr's:
positional for decimal exponents -4 to 15 (with ".0" after a whole
number), else scientific with a signed exponent of at least two digits.

The digits of one cell: x = m 2^q with an integer m < 2^53 is scaled by
10^(16 - e0), e0 = floor(log10 2^(q + 52)), as a double-double product
with a table of powers of ten, so X = x 10^(16 - e0) lies in
[10^16, 2 10^17) and is known as an exact integer part Z plus a
fraction f, to about 1e-13 in units of its last digit. In those units
the rounding half-widths of x (half an ulp; a quarter ulp below a power
of two) bound the integers A < c <= B whose decimal reads back as x.
That range is under 100 wide. If it holds ten integers or more, c is
its multiple of 100 if it has one (at most one fits), else its multiple
of 10 nearest X; if it is narrower, c is its multiple of 10 if it has
one (at most one fits), else the integer nearest X: the shortest
decimal, and the nearest among the shortest. c's 18
digits are made eight at a time inside uint64 words (SWAR), and one
gather per cell places sign, digits, point and exponent by a layout
pattern chosen by the decimal exponent.

Some cells are written by repr itself, chosen by their input alone:
zero, NaN, +-inf and subnormals, and any cell where one of the
comparisons above reads a computed fraction within `_MARGIN` (1e-9 of
a unit of the last digit) of its threshold, against an arithmetic error
near 1e-13. Those are the cells where an end of the rounding range, or
the midpoint between two candidates, is (nearly) a whole number in
these units: exact ties, which repr settles, and cases too close to
call in double-double. That takes every float in [2^52, 2^57) (there x
plus half an ulp is a whole number of units) and part of those in
[2^44, 2^64); elsewhere it is rare: 0.46% of random bit patterns, none
of 200000 standard normal draws.
"""

from __future__ import annotations

import sys
from functools import cache

import numpy as np

__all__ = ["WIDTH", "Workspace", "cell_matrix", "float_cells"]

WIDTH = 24  # the longest float repr: "-1.2345678901234567e-308"

_MARGIN = 1e-9
_CHUNK = 8192  # cells per pass of the arithmetic
_GATHER = 1024  # cells per pass of the final gather


@cache
def _by_exponent():
    """Per biased exponent be of x, the row of 10^(16 - e0) it needs.

    10^s = (hi + lo) 2^b with hi in [1, 2) is built from Python integers
    and scaled by the 2^(be - 1075 + b) that turns m (hi + lo) into X,
    so each cell reads hi, lo and the two 26-bit halves of hi for
    Dekker's product, and e0. be = 0 (zeros, subnormals) takes be = 1's
    row; their cells are written by repr.
    """
    be = np.maximum(np.arange(2048), 1)
    e0 = ((be - 1023) * 78913) >> 18  # floor(log10 2^(be - 1023)), exact
    powers, first = [], 16 - e0[-1]
    for s in range(first, 17 - e0[0]):
        num, den = (10 ** s, 1) if s >= 0 else (1, 10 ** -s)
        b = num.bit_length() - den.bit_length()  # 2^b <= 10^s < 2^(b+1)
        num, den = (num << max(-b, 0)), (den << max(b, 0))
        if num < den:
            b, num = b - 1, num << 1
        h = num / den  # int / int is rounded once
        powers.append((h, ((num << 52) - int(h * 2 ** 52) * den) / (den << 52),
                       b))
    hi, lo, b = (np.array(c)[16 - e0 - first] for c in zip(*powers))
    scale = np.ldexp(1.0, be - 1075 + b)
    hi *= scale
    lo *= scale
    big = hi * 134217729.0  # 2^27 + 1
    hh = big - (big - hi)
    return hi, lo, hh, hi - hh, e0


# A cell's source, five uint64 words: 0-2 hold c's 18 digits after six
# '0' bytes (byte 6 + j is digit j), 3 the sign byte (NUL for +), '.'
# and 'e', 4 the exponent's sign and three digits (hundreds NUL below
# 100). A pattern names, per output byte, a source byte (word 8 + byte);
# there is one per layout (decimal exponent -4 ... 15, or scientific)
# and count of significant digits.
_D, _SIGN, _DOT, _E, _NUL, _EXP = 6, 24, 25, 26, 27, 32


@cache
def _patterns():
    pats = []
    for layout in range(21):
        for nsig in range(1, 18):
            e10 = layout - 4
            if layout == 20:  # scientific
                frac = [_DOT, *range(_D + 1, _D + nsig)] if nsig > 1 else []
                p = [_D, *frac, _E, *range(_EXP, _EXP + 4)]
            elif e10 >= 0:
                last = max(nsig, e10 + 2)
                p = [*range(_D, _D + e10 + 1), _DOT,
                     *range(_D + e10 + 1, _D + last)]
            else:
                p = [0, _DOT, *[0] * (-e10 - 1), *range(_D, _D + nsig)]
            pats.append([_SIGN, *p] + [_NUL] * (WIDTH - 1 - len(p)))
    return np.array(pats, np.intp)


@cache
def _exponents():
    """Source word 4 for decimal exponents -330 ... 330."""
    words = []
    for e in range(-330, 331):
        h, t, u = abs(e) // 100, abs(e) // 10 % 10, abs(e) % 10
        b = [ord("-" if e < 0 else "+"), 48 + h if h else 0, 48 + t, 48 + u]
        words.append(int.from_bytes(bytes(b + [0] * 4), "little"))
    return np.array(words, np.uint64)


@cache
def _heads():
    """Source word 0 for c's leading two digits 10 ... 99, and how many
    significant digits they hold (1 when the second is a zero)."""
    text = [b"000000%02d" % h for h in range(100)]
    words = np.frombuffer(b"".join(text), "<u8").astype(np.uint64)
    return words, np.array([h % 10 != 0 for h in range(100)], np.int64) + 1


_WORD3 = int.from_bytes(b"\0.e", "little")
_ASCII0 = 0x3030303030303030


class Workspace:
    """Scratch buffers for `float_cells`, for passes of `size` cells (at
    most 8192). A fresh array faults its pages in on first use, which
    costs more than the arithmetic on it, so a caller that formats many
    blocks passes one Workspace to every call; it must not be shared
    between threads."""

    def __init__(self, size=_CHUNK):
        self.size = size = max(min(size, _CHUNK), 1)
        self.f = np.empty((9, size))
        self.i = np.empty((4, size), np.int64)
        self.b = np.empty((4, size), bool)
        self.src = np.empty((5, size), np.uint64)
        gather = min(size, _GATHER)
        self.idx = np.empty((gather, WIDTH), np.intp)
        # The patterns as flat indices into src, and each cell's offset.
        word, byte = divmod(_patterns(), 8)
        self.patterns = 8 * size * word + byte
        self.rows = np.repeat(8 * np.arange(gather), WIDTH).reshape(
            gather, WIDTH)


def _swar(v, a, t):
    """v: uint64 values below 10^8 -> their 8 digits (0-9), one per byte,
    the leading digit in byte 0; a and t are scratch of v's shape."""
    np.floor_divide(v, 10000, out=a)
    np.multiply(a, 10000, out=t)
    v -= t
    v <<= 32
    v |= a
    for mul, shift, mask, base, width in (
            (5243, 19, 0x0000007F0000007F, 100, 16),
            (103, 10, 0x000F000F000F000F, 10, 8)):
        np.multiply(v, mul, out=a)
        a >>= shift
        a &= mask
        np.multiply(a, base, out=t)
        v -= t
        v <<= width
        v |= a


def _chunk(x, cells, w):
    """cells[k] = the NUL-padded bytes of repr(x[k]), for len(x) <= w.size."""
    n = x.size
    hi, lo, hh, hl, e0_of = _by_exponent()
    ph, pl, phh, phl, mf, ml, err, half, t = w.f[:, :n]
    be, m, e0, r = w.i[:, :n]
    fallback, flag, wide, unique = w.b[:, :n]
    bits = x.view(np.uint64)
    np.right_shift(bits, 52, out=be.view(np.uint64))
    be &= 0x7FF
    hi.take(be, out=ph, mode="clip")
    lo.take(be, out=pl, mode="clip")
    hh.take(be, out=phh, mode="clip")
    hl.take(be, out=phl, mode="clip")
    e0_of.take(be, out=e0, mode="clip")
    mu = m.view(np.uint64)
    np.bitwise_and(bits, (1 << 52) - 1, out=mu)
    # A power of two above the smallest normal: the float below it is
    # half as far away as the one above.
    np.equal(m, 0, out=flag)
    flag &= be > 1
    np.multiply(ph, 0.5, out=half)  # half an ulp of x, in units of X
    mu |= 1 << 52
    np.copyto(mf, m)
    pl *= mf
    np.bitwise_and(m, (1 << 27) - 1, out=r)
    np.copyto(ml, r)
    # Dekker: X = p + err exactly (p = m ph rounded), up to the table's
    # own rounding; p is a whole number, mh + ml = m in 26 + 27 bits.
    np.multiply(mf, ph, out=t)
    mf -= ml  # mh
    np.multiply(mf, phh, out=err)
    err -= t
    phh *= ml
    mf *= phl
    err += mf
    err += phh
    phl *= ml
    err += phl
    err += pl
    # Relative to p's multiple of 100: X = 100 r + xr, xr in (-40, 140).
    np.copyto(m, t, casting="unsafe")
    np.floor_divide(m, 100, out=r)
    np.multiply(r, -100, out=be)
    m += be
    xr = ph
    np.copyto(xr, m)
    xr += err
    # The integers in (a, b] read back as x. Both ends stay off whole
    # numbers by the margin, where the ends' own inclusion would matter.
    b, a = mf, ml
    np.add(xr, half, out=t)
    np.floor(t, out=b)
    t -= b
    t -= 0.5
    np.abs(t, out=t)
    np.greater(t, 0.5 - _MARGIN, out=fallback)
    np.multiply(half, 0.5, out=half, where=flag)  # a quarter below 2^k
    np.subtract(xr, half, out=t)
    np.ceil(t, out=a)
    t -= a
    t += 0.5
    np.abs(t, out=t)
    fallback |= t > 0.5 - _MARGIN
    a -= 1
    # A range of ten integers or more holds a multiple of 10 and at
    # most one of 100; a narrower one at most one multiple of 10. That
    # one, if any, has the most trailing zeros; else the multiple of
    # step nearest X.
    np.subtract(b, a, out=t)
    np.greater_equal(t, 10, out=wide)
    step = half
    np.multiply(wide, 9.0, out=step)
    step += 1
    top = err
    np.multiply(step, 10, out=t)
    np.divide(b, t, out=top)
    np.floor(top, out=top)
    top *= t
    np.greater(top, a, out=unique)
    near = pl
    np.divide(xr, step, out=t)
    t += 0.5
    np.floor(t, out=near)
    t -= near
    t -= 0.5
    np.abs(t, out=t)
    np.greater(t, 0.5 - _MARGIN * 0.1, out=flag)  # 1e-10 step, a tie
    flag &= ~unique
    fallback |= flag
    near *= step
    np.subtract(near, step, out=near, where=near > b)
    np.add(near, step, out=near, where=near <= a)
    np.copyto(near, top, where=unique)
    c = m
    np.copyto(c, near, casting="unsafe")
    r *= 100
    c += r
    np.greater_equal(c, 10 ** 17, out=flag)
    e0 += flag  # now the decimal exponent of x
    np.multiply(c, 10, out=c, where=~flag)  # 18 digits, the first nonzero
    cu = c.view(np.uint64)
    src = w.src[:, :n]
    head = be.view(np.uint64)
    np.floor_divide(cu, 10 ** 16, out=head)
    words, nsig_head = _heads()
    words.take(be, out=src[0], mode="clip")
    v = src[1:3]
    np.multiply(head, 10 ** 16, out=v[0])
    cu -= v[0]
    np.floor_divide(cu, 10 ** 8, out=v[0])
    np.multiply(v[0], 10 ** 8, out=v[1])
    np.subtract(cu, v[1], out=v[1])
    scratch = w.f[:, :n].view(np.uint64)
    sa, st = scratch[0:2], scratch[2:4]
    _swar(v, sa, st)
    # Significant digits: past the last nonzero byte of words 1 and 2,
    # from its place in the word (the float's exponent; a zero word
    # gives a large negative count).
    fw = w.f[4:6, :n]
    np.copyto(fw, v)
    sa[...] = fw.view(np.uint64)
    sa >>= 52
    nsig = sa.view(np.int64)
    nsig -= 1023
    nsig >>= 3
    nsig[0] += 3
    nsig[1] += 11
    np.maximum(nsig[0], nsig[1], out=r)
    nsig_head.take(be, out=m, mode="clip")
    np.maximum(r, m, out=r)
    v += _ASCII0
    np.right_shift(bits, 63, out=src[3])
    src[3] *= ord("-")
    src[3] |= _WORD3
    e0 += 330
    _exponents().take(e0, out=src[4], mode="clip")
    # Pattern row: 17 (layout) + digits - 1, where layout is e10 + 4 for
    # e10 in [-4, 15] and 20 (scientific) otherwise.
    e0 -= 326
    layout = e0.view(np.uint64)
    np.minimum(layout, 20, out=layout)
    e0 *= 17
    e0 += r
    e0 -= 1
    if sys.byteorder == "big":
        src.byteswap(inplace=True)  # the patterns read little-endian bytes
    source = w.src.reshape(-1).view(np.uint8)
    for start in range(0, n, len(w.idx)):
        stop = min(start + len(w.idx), n)
        idx = w.idx[:stop - start]
        w.patterns.take(e0[start:stop], axis=0, out=idx, mode="clip")
        idx += w.rows[:stop - start]
        source[8 * start:].take(idx, out=cells[start:stop], mode="clip")
    np.right_shift(bits, 52, out=mu)
    mu &= 0x7FF
    mu -= 1
    fallback |= mu >= 2046  # zero, subnormal, inf, nan
    for k in np.flatnonzero(fallback).tolist():
        text = repr(float(x[k])).encode()
        cells[k] = 0
        cells[k, :len(text)] = np.frombuffer(text, np.uint8)


def float_cells(x, work=None) -> np.ndarray:
    """(x.size, WIDTH) uint8; dropping the NULs of row k gives repr(x[k]).

    work is a Workspace to reuse, or None for one of x's size.
    """
    x = np.ascontiguousarray(x, np.float64).reshape(-1)
    cells = np.empty((x.size, WIDTH), np.uint8)
    w = Workspace(x.size) if work is None else work
    for lo in range(0, x.size, w.size):
        _chunk(x[lo:lo + w.size], cells[lo:lo + w.size], w)
    return cells


def cell_matrix(column) -> np.ndarray:
    """(size, width) uint8 cells of a 1-D column, NULs to be dropped:
    floats as repr, flags as 1/0, anything else as its str."""
    column = np.asarray(column)
    if column.dtype.kind == "f":
        return float_cells(column)
    if column.dtype == bool:
        return (column.astype(np.uint8) + ord("0")).reshape(-1, 1)
    text = np.ascontiguousarray(column.astype("S"))
    return text.view(np.uint8).reshape(column.size, text.itemsize)
