"""The "%.17g" text of whole blocks of floats, for every file the package
writes: the CSV files and the recorded flow files.

Each float becomes a 32-byte cell, four little-endian uint64 words:
  byte 0       sign ("-" or NUL)
  bytes 1-5    "0." and up to three zeros, for -4 <= exponent < 0
  bytes 8-25   the 17 significant digits, "." inserted at the point slot
  bytes 26-30  "e+05" ... "e-308" in exponent form
  byte 31      ","
Every unused byte is NUL, and the text is the cells' bytes with the NULs
dropped, so a row is a run of cells with no per-value Python work.
"""

from functools import lru_cache
from types import SimpleNamespace

import numpy as np

__all__ = []

# |x| inside this range has a normal scaled significand and Dekker
# product; outside it (and 0, inf, NaN) the cell takes another path
_G17_MIN, _G17_MAX = 1e-280, 1e280
_E_LO = -281                    # least floor(log10|x|) inside the range
_X_OFF = 330                    # offset of the per-exponent tables
# |frac - 1/2| below this leaves the rounding of the 17th digit open; the
# computed significand is within 1e-14 of the exact one
_TIE_MARGIN = 1e-9
# values formatted per call: bounds the writer's temporary memory (about
# 120 bytes per value, 0.5 MB a block) and keeps the kernel's arrays in
# cache; half of it was 18% slower, twice it no faster
_BLOCK_VALUES = 4096


def _le_word(text: bytes) -> int:
    return int.from_bytes(text.ljust(8, b"\0"), "little")


@lru_cache(maxsize=None)
def _g17_tables() -> SimpleNamespace:
    """Lookup tables of the "%.17g" kernel, built on first use:

    h, h_hi, h_lo, tail  10^(16-E) rounded, its high 26 bits (Dekker's
                         split), h - h_hi and 10^(16-E) - h, by E - _E_LO
    ascii4               4-digit group -> its ASCII bytes
    ends                 (4, 10000): end of group i's significant digits
                         in the 17-digit string, 0 for "0000"
    lead, exp            decimal exponent X -> word 0 (the "0.000"
                         prefix) and the bits of word 3 above the digits
                         ("e+XX" and ","), by X + _X_OFF
    point, whole         X -> the point slot (18: none, for the "0.000"
                         forms) and the digits kept before it
    keep, move, dot      (3, 19 * 19), by digit word and by point slot *
                         19 + cut: the bytes kept in place, the bytes
                         taken one slot on, and the "." itself

    Built with the kernel's own numpy loops or with Python objects: a
    loop only this build used would add its code pages to the resident
    set of every run.
    """
    h, tail = [], []
    for E in range(_E_LO, -_E_LO):
        k = 16 - E
        if k >= 0:       # correctly rounded int -> float conversions
            h.append(float(10 ** k))
            tail.append(float(10 ** k - int(h[-1])))
        else:            # correctly rounded int / int divisions
            d = 10 ** -k
            h.append(1 / d)
            a, b = h[-1].as_integer_ratio()
            tail.append((b - a * d) / (b * d))
    h = np.array(h)
    c = h * 134217729.0                  # 2^27 + 1
    h_hi = c - (c - h)
    q = np.arange(10000)
    ascii4 = np.zeros_like(q)
    zeros = np.zeros_like(q)             # trailing zeros of a group
    for unit in (1, 10, 100, 1000):
        ascii4 *= 256
        ascii4 += q // unit % 10 + 48
        zeros += q % (10 * unit) == 0
    ends = np.empty((4, 10000), np.uint8)
    for i in range(4):
        np.multiply(q != 0, 5 + 4 * i - zeros, out=ends[i], casting="unsafe")
    lead, exp, point, whole = [], [], [], []
    for x in range(-_X_OFF, _X_OFF + 1):
        fixed = -4 <= x < 17             # %g's choice at precision 17
        lead.append(_le_word(b"\0" + b"0.000"[:1 - x]) if x < 0 and fixed
                    else 0)
        exp.append(0x2C << 56 | (0 if fixed
                                 else _le_word(b"\0\0" + b"e%+03d" % x)))
        point.append(x + 1 if 0 <= x < 17 else 18 if fixed else 1)
        whole.append(0 if point[-1] == 18 else point[-1])
    keep, move, dot = [], [], []
    for w in range(3):
        below = [sum(0xFF << 8 * j for j in range(8) if 8 * w + j < slot)
                 for slot in range(19)]
        above = [below[slot + 1] ^ 0xFFFFFFFFFFFFFFFF for slot in range(18)]
        above.append(0)
        keep.append([below[P] & below[c] for P in range(19)
                     for c in range(19)])
        move.append([above[P] & below[c] for P in range(19)
                     for c in range(19)])
        dot.append([0x2E2E2E2E2E2E2E2E & ~(below[P] | above[P]) & below[c]
                    for P in range(19) for c in range(19)])
    tables = SimpleNamespace(
        h=h, h_hi=h_hi, h_lo=h - h_hi, tail=np.array(tail),
        ascii4=ascii4.astype(np.uint64), ends=ends,
        lead=np.array(lead, np.uint64), exp=np.array(exp, np.uint64),
        point=np.array(point), whole=np.array(whole),
        keep=np.array(keep, np.uint64), move=np.array(move, np.uint64),
        dot=np.array(dot, np.uint64))
    for table in vars(tables).values():
        table.flags.writeable = False
    return tables


_U8, _U24, _U40, _U56 = (np.uint64(s) for s in (8, 24, 40, 56))


def _decimal_exponent(ax) -> np.ndarray:
    """floor(log10(ax)) - _E_LO, for ax in [1e-280, 1e280]: an estimate,
    which can be one off next to a power of ten."""
    E = np.log10(ax)
    E -= _E_LO
    return E.astype(np.intp)             # a floor: E - _E_LO is positive


def _g17_cells(values) -> np.ndarray:
    """The text of ``"%.17g" % x`` for each x of ``values``, as 32-byte
    cells: a ``(values.size, 4)`` uint64 array, layout above.

    For |x| in [1e-280, 1e280] the kernel scales x by 10^(16-E), with E
    from log10, to a 17-digit significand ``p + e``: ``p`` rounded, ``e``
    its error from Dekker's exact product and the table's low part
    (Dekker, Numer. Math. 18, 1971).  Rounding that to an integer gives
    the digits unless ``p + e`` is within ``_TIE_MARGIN`` of a half
    (exact ties included) or does not round into [1e16, 1e17) (E off by
    one).  Those values, NaN, +-inf and |x| outside the range go through
    Python's own ``%``; zero is formatted here.
    """
    tb = _g17_tables()
    v = np.asarray(values, dtype=np.float64).ravel()
    ax = np.abs(v)
    sure = (ax >= _G17_MIN) & (ax <= _G17_MAX)
    zero = ax == 0.0
    ax[~sure] = 1.0                      # placeholder, overwritten below
    sure |= zero
    idx = _decimal_exponent(ax)
    # s = ax * 10^(16-E) = p + e, exact up to about 5e-15
    h = tb.h.take(idx)
    p = ax * h
    split = ax * 134217729.0
    a_hi = split - ax
    np.subtract(split, a_hi, out=a_hi)
    a_lo = np.subtract(ax, a_hi, out=split)
    h_hi = tb.h_hi.take(idx)
    h_lo = tb.h_lo.take(idx)
    e = a_hi * h_hi
    e -= p
    a_hi *= h_lo
    e += a_hi
    h_hi *= a_lo
    e += h_hi
    a_lo *= h_lo
    e += a_lo
    ax *= tb.tail.take(idx)
    e += ax
    del a_hi, a_lo, h_hi, split
    r = e + 0.5
    np.floor(r, out=r)
    off = np.subtract(e, r, out=h)
    np.abs(off, out=off)
    sure &= off < 0.5 - _TIE_MARGIN
    low = np.subtract(p, 1e16, out=h_lo)
    low += e
    sure &= low >= 0.0
    del e, off, low, h, h_lo, ax
    N = p.astype(np.int64)
    N += r.astype(np.int64)
    del p, r
    sure &= N < 10 ** 17
    N[zero] = 0
    X = idx
    X += _E_LO + _X_OFF
    del zero
    # the 17 digits: d0, then four 4-digit groups g0..g3
    hi = N // 100000000
    lo = N - hi * 100000000
    d0 = hi // 100000000
    hi -= d0 * 100000000
    g0 = hi // 10000
    g1 = hi - g0 * 10000
    g2 = lo // 10000
    g3 = lo - g2 * 10000
    del N, hi, lo
    ends = tb.ends
    last = np.maximum(ends[0].take(g0), ends[1].take(g1))
    np.maximum(last, ends[2].take(g2), out=last)
    np.maximum(last, ends[3].take(g3), out=last)
    np.maximum(last, 1, out=last)        # digits to keep: at least one
    a1 = tb.ascii4.take(g1)
    a3 = tb.ascii4.take(g3)
    s0 = d0.astype(np.uint64)
    s0 += 48
    s0 |= tb.ascii4.take(g0) << _U8
    s0 |= a1 << _U40
    a1 >>= _U24
    a1 |= tb.ascii4.take(g2) << _U8
    a1 |= a3 << _U40
    a3 >>= _U24
    digits = (s0, a1, a3)                # 17 ASCII digits in three words
    del g0, g1, g2, g3, d0
    # insert the point at slot P and drop digits from slot `cut` on
    P = tb.point.take(X)
    last = last.astype(np.intp)
    cut = last + (last > P)
    np.maximum(cut, tb.whole.take(X), out=cut)
    P *= 19
    cut += P                             # index of (P, cut) in the tables
    del last, P
    cells = np.empty((v.size, 4), np.uint64)
    prev = None
    for w, word in enumerate(digits):
        text = tb.keep[w].take(cut)
        text &= word
        shifted = word << _U8            # the digits one slot on
        if prev is not None:
            shifted |= prev >> _U56
        prev = word
        shifted &= tb.move[w].take(cut)
        text |= shifted
        text |= tb.dot[w].take(cut)
        if w == 2:                       # with the exponent and ","
            text |= tb.exp.take(X)
        cells[:, w + 1] = text
    del digits, s0, a1, a3, prev, word, text, shifted, cut
    w0 = tb.lead.take(X)
    w0 |= np.signbit(v) * np.uint64(45)  # "-"
    cells[:, 0] = w0
    _g17_fallback(cells, v, np.flatnonzero(~sure))
    return cells


def _g17_fallback(cells, values, where) -> None:
    """Python's own "%.17g" into the cells at indices ``where``."""
    for i in where.tolist():
        text = ("%.17g" % values[i]).encode()
        cells[i] = np.frombuffer(text.rjust(31, b"\0") + b",", np.uint64)


def _words(texts) -> np.ndarray:
    """Byte strings as rows of uint64 words, NUL-padded on the left."""
    width = -(-max(map(len, texts)) // 8) * 8
    return np.frombuffer(b"".join(t.rjust(width, b"\0") for t in texts),
                         np.uint64).reshape(len(texts), -1)


def _rows_text(rows: np.ndarray) -> bytes:
    """CSV text of rows of cells that each end in ",": the last comma of a
    row becomes its newline, and the NUL padding is dropped."""
    rows.view(np.uint8)[..., -1] = ord("\n")
    return rows.tobytes().translate(None, b"\0")


def _instant_blocks(count: int, values_per_instant: int):
    step = max(1, _BLOCK_VALUES // values_per_instant)
    return (slice(k, k + step) for k in range(0, count, step))
