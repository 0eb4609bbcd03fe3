"""The one writer of every CSV and .dat file.

Every float is written as the bytes of C's ``%.17g``, so it reads back as the
same double, and the same double prints the same text in every file of a
run: x and y of ``trajectory.csv`` and ``plot_xy.dat``, for example, are
formatted once by :func:`formatted` and written to both.

One NumPy kernel, :func:`_text`, makes that text for :func:`formatted` and
:func:`write_table`; its bytes equal ``b"%.17g" % x`` for every double x.
For 2**-498 <= |x| < 2**498, about 1e-150 to 1e150:

- The decimal exponent E = floor(log10 |x|) is read from the binary exponent
  and fixed by one comparison with the least double >= 10**(E + 1): exact.
- y = |x| 10**(16 - E), in [1e16, 1e17), is formed as a sum hi + lo of two
  doubles.  The power is stored as hi + lo to 2**-106, from Python integers;
  Dekker's product makes |x| times its hi exact, and the rest adds two
  roundings.  So y is off by less than 2**-47 in units of its 17th digit.
- hi >= 2**53 is an even integer, and D = hi + rint(lo) is y rounded to 17
  digits whenever the remainder lo - rint(lo) is more than 2**-20 from a
  half: the exact remainder, within 2**-47 of it, rounds the same way.  A D
  of 10**17 carries into E.
- The layout is that of %g: the digits with a point when -4 <= E < 17
  ("d.ddd", "0.000ddd"), else "d.ddde+XX", trailing zeros dropped.  Tables
  indexed by E and the count of kept digits hold its masks and literal bytes.

The rest is written by ``b"%.17g" % x`` itself: values whose remainder is
in the tie window (every exact 18-digit tie, which %g rounds half to even),
values outside that range, nan and the infinities.  The kernel writes zero
as "0" or "-0".

The kernel is elementwise over a block of ``_BLOCK`` = 2048 values: its
temporaries take about 130 bytes a value, 270 KB a block, and the fixed
cost of its 90 or so NumPy operations is spread over many values.
:func:`write_table` runs it on the float columns of a block of rows, lays
each row out as 32-byte cells (the text, NUL padding, then the separator)
and writes the block through one byte mask that drops the NULs.

The words are native ``uint64`` read as little-endian bytes (byte 0 of a
text is the low byte of its first word), so the module refuses to import on
a big-endian host rather than write scrambled text.
"""

from __future__ import annotations

import sys

import numpy as np

if sys.byteorder != "little":
    raise ImportError("normshift.tables lays text out in little-endian words")

_BLOCK = 2048  # values per kernel call
_U, _I = np.uint64, np.int64


def _double_double(e: int) -> tuple[float, float]:
    """10**e as hi + lo, each correctly rounded."""
    num, den = (10 ** e, 1) if e >= 0 else (1, 10 ** -e)
    hi = num / den
    a, b = hi.as_integer_ratio()
    return hi, (num * b - a * den) / (den * b)


def _words(strings) -> np.ndarray:
    """Byte strings of at most 24 bytes as (3, n) little-endian words."""
    return np.frombuffer(b"".join(s.ljust(24, b"\0") for s in strings), _U).reshape(-1, 3).T


def _shifts(byte):
    """The left shifts that move byte 0 of a word to ``byte`` of three words."""
    return 8 * np.asarray(byte) - 64 * np.arange(3).reshape(3, *[1] * np.ndim(byte))


def _below(byte):
    """Three words whose bytes before ``byte`` are 0xff."""
    return (_U(1) << np.clip(_shifts(byte), 0, 64).astype(_U)) - _U(1)


def _at(word, byte):
    """Three words holding ``word`` from ``byte`` on."""
    s = _shifts(byte)
    return (_U(word) << s.astype(_U)) | (_U(word) >> (-s).astype(_U))


# E = floor(log10 |x|) is E_INDEX[binary exponent] + _EMIN, or one more if
# |x| >= NEXT_POWER; |x| outside the fast range maps to E = 0.
_EMIN, _NX, _NK = -150, 302, 18  # E from -150 to 151 (after a carry); 0 to 17 kept digits
_eb = np.arange(2048) - 1023
_FAST = (_eb >= -498) & (_eb < 498)
_E_INDEX = np.where(_FAST, (_eb * 78913 >> 18) - _EMIN, -_EMIN)  # floor(eb log10 2)
_X = np.arange(_NX) + _EMIN
_hi, _lo = np.array([_double_double(e) for e in range(-150, 167)]).T  # 10**-150 .. 10**166
_NEXT_POWER = np.where(_lo > 0, np.nextafter(_hi, np.inf), _hi)[_X + 151]
_hi, _lo = _hi[16 - _X + 150], _lo[16 - _X + 150]  # 10**(16 - E)
_split = _hi * 134217729.0
_split -= _split - _hi
_POWER = np.array([_hi, _split, _hi - _split, _lo])  # hi in two halves, and lo

# Four digits as four ASCII bytes, and how many of them are significant.
_g = np.arange(10_000)
_DIGITS4 = sum((_g // 10 ** (3 - b) % 10 + 48).astype(np.uint32) << np.uint32(8 * b)
               for b in range(4))
_SIG4 = np.where(_g == 0, -99, 4 - (_g % 10 == 0) - (_g % 100 == 0) - (_g % 1000 == 0))
_SIG4 = _SIG4.astype(np.int8)

# The layout of a text by its exponent and kept-digit count: masks of the
# digits before and after the point, by the form of %g (exponential, "0.000d",
# or E + 1 integer digits); and the literal bytes, the point and "e+XX".
_fixed = (_X >= 0) & (_X <= 16)
_MIN_KEEP = np.where(_fixed, _X + 1, 0)  # the integer digits of a fixed text
_FORM = np.where(_fixed, _X + 2, (_X >= -4) & (_X < 0))
_keep = np.arange(_NK)[None, :]
_point = np.array([1, 24, *range(1, 18)])[:, None]
_point = np.where(_keep > _point, _point, 24)
_MASKS = np.concatenate([_below(np.minimum(_point, _keep)),
                         _below(_keep) & ~_below(_point)]).reshape(6, -1)
_point = _point[_FORM]
_suffix = _words([b"e%+03d" % x if x < -4 or x > 16 else b"" for x in _X.tolist()])[0]
_LITERAL = (_at(ord("."), _point) | _at(_suffix[:, None], _keep + (_point < 24))).reshape(3, -1)
_pre = [s + (b"0." + b"0" * (-x - 1) if -4 <= x < 0 else b"")
        for s in (b"", b"-") for x in _X.tolist()]
_PREFIX = np.array([_words(_pre)[0], [8 * len(p) for p in _pre]], _U)  # word, bits
del _eb, _hi, _lo, _split, _g, _fixed, _keep, _point, _suffix, _pre


def _text(x: np.ndarray) -> np.ndarray:
    """The ``%.17g`` text of the 1-D float array ``x``, left-aligned and NUL
    padded, as (3, len(x)) words: word j of a value holds its bytes 8j to 8j+7."""
    a = np.abs(x)
    i = a.view(_I) >> 52
    fast = _FAST.take(i)
    zero = a == 0
    a = np.where(fast, a, 1.0)
    i = _E_INDEX.take(i)
    i += a >= _NEXT_POWER.take(i)
    ph, phh, phl, pl = _POWER.take(i, axis=1)
    ah = a * 134217729.0
    ah -= ah - a
    al = a - ah
    hi = a * ph
    lo = ah * phh - hi  # Dekker's exact a * ph - hi, then a * pl
    lo += ah * phl
    lo += al * phh
    lo += al * phl
    lo += a * pl
    del a, ah, al, ph, phh, phl, pl  # a smaller peak: free what is done with
    d = np.rint(lo)
    slow = np.abs(lo - d) > 0.5 - 2.0 ** -20
    slow |= ~(fast | zero)
    d = hi.astype(_I) + d.astype(_I)
    del lo, hi, fast
    carry = d == 10 ** 17
    d[carry] = 10 ** 16
    i += carry
    d[zero] = 0
    # d's 17 digits: two runs of 8, as four groups of 4, and the last digit
    runs = np.empty((2, len(x)), _I)
    np.floor_divide(d, 10 ** 9, out=runs[0])
    d -= runs[0] * 10 ** 9
    np.floor_divide(d, 10, out=runs[1])
    last = d - runs[1] * 10
    q = runs // 10 ** 4
    r = runs - q * 10 ** 4
    del runs, d
    words = np.empty((3, len(x)), _U)
    np.bitwise_or(_DIGITS4.take(q), np.left_shift(_DIGITS4.take(r), 32, dtype=_U), out=words[:2])
    np.add(last, 48, out=words[2], casting="unsafe")
    keep = np.maximum(_SIG4.take(q), _SIG4.take(r) + 4)
    keep[1] += 8
    del q, r
    keep = np.maximum(keep[0], keep[1], dtype=_I)
    np.maximum(keep, np.where(last, 17, 1), out=keep)
    np.maximum(keep, _MIN_KEEP.take(i), out=keep)
    # the digits after the point move up a byte to make room for it
    low, high = _MASKS.take(_FORM.take(i) * _NK + keep, axis=1).reshape(2, 3, -1)
    high &= words
    words &= low
    words |= _LITERAL.take(i * _NK + keep, axis=1)
    words |= high << _U(8)
    words[1:] |= high[:-1] >> _U(56)
    del low, high, keep
    # then the sign, or "0.000", before them
    prefix, bits = _PREFIX.take(i + _NX * np.signbit(x), axis=1)
    text = words << bits
    text[1:] |= words[:-1] >> (_U(64) - bits)
    text[0] |= prefix
    slow = np.flatnonzero(slow)
    if len(slow):
        text[:, slow] = _words([b"%.17g" % v for v in x[slow].tolist()])
    return text


def formatted(values) -> np.ndarray:
    """The ``%.17g`` text of each value, as ASCII bytes in an array with the
    shape of ``values``, which :func:`write_table` writes verbatim.

    Each value's text takes 24 bytes of the array, not a Python object of
    its own, so a column of text costs three times the memory of its floats
    rather than ten.
    """
    values = np.asarray(values, float)
    flat = values.ravel()
    text = np.empty((len(flat), 3), _U)
    for start in range(0, len(flat), _BLOCK):
        text[start:start + _BLOCK] = _text(flat[start:start + _BLOCK]).T
    return text.view("S24").reshape(values.shape)


def write_table(path, columns, header: str | None = None, sep: str = ",",
                block: int | None = None):
    """One line per row of the equal-length 1-D ``columns``, after ``header``
    if given.  A column holds floats, or their text from :func:`formatted`.
    ``block`` ends every run of that many rows with a blank line (gnuplot's
    block separator)."""
    columns = [c.astype("S24", copy=False) if c.dtype.kind == "S" else np.asarray(c, float)
               for c in map(np.asarray, columns)]
    floats = [j for j, c in enumerate(columns) if c.dtype.kind != "S"]
    n_rows, n_cols = len(columns[0]), len(columns)
    rows = max(1, _BLOCK // max(1, len(floats)))
    cells = np.zeros((rows, n_cols, 4), _U)  # 24 bytes of text, then the separator
    cells[:, :, 3] = int.from_bytes(sep.encode(), "little")
    mask = np.empty(cells.nbytes, bool)
    with open(path, "wb") as fh:
        if header is not None:
            fh.write(header.encode() + b"\n")
        for start in range(0, n_rows, rows):
            stop = min(start + rows, n_rows)
            chunk = cells[:stop - start]
            if floats:
                text = _text(np.concatenate([columns[j][start:stop] for j in floats]))
                for k, j in enumerate(floats):
                    chunk[:, j, :3] = text[:, k * len(chunk):(k + 1) * len(chunk)].T
            for j, column in enumerate(columns):
                if column.dtype.kind == "S":
                    chunk[:, j, :3] = column[start:stop].view(_U).reshape(-1, 3)
            chunk[:, -1, 3] = ord("\n")
            if block:  # a second newline ends a block
                chunk[(np.arange(start + 1, stop + 1) % block) == 0, -1, 3] = 0x0A0A
            flat = chunk.reshape(-1).view(np.uint8)
            fh.write(flat[np.not_equal(flat, 0, out=mask[:len(flat)])])
