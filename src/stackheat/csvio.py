"""CSV emission: RFC-4180-style, LF line endings, 17 significant digits.

``write_csv`` takes two kinds of rows and prints one format.  Rows of mixed
type (the summaries, ``verdicts.csv``, ``cg_trace.csv``, the probe tables and
the manifest) go through ``fmt`` value by value and then ``csv.writer``; they
are the reference.  A 2-D float ndarray (the fields, the traces,
``weights.csv`` and the leader) is formatted as a whole by ``_format_rows``,
which returns the bytes the per-value path prints: a number's ``%.17g`` text
holds no comma, quote or line break, so ``csv.writer`` would quote none of
them, and the digits are the ones Python's correctly rounded float-to-string
routine prints.

``_format_rows`` computes each value's 17-digit significand at once for the
whole array.  The decimal exponent e comes from ``log10``; |x| * 10**(16-e)
is formed with Dekker's exact product (Veltkamp split) against a
double-double table of the powers of ten, so the scaled value is known to
about 1e-14 absolute, and rounding it half-even gives the correctly rounded
significand.  e is checked on the unrounded scaled value (one too high when
it lies below 10**16, one too low at 10**17 or above) and only then rounded.
``%.17g``'s layout (fixed notation for -4 <= e < 17, trailing zeros dropped)
is filled into fixed byte slots per value, and the unused slots are deleted.
Only these values go through ``fmt`` instead: nan and the infinities, |x| at
or outside (1e-280, 1e290) except 0 (the table's safe range; it holds
subnormals and ``weights.csv``'s 1e300 entries), and values whose scaled
fraction lies within 1e-9 of one half, where the error bound could flip the
rounding.  ``tests/test_csvio.py`` holds the two paths to the same bytes.

Each writer returns the sha256 and the size of the bytes it wrote, and
``write_manifest`` lists what its caller collected from those returns: the
manifest attests to the bytes each command wrote, so a file changed
afterwards no longer matches its row.  The writers make no directory.  The
hash of a file as read back, the tests' reference for those rows, is
``tests/_instruments.sha256_of``.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import os

import numpy as np

from .grids import SpaceTimeField


def fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


# --- the ndarray formatter ------------------------------------------------------

# |x| formatted in vector code: the scale 10**(16-e) stays in the table and
# every partial product of the Dekker product stays a normal double
_LOW, _HIGH = 1e-280, 1e290
_S_MIN, _S_MAX = -276, 299          # the table's exponents s of 10**s
_SPLIT = 134217729.0                # 2**27 + 1, Veltkamp's splitter
_TIE = 1e-9                         # fallback margin around a rounding tie
_CHUNK = 1 << 13                    # values per block: its scratch stays in cache
# A value's text is laid out in 48 byte slots, six little-endian uint64
# words: the sign, the lead "0.000" of -4 <= e < 0, then 17 digits, each
# followed by a slot for the point, "e+dd[d]" and the separator.  Slots a
# value does not use hold NUL and are deleted.  A value's kind is its sign,
# its class (e + 4 for the fixed notation's -4 <= e < 17, 21 for scientific)
# and its count of kept digits; the kind's template holds the constant bytes
# and 0xff in each digit slot it shows, and it is ANDed with the words of the
# digits (one per 4-digit group) and of the exponent.
_WIDTH = 48
_WORD = np.dtype("<u8")              # little-endian on any host: byte k of a word is slot k
_CLASSES, _KEPT = 22, 17
_E_MIN, _E_MAX = -400, 400          # exponents the exponent words cover


def _templates() -> np.ndarray:
    """The (2 * _CLASSES * _KEPT, 6) uint64 templates, indexed by sign, class and kept digits."""
    sign, cls, kept = (g.ravel() for g in np.meshgrid(
        np.arange(2), np.arange(_CLASSES), np.arange(1, _KEPT + 1), indexing="ij"))
    e = cls - 4
    whole = (cls < 21) & (e >= 0)
    lead = e < 0
    shown = np.where(whole, np.maximum(kept, e + 1), kept)
    point = np.where(whole, e, 0)
    dot = (kept > point + 1) & ~lead
    slots = np.arange(_KEPT)
    out = np.zeros((len(cls), _WIDTH), np.uint8)
    out[:, 0] = 45 * sign                                                    # "-"
    out[:, 1] = 48 * lead                                                    # "0."
    out[:, 2] = 46 * lead
    out[:, 3:6] = 48 * (lead[:, None] & (e[:, None] <= np.array([-2, -3, -4])))
    out[:, 6:40:2] = 255 * (slots < shown[:, None])
    out[:, 7:41:2] = 46 * (dot[:, None] & (slots == point[:, None]))         # "."
    out[:, 40:47] = 255
    out[:, 47] = 44                                                          # ","
    return out.view(_WORD)


@functools.cache
def _tables():
    """10**s as hi + lo (hi split as hh + hl) for s in [_S_MIN, _S_MAX]; the lookup words.

    hi is 10**s correctly rounded and lo the correctly rounded remainder,
    both from exact integer arithmetic (int/int division rounds correctly).
    For a 4-digit group c (0 <= c < 10000) ``quads[c]`` is its digits, each
    followed by 0xff, and ``lengths[i, c]`` the digits kept up to its last
    nonzero one when it is group i + 1 (0 for c = 0); ``firsts[d]`` is word 0
    for the first digit d, ``exponents[e - _E_MIN]`` word 5 for exponent e.
    Built on first use, in about 3 ms.
    """
    hi, lo = [], []
    for s in range(_S_MIN, _S_MAX + 1):
        if s >= 0:
            p = 10 ** s
            hi.append(float(p))
            lo.append(float(p - int(hi[-1])))
        else:
            d = 10 ** -s
            hi.append(1 / d)
            num, den = hi[-1].as_integer_ratio()
            lo.append((den - num * d) / (den * d))
    hi, lo = np.array(hi), np.array(lo)
    c = hi * _SPLIT
    hh = c - (c - hi)
    digits = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    quads = np.full((10000, 8), 255, np.uint8)
    quads[:, 0::2] = digits + 48
    last = 4 - np.argmax(digits[:, ::-1] != 0, axis=1)
    lengths = np.where(digits.any(axis=1), last + np.array([1, 5, 9, 13])[:, None], 0)
    firsts = np.full((10, 8), 255, np.uint8)
    firsts[:, 6] = np.arange(10) + 48
    e = range(_E_MIN, _E_MAX + 1)
    text = np.array([b"" if -4 <= k < 17 else b"e%+03d" % k for k in e], dtype="S7")
    exponents = np.full((len(e), 8), 255, np.uint8)
    exponents[:, :7] = text.view(np.uint8).reshape(len(e), 7)
    return (hh, hi - hh, hi, lo, quads.view(_WORD).ravel(), lengths.ravel(),
            firsts.view(_WORD).ravel(), exponents.view(_WORD).ravel(), _templates())


def _scaled(ax: np.ndarray, s: np.ndarray):
    """Floor and fraction of ax * 10**s (below 2e18) to about 1e-14 absolute.

    Dekker's TwoProduct gives ax * hi = p + err exactly; the tail
    err + ax * lo is small, and p is a whole number from 2**53 on, so the
    floor is p's whole part plus the tail's.
    """
    hh, hl, hi, lo = _tables()[:4]
    k = s - _S_MIN
    p = ax * hi.take(k)
    c = ax * _SPLIT
    ah = c - (c - ax)
    al = ax - ah
    hk, lk = hh.take(k), hl.take(k)
    err = ((ah * hk - p) + ah * lk + al * hk) + al * lk
    whole = np.floor(p)
    r = (p - whole) + (err + ax * lo.take(k))
    up = np.floor(r)
    return whole.astype(np.int64) + up.astype(np.int64), r - up


def _significands(ax: np.ndarray):
    """(17-digit significand, exponent, exact) of each positive ``ax`` in the safe range.

    ``exact`` is False where the fraction lies within ``_TIE`` of one half
    (or the scaled value fell outside [10**16, 10**17] after the exponent's
    correction, which the error bound rules out), so that the value goes
    through ``fmt``.
    """
    e = np.floor(np.log10(ax)).astype(np.int64)
    whole, frac = _scaled(ax, 16 - e)
    # log10's floor can be one off near a power of ten: test the unrounded floor
    off = (whole >= 10 ** 17).astype(np.int64) - (whole < 10 ** 16)
    redo = np.flatnonzero(off)
    if redo.size:
        e[redo] += off[redo]
        whole[redo], frac[redo] = _scaled(ax[redo], 16 - e[redo])
    m = whole + (frac > 0.5)
    # a redo from just above 10**16 may land on 10**17 itself: it rounds to
    # 10**17, which carries like any other
    exact = (np.abs(frac - 0.5) >= _TIE) & (whole >= 10 ** 16) & (m <= 10 ** 17)
    carry = m == 10 ** 17
    m[carry] = 10 ** 16
    e[carry] += 1
    return m, e, exact


def _format_block(x: np.ndarray, ncols: int) -> bytes:
    """``x`` (whole rows of ``ncols`` values, flat) as ``%.17g`` text, comma- and LF-separated."""
    quads, lengths, firsts, exponents, templates = _tables()[4:]
    n = x.size
    ax = np.abs(x)
    in_range = (ax > _LOW) & (ax < _HIGH)                # nan compares False
    fast = np.flatnonzero(in_range)
    m = np.zeros(n, np.int64)        # a zero prints with significand 0 and e = 0
    e = np.zeros(n, np.intp)
    m[fast], e[fast], exact = _significands(ax[fast])
    slow = ~in_range & (ax != 0.0)
    slow[fast[~exact]] = True

    # m = g0 10**16 + g1 10**12 + g2 10**8 + g3 10**4 + g4
    top = m // 10 ** 8
    low = m - top * 10 ** 8
    groups = np.empty((5, n), np.intp)
    groups[0] = top // 10 ** 8
    rest = top - groups[0] * 10 ** 8
    groups[1] = rest // 10 ** 4
    groups[2] = rest - groups[1] * 10 ** 4
    groups[3] = low // 10 ** 4
    groups[4] = low - groups[3] * 10 ** 4
    # kept digits: up to the last nonzero one (one for 0)
    tails = groups[1:] + np.arange(0, 40000, 10000)[:, None]
    kept = np.maximum(lengths.take(tails).max(axis=0), 1)
    cls = np.where((e >= -4) & (e < 17), e + 4, 21)
    out = templates.take((np.signbit(x) * _CLASSES + cls) * _KEPT + kept - 1, axis=0)
    out[:, 0] &= firsts.take(groups[0])
    out[:, 1:5] &= quads.take(groups[1:]).T
    out[:, 5] &= exponents.take(e - _E_MIN)
    text = out.view(np.uint8)
    text[ncols - 1::ncols, -1] = 10                                          # "\n"
    slow = np.flatnonzero(slow)
    if slow.size:
        fallback = np.array([fmt(v) for v in x[slow].tolist()], dtype="S40")
        text[slow, :40] = fallback.view(np.uint8).reshape(slow.size, 40)
        text[slow, 40:47] = 0
    return text.tobytes().translate(None, b"\0")


def _format_rows(rows: np.ndarray) -> bytes:
    """The rows of a 2-D array as ``%.17g`` values, comma-separated, one LF-ended line each."""
    nrows, ncols = rows.shape
    if not ncols:
        return b"\n" * nrows
    x = np.ascontiguousarray(rows, dtype=np.float64).ravel()
    step = max(1, _CHUNK // ncols) * ncols
    return b"".join(_format_block(x[i:i + step], ncols) for i in range(0, x.size, step))


# --- files ------------------------------------------------------------------------

def write_csv(path: str, header, rows) -> tuple:
    """Header row and data rows; (sha256, size) of the bytes written.

    ``rows`` is a list of rows or a 2-D float array.
    """
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    if isinstance(rows, np.ndarray):
        data = text.getvalue().encode("utf-8") + _format_rows(rows)
    else:
        writer.writerows([fmt(v) for v in row] for row in rows)
        data = text.getvalue().encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest(), len(data)


def write_field_csv(path: str, field: SpaceTimeField, name: str = "u") -> tuple:
    """One row per time level, one column per node (units: state values); as ``write_csv``."""
    xs = field.grid.nodes()
    header = ["t [time]"] + [f"{name}(x={x:.8g}) [state]" for x in xs]
    return write_csv(path, header, np.column_stack([field.tgrid.times(), field.values]))


def write_trace_csv(path: str, tgrid, values, name: str = "v") -> tuple:
    header = ["t [time]", f"{name} [control]"]
    return write_csv(path, header, np.column_stack([tgrid.times(), values]))


def write_manifest(out_dir: str, entries) -> str:
    """``manifest.csv`` of the (file, sha256, bytes) ``entries``, sorted by file; its path."""
    path = os.path.join(out_dir, "manifest.csv")
    write_csv(path, ["file", "sha256", "bytes"], sorted(entries))
    return path
