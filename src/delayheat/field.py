"""Solution fields on space-time grids, and their serialized forms.

A :class:`SolutionField` either holds its values as arrays (the FD oracle,
:func:`read_field_csv`) or synthesizes them when they are read (the series
solvers, :func:`delayheat.heat_delay.to_field`).  Every reader takes the
values one block of whole time rows at a time (:meth:`SolutionField.blocks`):
:meth:`~SolutionField.write_csv` and :func:`field_difference_report` (one
pass can feed both: :func:`difference_blocks`) hold O(block) cells, never
the (nt x nx) grid, and a synthesized value is
computed as its block is read, so an error of the data on the grid (a
:class:`~delayheat.errors.NumericError` or
:class:`~delayheat.errors.DomainError` from the delayed kind's initial
segment phi) raises from the reader.  ``v`` and ``u`` assemble whole arrays from the same blocks for
callers that want them (energy traces, tests), so in-memory values, CSV
bytes and difference reports agree bit for bit.

CSV schema: header ``x,t,v`` (plus a ``u`` column when a change of variables
was applied and the reduced-frame values are available), rows ordered t-major
then x, floats printed with 17 significant digits (``%.17g``).  The writer
streams the file in blocks of whole time rows, so it never holds the full
text in memory; the blocking does not change the bytes.  It writes to a
temporary file beside the output and renames it over the output once every
block is written, so a failed write leaves no partial file.  The digits are
computed in numpy (:func:`_g17`) and equal Python's ``"%.17g" % x`` byte for
byte; the few values that kernel cannot decide (non-finite, magnitude
outside [1e-270, 1e270], or within 1e-6 of a rounding tie) are formatted by
Python's ``%`` one at a time.  The writer is fully deterministic: the same
field always produces byte-identical output.

A large field is written on every CPU.  When the writer reads the field's
own blocks, the platform is Linux, at least two CPUs are usable, only one
Python thread runs and each CPU would get at least ``_BLOCKS_PER_PROCESS``
blocks, the time rows are cut at block boundaries into contiguous ranges
(:func:`_ranges`).  Forked workers write all but the first to part files
beside the output; this process writes the header and the first range, then
appends the parts in order.  Each block keeps its rows, so BLAS sums in the
same order and the bytes are those of one process.  Forking is safe here:
numpy's OpenBLAS stops its thread pool at a fork (its ``pthread_atfork``
handler) and starts it again on the next call, no other Python thread can
hold a lock, and a worker ends with ``os._exit``, so it never returns into
the caller's frames, flushes no buffer it inherited and runs no atexit
handler.  A range whose worker does not exit 0 is written by this process,
as is one whose fork fails, so the caller gets what one process would give:
the same bytes, or the exception of the first failing block in row order,
with its own type and attributes.  On any error or interrupt every worker is
killed and reaped and no part file is left.

How the kernel works: each value gets a fixed 32-byte slot of NUL-padded
text (head, leading digit, four 4-digit groups, exponent tail), and one
``bytes.translate`` per block drops the NULs.  The decimal exponent e and
the 17-digit integer D come from a Dekker product with a tabled 10**(16 - e)
(one gather per call for its four words).  D's last 16 digits split with
integer ``//`` into four groups, each a contiguous 1-D array.  A slot is
built as four little-endian words in a contiguous (n, 4) matrix: the head
word, the leading digit, one word per group looked up by (point position,
group) in a 480 KB table of unstripped groups, and the tail word are stored
left to right, and one mask picked by (digits before the point, trailing
zero count) strips the zeros (and the point) that ``%.17g`` drops.  The
matrix goes into the caller's slots in one copy.  The tables total about
0.55 MB and are built once per process in about 2 ms.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import shutil
import signal
import sys
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InputError

# Cells (CSV rows) per block of whole time rows: every reader of a field
# holds one block at a time, and the writer one block of text, never the
# whole grid or file.  _g17 runs fastest at about 4k-8k values a call.
_CSV_BLOCK_CELLS = 1 << 12
# Fewest blocks each process takes when a field's CSV is split across
# processes, and the most processes.  A worker costs about 6.5 ms (its fork,
# the copy-on-write faults that follow, the wait and the append), about two
# blocks of 801 points with a u column at 2.9 ms each (2-core x86-64, Python
# 3.11): two processes break even near 6 blocks, and at 16 a range the cost
# is an eighth of the range's own time.
_BLOCKS_PER_PROCESS = 16
_MAX_PROCESSES = 8

# One formatted value: a fixed slot of NUL-padded bytes (sign and "0.000"
# prefix, leading digit, four 4-digit groups each with room for a point, and
# the exponent), then its separator.  Removing the NULs leaves the CSV text.
_SLOT = np.dtype([("head", "V6"), ("lead", "u1"), ("groups", "V5", (4,)),
                  ("tail", "V5")])
_CELL = _SLOT.itemsize + 1
# Byte offsets of the lead digit, the four groups and the tail in a slot.
_LEAD = _SLOT.fields["lead"][1]
_GROUPS = [_SLOT.fields["groups"][1] + 5 * j for j in range(4)]
_TAIL = _SLOT.fields["tail"][1]

# Decimal exponents the kernel handles: scaled powers 10**s for s = 16 - e
# stay normal doubles, and so do the parts of the Dekker products.
_E_MIN, _E_MAX = -272, 271
_SPLIT = float(2**27 + 1)

# Slot words are little-endian whatever the machine, so byte b of a word is
# bits 8b to 8b + 7 of its value, and its bytes are the slot's in order.
_WORD = np.dtype("<u8")


@functools.cache
def _g17_tables():
    """Lookup tables of :func:`_g17`, built once with exact integer
    arithmetic: the Dekker parts of 10**s per exponent, the 4-digit groups
    as slot bytes packed into words, the head and tail words, each
    exponent's group layout, and the masks that strip trailing zeros."""
    hi, lo = [], []
    for s in range(16 - _E_MAX, 17 - _E_MIN):
        # int -> float and int / int round correctly, so hi is 10**s
        # rounded and lo the exact remainder 10**s - hi rounded.
        q = 10**abs(s)
        if s >= 0:
            h = float(q)
            lo.append(float(q - int(h)))
        else:
            h = 1 / q
            num, den = h.as_integer_ratio()
            lo.append((den - num * q) / (den * q))
        hi.append(h)
    hi = np.array(hi)
    c = _SPLIT * hi
    hi_big = c - (c - hi)
    # powers[_E_MAX - e]: hi, lo and hi's Dekker halves, gathered in one go.
    powers = np.stack([hi, np.array(lo), hi_big, hi - hi_big], axis=1)

    # words[(pos + 1) * 10000 + g]: the 4 digits of g with a point before
    # digit pos (none when pos is -1 or 4), as the group's 5 slot bytes in
    # the low bytes of a word.  Each step runs over one digit (or column)
    # of all 10000 groups at once.
    digits = np.empty((4, 10000), np.uint8)
    for d in range(4):
        digits[d] = np.tile(np.repeat(np.arange(48, 58, dtype=np.uint8),
                                      10**(3 - d)), 10**d)
    table = np.zeros((6, 10000, 8), np.uint8)
    for pos in range(-1, 5):
        point = pos if 0 <= pos <= 3 else 4
        out = table[pos + 1]
        for c in range(5):
            if c != point:
                out[:, c] = digits[c - (c > point)]
            elif point < 4:
                out[:, c] = ord(".")
    words = table.view(_WORD).ravel()
    # zeros[g]: trailing zeros of the 4 digits of g, 4 for g = 0.
    g = np.arange(10000)
    zeros = sum(g % 10**d == 0 for d in range(1, 5)).astype(np.uint8)

    # Per exponent e, at row e - _E_MIN: %.17g prints fixed point for
    # -4 <= e < 17, with k = max(e + 1, 0) digits before the point, and
    # otherwise one digit, a point and an exponent.  head[2 * row + negative]
    # is the sign and the "0.000" prefix, tail[row] the exponent, both as
    # words (the tail shifted to its place in the slot's last word);
    # layout[row, j] is where in ``words`` the table of group j starts (its
    # point comes before its digit pos = k - 1 - 4j), and mask_rows[row]
    # is the first row of the masks of k.
    exps = np.arange(_E_MIN, _E_MAX + 1)
    fixed = (exps >= -4) & (exps < 17)
    head = np.array([sign + ("0." + "0" * (-e - 1) if -4 <= e < 0 else "")
                     for e in exps.tolist() for sign in ("", "-")],
                    "S8").view(_WORD)
    tail = np.array(["" if f else "e%+03d" % e
                     for e, f in zip(exps.tolist(), fixed)], "S8").view(_WORD)
    tail <<= 8 * (_TAIL % 8)
    k = np.where(fixed, np.maximum(exps + 1, 0), 1)
    pos = np.clip(k[:, None] - [1, 5, 9, 13], -1, 4)
    layout = ((pos + 1) * 10000).astype(np.intp)
    mask_rows = (17 * k).astype(np.intp)

    # masks[17 * k + z]: the slot's words with the bytes kept when k digits
    # come before the point and the 16 digits after the leading one end in
    # z zeros.  %.17g drops the zeros after the point, and the point when
    # no digit is left after it.  Digit i (1 to 16) sits in group
    # j = (i - 1) // 4, one byte further on when the point is before it in
    # that group; the point is just before digit k.
    i = np.arange(1, 17)
    j, q = (i - 1) // 4, (i - 1) % 4
    ks = np.arange(18)[:, None]
    byte = np.array(_GROUPS)[j] + q + ((ks - 1 - 4 * j >= 0)
                                       & (ks - 1 - 4 * j <= q))
    gone = (i >= ks[:, None]) & (i > 16 - np.arange(17)[:, None])
    keep = np.full((18, 17, _SLOT.itemsize), 0xFF, np.uint8)
    kk, zz, ii = np.nonzero(gone)
    keep[kk, zz, byte[kk, ii]] = 0
    kk, zz = np.nonzero(gone[i, :, i - 1])  # the point goes with digit k
    keep[kk + 1, zz, byte[kk + 1, kk] - 1] = 0
    masks = keep.view(_WORD).reshape(-1, _SLOT.itemsize // 8)
    return powers, words, zeros, head, tail, layout, mask_rows, masks


def _scaled(w, e, powers):
    """w * 10**(16 - e) as an unevaluated sum p + r, with p = fl(w * hi):
    Dekker's exact product of w and the power's high word plus w times its
    low word, so p + r is within about 1e-14 of the exact product."""
    hi, lo, hi_big, hi_small = np.take(powers, _E_MAX - e, axis=0).T
    p = w * hi
    c = _SPLIT * w
    w_big = c - (c - w)
    w_small = w - w_big
    r = (((w_big * hi_big - p) + w_big * hi_small + w_small * hi_big)
         + w_small * hi_small) + w * lo
    return p, r


def _out_of_range(p, r):
    """Where p + r lies outside [1e16, 1e17): the exponent estimate missed.
    At an endpoint p alone does not decide; the sign of r does."""
    low = (p < 1e16) | ((p == 1e16) & (r < 0.0))
    high = (p > 1e17) | ((p == 1e17) & (r >= 0.0))
    return low, high


def _store(slots, offset, values):
    """Store ``values`` as little-endian words at byte ``offset`` of each
    row of the byte matrix ``slots``; 8 bytes each, however aligned."""
    slots[:, offset:offset + 8].view(_WORD)[:, 0] = values


def _decimal(a, powers):
    """(e, D, fast) per float of ``a``: the decimal exponent e of |x|, the
    17-digit integer D = round(|x| * 10**(16 - e)), and where the two are
    decided exactly.  The rest (zeros, non-finite values, magnitudes outside
    [1e-270, 1e270], products within 1e-6 of a rounding tie) go through as
    1 and are not ``fast``."""
    ax = np.abs(a)
    fast = (ax >= 1e-270) & (ax <= 1e270)
    w = np.where(fast, ax, 1.0)
    e = np.floor(np.log10(w)).astype(np.intp)
    p, r = _scaled(w, e, powers)
    near = np.flatnonzero((p <= 1e16) | (p >= 1e17))
    if near.size:  # log10 may be off by one at a power of ten
        low, high = _out_of_range(p[near], r[near])
        e[near] += high.astype(np.intp) - low
        p[near], r[near] = _scaled(w[near], e[near], powers)
        low, high = _out_of_range(p[near], r[near])
        fast[near] &= ~(low | high)
    # p >= 1e16 > 2**53 is an integer, so rounding p + r only rounds r.
    nearest = np.rint(r)
    fast &= np.abs(r - nearest) < 0.5 - 1e-6
    digits = p.astype(np.int64) + nearest.astype(np.int64)
    carry = np.flatnonzero(digits >= 10**17)
    digits[carry] = 10**16
    e[carry] += 1
    return e, digits, fast


def _groups(digits, zeros):
    """The leading digit of each D, the other 16 digits as four 4-digit
    groups (the rows of a (4, n) array), and how many zeros the 16 end in."""
    lead = digits // 10**16
    rest = digits - lead * 10**16
    g = np.empty((4, digits.size), np.intp)
    hi8 = rest // 10**8
    lo8 = rest - hi8 * 10**8
    np.floor_divide(hi8, 10**4, out=g[0])
    np.subtract(hi8, g[0] * 10**4, out=g[1])
    np.floor_divide(lo8, 10**4, out=g[2])
    np.subtract(lo8, g[2] * 10**4, out=g[3])
    # The last group's trailing zeros; where it is zero, 4 for each zero
    # group at the end (at most 3 counted) plus the group before them.
    trailing = np.take(zeros, g[3])
    ends = np.flatnonzero(trailing == 4)
    if ends.size:
        empty = lo8[ends] == 0
        z = 1 + empty + (empty & (g[1, ends] == 0))
        trailing[ends] = 4 * z + zeros[g[3 - z, ends]]
    return lead, g, trailing


def _g17(a, out):
    """Write ``b"%.17g" % x`` for each float x of the 1-D array ``a`` into
    the matching row of ``out``, an (n, _SLOT.itemsize) uint8 view, with
    NUL padding.

    Each value's slot is assembled as words in a contiguous (n, 4) matrix:
    the head word, the leading digit, one looked-up word per 4-digit group
    (with the point where the exponent puts it) and the tail, each stored
    over the zero bytes the one before left; a mask by the exponent and
    the trailing zeros then strips what %.17g drops, and the matrix goes to
    ``out`` in one copy.  Only values :func:`_decimal` cannot decide go
    through Python's ``%``.
    """
    powers, words, zeros, head, tail, layout, mask_rows, masks = _g17_tables()
    e, digits, fast = _decimal(a, powers)
    lead, g, trailing = _groups(digits, zeros)
    zero = a == 0.0
    row = e - _E_MIN
    matrix = np.empty((a.size, _SLOT.itemsize // 8), _WORD)
    slots = matrix.view(np.uint8)
    _store(slots, 0, np.take(head, 2 * row + np.signbit(a)))
    # Zeros went through as 1: their leading digit becomes "0", and the
    # mask strips the other 16 and the point.
    slots[:, _LEAD] = 48 + lead - zero
    g += np.take(layout, row, axis=0).T
    found = np.take(words, g)
    for offset, group in zip(_GROUPS, found):
        _store(slots, offset, group)
    # The last word holds the last group's high bytes and the tail.
    matrix[:, -1] = (found[-1] >> 8 * (-_GROUPS[-1] % 8)) | np.take(tail, row)
    matrix &= np.take(masks, np.take(mask_rows, row) + trailing, axis=0)
    # One opaque item per slot: a copy as _SLOT would go field by field.
    value = np.dtype((np.void, _SLOT.itemsize))
    out.view(value)[...] = matrix.view(value)
    for i in np.flatnonzero(~(fast | zero)).tolist():
        text = b"%.17g" % a[i]
        out[i] = 0
        out[i, :len(text)] = np.frombuffer(text, np.uint8)


def _cells(n, columns):
    """Zeroed byte matrix for n CSV rows of the given number of columns,
    with the separators in place; :func:`_column` gives a column's slots."""
    m = np.zeros((n, columns * _CELL), np.uint8)
    m[:, _CELL - 1::_CELL] = ord(",")
    m[:, -1] = ord("\n")
    return m


def _column(m, c):
    """The value slots of column c of a cell matrix (a view)."""
    return m[..., c * _CELL:(c + 1) * _CELL - 1]


def _text(m):
    """The CSV bytes of a cell matrix: its bytes with the NUL padding removed."""
    return m.tobytes().translate(None, b"\0")


def csv_rows(*columns):
    """CSV rows of the equal-length 1-D float columns, each value printed as
    ``%.17g`` by the same kernel as :meth:`SolutionField.write_csv`."""
    m = _cells(len(columns[0]), len(columns))
    for c, values in enumerate(columns):
        _g17(np.asarray(values, dtype=float), _column(m, c))
    return _text(m)


@dataclass(frozen=True)
class GridSpec:
    """Uniform solution grid: nx space intervals; time resolution either as
    a step count ``nt`` over [0, T] or as ``nt_per_tau`` steps per delay.
    The series solvers and the finite-difference oracle all read x and t
    here."""

    nx: int
    nt: int = None
    nt_per_tau: int = None

    def __post_init__(self):
        if self.nx < 2:
            raise InputError(f"nx must be at least 2, got {self.nx!r}")
        if self.nt is None and self.nt_per_tau is None:
            raise InputError("grid needs either nt or nt_per_tau")
        if self.nt is not None and self.nt < 1:
            raise InputError(f"nt must be at least 1, got {self.nt!r}")
        if self.nt_per_tau is not None and self.nt_per_tau < 1:
            raise InputError(f"nt_per_tau must be at least 1, got {self.nt_per_tau!r}")

    def x_points(self, length):
        return np.linspace(0.0, length, self.nx + 1)

    def time_step(self, horizon, tau=None):
        """T / nt without a delay, tau / nt_per_tau with one; a grid of the
        other problem kind raises :class:`InputError`."""
        if tau is None:
            if self.nt_per_tau is not None:
                raise InputError("nt_per_tau given but the problem has no delay")
            return horizon / self.nt
        if self.nt_per_tau is None:
            raise InputError("delay problems need a grid specified via nt_per_tau")
        return tau / self.nt_per_tau

    def t_points(self, horizon, tau=None):
        """Time rows: [0, T] for non-delay grids, [-tau, T_eff] for delay grids.

        Delay grids use dt = tau / nt_per_tau so steps divide the delay
        exactly; T_eff is the smallest grid multiple >= T, and the solvers
        read the data up to max(T, ceil(T / tau) tau) >= T_eff.
        """
        dt = self.time_step(horizon, tau)
        if tau is None:
            return np.linspace(0.0, horizon, self.nt + 1)
        steps = int(math.ceil(horizon / dt - 1e-9))
        return dt * np.arange(-self.nt_per_tau, steps + 1)


def _block_rows(nx, nt):
    """Time rows per block: whole rows of at most ``_CSV_BLOCK_CELLS``
    cells, at least one row."""
    return max(1, min(nt, _CSV_BLOCK_CELLS // nx))


class SolutionField:
    """Values v, and optionally the reduced-frame values u, on an (x, t) grid.

    An array-backed field holds v and u.  A synthesized field holds
    ``rows`` instead, a function that computes the (v, u) values of time
    rows j0:j1; the series solvers return such fields (see
    :func:`delayheat.heat_delay.to_field`).  Every reader takes the values
    through :meth:`blocks`, so a synthesized field is computed when read and
    never held whole, and every reader sees the same bits.  ``v`` and ``u``
    assemble the arrays from the blocks on first access and keep them.
    """

    def __init__(self, x, t, v=None, u=None, source="spectral", meta=None,
                 rows=None):
        self.x = np.asarray(x, dtype=float)
        self.t = np.asarray(t, dtype=float)
        self.source = source
        self.meta = {} if meta is None else meta
        self.has_u = rows is not None or u is not None
        self._arrays = None
        self._rows = rows
        if rows is None:
            v = np.asarray(v, dtype=float)
            if v.shape != (self.t.size, self.x.size):
                raise InputError(f"v has shape {v.shape}, expected "
                                 f"{(self.t.size, self.x.size)}")
            if u is not None:
                u = np.asarray(u, dtype=float)
                if u.shape != v.shape:
                    raise InputError("u must have the same shape as v")
            self._hold(v, u)

    def _hold(self, v, u):
        """Keep the arrays and serve the blocks as slices of them."""
        self._arrays = (v, u)
        self._rows = lambda j0, j1: (v[j0:j1],
                                     None if u is None else u[j0:j1])

    @property
    def v(self):
        return self._values()[0]

    @property
    def u(self):
        return self._values()[1]

    def _values(self):
        if self._arrays is None:
            shape = (self.t.size, self.x.size)
            v, u = np.empty(shape), np.empty(shape)
            for j0, v_rows, u_rows in self.blocks():
                v[j0:j0 + len(v_rows)] = v_rows
                u[j0:j0 + len(u_rows)] = u_rows
            self._hold(v, u)
        return self._arrays

    def blocks(self, j_lo=0, j_hi=None):
        """Yield (j0, v, u) for consecutive blocks of whole time rows
        j0:j0 + len(v) of rows j_lo:j_hi (all rows by default), in order,
        each of at most ``_CSV_BLOCK_CELLS`` cells (at least one row); u is
        None without a u column.  A j_lo on a block boundary gives the
        blocks of the whole field.  A synthesized field computes each block
        here, so an error of its data surfaces at the block that reads it."""
        nt = self.t.size
        j_hi = nt if j_hi is None else j_hi
        step = _block_rows(self.x.size, nt)
        for j0 in range(j_lo, j_hi, step):
            yield (j0, *self._rows(j0, min(j0 + step, j_hi)))

    def write_csv(self, path, blocks=None):
        """Write the field as CSV (see the module docstring for the schema),
        one block of time rows at a time (``blocks``, or its own blocks).
        The text goes to a temporary file beside ``path``, which replaces
        ``path`` only once every block is written: an error on the way
        leaves no file at ``path``.  A field that reads its own blocks may
        be written by several processes (:func:`_ranges`); given
        ``blocks`` (``compare --out-field`` passes
        :func:`difference_blocks`, which fills the report's rows on the
        way), it is written by this one."""
        write = self._range_writer()
        ranges = [blocks] if blocks is not None else [
            self.blocks(j_lo, j_hi) for j_lo, j_hi in _ranges(self.x.size,
                                                             self.t.size)]
        path = os.fspath(path)
        stem = os.path.join(os.path.dirname(path) or ".",
                            f".{os.path.basename(path)}.{os.getpid()}")
        partial = stem + ".tmp"
        try:
            with open(partial, "wb") as fh:
                fh.write(b"x,t,v,u\n" if self.has_u else b"x,t,v\n")
                _write_ranges(fh, write, ranges, stem)
            os.replace(partial, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.remove(partial)
            raise

    def _range_writer(self):
        """A function ``write(fh, blocks)`` that writes the CSV rows of the
        blocks (j0, v, u) of this field to the open file ``fh``.  The x and
        t slots are formatted here, once per field: x is the same in every
        time row of a block, t in every cell of a row."""
        nx, nt = self.x.size, self.t.size
        rows_per_block = _block_rows(nx, nt)
        planes = 2 if self.has_u else 1
        m = _cells(rows_per_block * nx, 2 + planes)
        grid = m.reshape(rows_per_block, nx, -1)
        _g17(self.x, _column(grid[0], 0))
        grid[1:, :, :_CELL] = grid[0, :, :_CELL]
        t_slots = np.zeros((nt, _SLOT.itemsize), np.uint8)
        _g17(self.t, t_slots)

        def write(fh, blocks):
            for j0, v, u in blocks:
                rows = len(v)
                block = m[:rows * nx]
                _column(grid[:rows], 1)[...] = t_slots[j0:j0 + rows, None]
                for col, plane in enumerate((v, u)[:planes], 2):
                    _g17(plane.ravel(), _column(block, col))
                fh.write(_text(block))

        return write


def _ranges(nx, nt):
    """The time-row ranges (j_lo, j_hi) that separate processes write, cut
    at block boundaries so that every block keeps its rows (and BLAS its
    summation order).  More than one only on Linux with fork, at least two
    usable CPUs, one Python thread and ``_BLOCKS_PER_PROCESS`` blocks or
    more for each range."""
    step = _block_rows(nx, nt)
    n_blocks = -(-nt // step)
    count = 1
    if (sys.platform == "linux" and hasattr(os, "fork")
            and threading.active_count() == 1):
        count = max(1, min(len(os.sched_getaffinity(0)),
                           n_blocks // _BLOCKS_PER_PROCESS, _MAX_PROCESSES))
    cuts = [min(nt, n_blocks * k // count * step) for k in range(count + 1)]
    return list(zip(cuts[:-1], cuts[1:]))


def _write_ranges(fh, write, ranges, stem):
    """Write the blocks of each range to ``fh`` in order: the first here,
    each other in a forked process (:func:`_fork`) that writes a part file
    (``stem.k.tmp``), which is then appended here.  A range whose fork
    fails, or whose worker does not exit 0, is written here, so the caller
    gets one process's bytes or its first error in row order.  On any error
    or interrupt every worker is killed and reaped and its part removed."""
    jobs = []  # [pid or None, part, blocks] per range after the first
    try:
        for k, blocks in enumerate(ranges[1:], 1):
            job = [None, f"{stem}.{k}.tmp", blocks]
            # Signals wait until the worker's pid is on the list, so an
            # interrupt finds every worker to kill.
            with _signals_blocked() as mask:
                jobs.append(job)
                with contextlib.suppress(OSError):
                    job[0] = _fork(write, blocks, job[1], mask)
        write(fh, ranges[0])
        for job in jobs:
            pid, part, blocks = job
            done = pid is not None and os.waitpid(pid, 0)[1] == 0
            job[0] = None
            if done:
                _append(fh, part)
            else:
                write(fh, blocks)
    finally:
        with _signals_blocked():
            for pid, part, _ in jobs:
                if pid is not None:
                    # No such process: reaped above, just before an interrupt.
                    with contextlib.suppress(ProcessLookupError):
                        os.kill(pid, signal.SIGKILL)
                        os.waitpid(pid, 0)
                with contextlib.suppress(FileNotFoundError):
                    os.remove(part)


@contextlib.contextmanager
def _signals_blocked():
    """Hold off every signal this thread can block, and deliver the pending
    ones (a KeyboardInterrupt, say) on leaving."""
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, signal.valid_signals())
    try:
        yield mask
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)


def _fork(write, blocks, part, mask):
    """Fork a process that writes the blocks to the file ``part`` and ends
    with ``os._exit``: 0 once the part is written, 1 on any error.  The
    caller holds every signal off; the child restores ``mask`` (the caller's
    own) only inside the ``try`` that ends it.  Returns the child's pid."""
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            with open(part, "wb") as out:
                write(out, blocks)
            code = 0
        finally:
            os._exit(code)
    return pid


def _append(fh, part):
    """Append the file ``part`` to the open file ``fh``."""
    fh.flush()
    with open(part, "rb", buffering=0) as src:
        try:
            while os.copy_file_range(src.fileno(), fh.fileno(), 1 << 30):
                pass
        except (AttributeError, OSError):  # no copy_file_range here
            # Both files' offsets are past what was copied, if anything.
            shutil.copyfileobj(src, fh)


def read_field_csv(path):
    """Inverse of :meth:`SolutionField.write_csv`: reads a field CSV back.
    Rows other than the writer's (t-major, then x) raise InputError."""
    with open(path) as fh, warnings.catch_warnings():
        # No rows is an InputError below, not a warning from numpy.
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape[0] == 0 or data.shape[1] != len(header):
        raise InputError(f"CSV at {path} has no rows of its header's columns")
    x, t = np.unique(data[:, 0]), np.unique(data[:, 1])
    if not (np.array_equal(data[:, 0], np.tile(x, t.size))
            and np.array_equal(data[:, 1], np.repeat(t, x.size))):
        raise InputError(f"CSV at {path} is not a t-major tensor grid")
    v = data[:, 2].reshape(t.size, x.size)
    u = data[:, 3].reshape(t.size, x.size) if "u" in header else None
    return SolutionField(x=x, t=t, v=v, u=u, source="file")


def difference_blocks(field_a, field_b, rows):
    """Yield the blocks of field_a (:meth:`SolutionField.blocks`), and fill
    ``rows`` (2 x times) with each time row's sup and L2 difference from
    field_b on the way, so that another reader of field_a's blocks (the
    CSV writer) and :func:`field_difference_report` share one pass."""
    if field_a.x.size != field_b.x.size or field_a.t.size != field_b.t.size:
        raise InputError("fields live on different grid shapes")
    if not (np.allclose(field_a.x, field_b.x, rtol=0, atol=1e-12)
            and np.allclose(field_a.t, field_b.t, rtol=0, atol=1e-12)):
        raise InputError("fields live on different grids")
    dx = float(field_a.x[1] - field_a.x[0])
    for (j0, va, ua), (_, vb, _) in zip(field_a.blocks(), field_b.blocks()):
        diff = va - vb
        rows[0, j0:j0 + len(diff)] = np.max(np.abs(diff), axis=1)
        rows[1, j0:j0 + len(diff)] = np.sqrt(dx * np.sum(diff**2, axis=1))
        yield j0, va, ua


def field_difference_report(field_a, field_b, rows=None):
    """Sup / L2 difference of two fields on the same grid, with per-time
    rows, read one block of time rows at a time; ``rows``, if given, as
    :func:`difference_blocks` filled them."""
    if rows is None:
        rows = np.empty((2, field_a.t.size))
        for _ in difference_blocks(field_a, field_b, rows):
            pass
    sup_rows, l2_rows = rows
    slices = [
        [float(field_a.t[j]), float(sup_rows[j]), float(l2_rows[j])]
        for j in range(field_a.t.size)
    ]
    dt = float(field_a.t[1] - field_a.t[0]) if field_a.t.size > 1 else 1.0
    return {
        "sup": float(sup_rows.max()),
        "l2": float(np.sqrt(dt * np.sum(l2_rows**2))),
        "slices": slices,
        "sources": [field_a.source, field_b.source],
    }
