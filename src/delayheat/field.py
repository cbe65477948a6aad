"""Solution fields on space-time grids, and their serialized forms.

A :class:`SolutionField` either holds its values as arrays (the FD oracle,
:func:`read_field_csv`) or synthesizes them when they are read (the series
solvers, :func:`delayheat.heat_delay.to_field`).  Every reader takes the
values one block of whole time rows at a time (:meth:`SolutionField.blocks`):
:meth:`~SolutionField.write_csv` and :func:`field_difference_report` hold
O(block) cells, never the (nt x nx) grid, and a synthesized value is
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
from dataclasses import dataclass

import numpy as np

from .errors import InputError

# Cells (CSV rows) per block of whole time rows: every reader of a field
# holds one block at a time, and the writer one block of text, never the
# whole grid or file.  _g17 runs fastest at about 4k-8k values a call.
_CSV_BLOCK_CELLS = 1 << 12

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

    def blocks(self):
        """Yield (j0, v, u) for consecutive blocks of whole time rows
        j0:j0 + len(v), in order, each of at most ``_CSV_BLOCK_CELLS`` cells
        (at least one row); u is None without a u column.  A synthesized
        field computes each block here, so an error of its data surfaces
        at the block that reads it."""
        nt = self.t.size
        step = _block_rows(self.x.size, nt)
        for j0 in range(0, nt, step):
            yield (j0, *self._rows(j0, min(j0 + step, nt)))

    def write_csv(self, path):
        """Write the field as CSV (see the module docstring for the schema),
        one block of time rows at a time.  The text goes to a temporary file
        beside ``path``, which replaces ``path`` only once every block is
        written: an error on the way leaves no file at ``path``."""
        nx, nt = self.x.size, self.t.size
        rows_per_block = _block_rows(nx, nt)
        planes = 2 if self.has_u else 1
        m = _cells(rows_per_block * nx, 2 + planes)
        grid = m.reshape(rows_per_block, nx, -1)
        # x is the same in every time row of a block, t in every cell of a
        # row: each is formatted once per call.
        _g17(self.x, _column(grid[0], 0))
        grid[1:, :, :_CELL] = grid[0, :, :_CELL]
        t_slots = np.zeros((nt, _SLOT.itemsize), np.uint8)
        _g17(self.t, t_slots)
        path = os.fspath(path)
        partial = os.path.join(os.path.dirname(path) or ".",
                               f".{os.path.basename(path)}.{os.getpid()}.tmp")
        try:
            with open(partial, "wb") as fh:
                fh.write(b"x,t,v,u\n" if self.has_u else b"x,t,v\n")
                for j0, v, u in self.blocks():
                    rows = len(v)
                    block = m[:rows * nx]
                    _column(grid[:rows], 1)[...] = t_slots[j0:j0 + rows, None]
                    for col, plane in enumerate((v, u)[:planes], 2):
                        _g17(plane.ravel(), _column(block, col))
                    fh.write(_text(block))
            os.replace(partial, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.remove(partial)
            raise


def read_field_csv(path):
    """Inverse of :meth:`SolutionField.write_csv`: reads a field CSV back."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    x = np.unique(data[:, 0])
    t = np.unique(data[:, 1])
    nx, nt = x.size, t.size
    if data.shape[0] != nx * nt:
        raise InputError(f"CSV at {path} is not a full tensor grid")
    v = data[:, 2].reshape(nt, nx)
    u = data[:, 3].reshape(nt, nx) if "u" in header else None
    return SolutionField(x=x, t=t, v=v, u=u, source="file")


def field_difference_report(field_a, field_b):
    """Sup / L2 difference of two fields on the same grid, with per-time
    rows, read one block of time rows at a time."""
    if field_a.x.size != field_b.x.size or field_a.t.size != field_b.t.size:
        raise InputError("fields live on different grid shapes")
    if not (np.allclose(field_a.x, field_b.x, atol=1e-12)
            and np.allclose(field_a.t, field_b.t, atol=1e-12)):
        raise InputError("fields live on different grids")
    dx = float(field_a.x[1] - field_a.x[0])
    sup_rows = np.empty(field_a.t.size)
    l2_rows = np.empty(field_a.t.size)
    for (j0, va, _), (_, vb, _) in zip(field_a.blocks(), field_b.blocks()):
        diff = va - vb
        rows = slice(j0, j0 + len(diff))
        sup_rows[rows] = np.max(np.abs(diff), axis=1)
        l2_rows[rows] = np.sqrt(dx * np.sum(diff**2, axis=1))
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
