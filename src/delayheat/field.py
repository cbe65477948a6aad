"""Solution fields on space-time grids, and their serialized forms.

CSV schema: header ``x,t,v`` (plus a ``u`` column when a change of variables
was applied and the reduced-frame values are available), rows ordered t-major
then x, floats printed with 17 significant digits (``%.17g``).  The writer
streams the file in blocks of whole time rows, so it never holds the full
text in memory; the blocking does not change the bytes.  The digits are
computed in numpy (:func:`_g17`) and equal Python's ``"%.17g" % x`` byte for
byte; the few values that kernel cannot decide (non-finite, magnitude
outside [1e-270, 1e270], or within 1e-6 of a rounding tie) are formatted by
Python's ``%`` one at a time.  The writer is fully deterministic: the same
field always produces byte-identical output.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError

# Cells (CSV rows) formatted per block: the writer holds one block of text at
# a time, never the whole file.
_CSV_BLOCK_CELLS = 1 << 12

# One formatted value: a fixed slot of NUL-padded bytes (sign and "0.000"
# prefix, leading digit, four 4-digit groups each with room for a point, and
# the exponent), then its separator.  Removing the NULs leaves the CSV text.
_SLOT = np.dtype([("head", "V6"), ("lead", "u1"), ("groups", "V5", (4,)),
                  ("tail", "V5")])
_CELL = _SLOT.itemsize + 1

# Decimal exponents the kernel handles: scaled powers 10**s for s = 16 - e
# stay normal doubles, and so do the parts of the Dekker products.
_E_MIN, _E_MAX = -272, 271
_SPLIT = float(2**27 + 1)


@functools.cache
def _g17_tables():
    """Lookup tables of :func:`_g17`, built once with exact integer
    arithmetic: (hi, lo) pairs of 10**s with their Dekker halves, the
    4-digit groups, and the head and tail strings per exponent."""
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
    powers = (hi, np.array(lo), hi_big, hi - hi_big)

    # groups[(2 * (pos + 1) + strip) * 10000 + g]: the 4 digits of g with a
    # point before digit pos (none when pos is -1 or 4) and, when strip,
    # the trailing zeros after the point (after position 0 when pos is -1)
    # removed; a point with no digit left after it is removed too.  Each
    # step runs over one digit (or column) of all 10000 groups at once.
    digits = np.empty((4, 10000), np.uint8)
    for d in range(4):
        digits[d] = np.tile(np.repeat(np.arange(48, 58, dtype=np.uint8),
                                      10**(3 - d)), 10**d)
    # trailing[d]: digit d and every later digit are zeros.
    trailing = np.arange(10000) % np.array([[10000], [1000], [100], [10]]) == 0
    table = np.zeros((6, 2, 10000, 5), np.uint8)
    for pos in range(-1, 5):
        point = pos if 0 <= pos <= 3 else 4
        for strip in (0, 1):
            kept = digits
            if strip:
                kept = digits * ~(trailing & (np.arange(4)[:, None] >= pos))
            out = table[pos + 1, strip]
            for c in range(5):
                if c != point:
                    out[:, c] = kept[c - (c > point)]
                elif point < 4:
                    out[:, c] = (kept[point] != 0) * np.uint8(ord("."))
    groups = table.view("V5").ravel()

    # Per exponent e, at row e - _E_MIN: %.17g prints fixed point for
    # -4 <= e < 17, with k = max(e + 1, 0) digits before the point, and
    # otherwise one digit, a point and an exponent.  head[2 * row + negative]
    # is the sign and the "0.000" prefix, tail[row] the exponent, and
    # variant[4 * row + z, j] the group table offset of group j (digits
    # 1 + 4j to 4 + 4j) when the last z groups are zero: group j loses its
    # trailing zeros when every later group is zero, 3 - j <= z.
    exps = np.arange(_E_MIN, _E_MAX + 1)
    fixed = (exps >= -4) & (exps < 17)
    head = np.array([sign + ("0." + "0" * (-e - 1) if -4 <= e < 0 else "")
                     for e in exps.tolist() for sign in ("", "-")],
                    "S6").view("V6")
    tail = np.array(["" if f else "e%+03d" % e
                     for e, f in zip(exps.tolist(), fixed)], "S5").view("V5")
    k = np.where(fixed, np.maximum(exps + 1, 0), 1)
    pos = np.clip(k[:, None] - [1, 5, 9, 13], -1, 4)
    strip = np.arange(3, -1, -1) <= np.arange(4)[:, None]
    variant = ((2 * (pos[:, None] + 1) + strip) * 10000).reshape(-1, 4)
    return powers, groups, head, tail, variant


def _scaled(w, e, powers):
    """w * 10**(16 - e) as an unevaluated sum p + r, with p = fl(w * hi):
    Dekker's exact product of w and the power's high word plus w times its
    low word, so p + r is within about 1e-14 of the exact product."""
    hi, lo, hi_big, hi_small = (np.take(table, _E_MAX - e) for table in powers)
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


def _g17(a, out):
    """Write ``b"%.17g" % x`` for each float x of the 1-D array ``a`` into
    the matching row of ``out``, an (n, _SLOT.itemsize) uint8 view, with
    NUL padding.

    D = round(|x| * 10**(16 - e)) is the 17-digit integer and e the decimal
    exponent; its digits come from the 4-digit group table.  Only values
    this cannot decide exactly go through Python's ``%``: non-finite ones,
    magnitudes outside [1e-270, 1e270], and products within 1e-6 of a
    rounding tie.
    """
    powers, groups, head, tail, variant = _g17_tables()
    ax = np.abs(a)
    zero = ax == 0.0
    fast = (ax >= 1e-270) & (ax <= 1e270)
    # The rest go through as 1: zeros then print "0", the others are
    # overwritten by the fallback below.
    w = np.where(fast, ax, 1.0)
    e = np.floor(np.log10(w)).astype(np.intp)
    p, r = _scaled(w, e, powers)
    low, high = _out_of_range(p, r)
    miss = np.flatnonzero(low | high)
    if miss.size:  # log10 was off by one at a power of ten
        e[miss] += high[miss].astype(np.intp) - low[miss]
        p[miss], r[miss] = _scaled(w[miss], e[miss], powers)
        low, high = _out_of_range(p, r)
        fast &= ~(low | high)
    floor = np.floor(r)
    frac = r - floor
    fast &= np.abs(frac - 0.5) > 1e-6
    # p >= 1e16 > 2**53 is an integer, so rounding p + r only rounds r.
    digits = p.astype(np.int64) + floor.astype(np.int64) + (frac > 0.5)
    carry = digits >= 10**17
    digits[carry] = 10**16
    e += carry

    lead = digits // 10**16
    rest = digits - lead * 10**16
    g = np.empty((a.size, 4), np.intp)
    g[:, 1] = rest // 10**8
    g[:, 3] = rest - g[:, 1] * 10**8
    g[:, 0] = g[:, 1] // 10**4
    g[:, 1] -= g[:, 0] * 10**4
    g[:, 2] = g[:, 3] // 10**4
    g[:, 3] -= g[:, 2] * 10**4
    # How many of the last groups are zero (at most 3 matter).
    zero_groups = (g[:, 3] == 0).astype(np.intp)
    zero_groups += rest % 10**8 == 0
    zero_groups += rest % 10**12 == 0
    g += np.take(variant, 4 * (e - _E_MIN) + zero_groups, axis=0)

    slot = out.view(_SLOT)[:, 0]
    slot["head"] = np.take(head, 2 * (e - _E_MIN) + np.signbit(a))
    slot["lead"] = 48 + lead - zero
    slot["groups"] = np.take(groups, g)
    slot["tail"] = np.take(tail, e - _E_MIN)
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

    nx: int = 200
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


@dataclass
class SolutionField:
    """Values v (and optionally the reduced-frame values u) on a grid."""

    x: np.ndarray
    t: np.ndarray
    v: np.ndarray
    u: np.ndarray = None
    source: str = "spectral"
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.t = np.asarray(self.t, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        if self.v.shape != (self.t.size, self.x.size):
            raise InputError(
                f"v has shape {self.v.shape}, expected {(self.t.size, self.x.size)}"
            )
        if self.u is not None:
            self.u = np.asarray(self.u, dtype=float)
            if self.u.shape != self.v.shape:
                raise InputError("u must have the same shape as v")

    def write_csv(self, path):
        """Write the field as CSV (see the module docstring for the schema)."""
        planes = [self.v] if self.u is None else [self.v, self.u]
        nx, nt = self.x.size, self.t.size
        rows_per_block = max(1, min(nt, _CSV_BLOCK_CELLS // nx))
        m = _cells(rows_per_block * nx, 2 + len(planes))
        grid = m.reshape(rows_per_block, nx, -1)
        # x is the same in every time row of a block, t in every cell of a
        # row: each is formatted once per call.
        _g17(self.x, _column(grid[0], 0))
        grid[1:, :, :_CELL] = grid[0, :, :_CELL]
        t_slots = np.zeros((nt, _SLOT.itemsize), np.uint8)
        _g17(self.t, t_slots)
        with open(path, "wb") as fh:
            fh.write(b"x,t,v,u\n" if self.u is not None else b"x,t,v\n")
            for j0 in range(0, nt, rows_per_block):
                rows = min(rows_per_block, nt - j0)
                block = m[:rows * nx]
                _column(grid[:rows], 1)[...] = t_slots[j0:j0 + rows, None]
                for col, plane in enumerate(planes, 2):
                    _g17(plane[j0:j0 + rows].ravel(), _column(block, col))
                fh.write(_text(block))


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
    """Sup / L2 difference of two fields on the same grid, with per-time rows."""
    if field_a.x.size != field_b.x.size or field_a.t.size != field_b.t.size:
        raise InputError("fields live on different grid shapes")
    if not (np.allclose(field_a.x, field_b.x, atol=1e-12)
            and np.allclose(field_a.t, field_b.t, atol=1e-12)):
        raise InputError("fields live on different grids")
    diff = field_a.v - field_b.v
    dx = float(field_a.x[1] - field_a.x[0])
    sup_rows = np.max(np.abs(diff), axis=1)
    l2_rows = np.sqrt(dx * np.sum(diff**2, axis=1))
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
