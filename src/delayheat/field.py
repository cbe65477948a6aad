"""Solution fields on space-time grids, and their serialized forms.

CSV schema: header ``x,t,v`` (plus a ``u`` column when a change of variables
was applied and the reduced-frame values are available), rows ordered t-major
then x, floats printed with 17 significant digits (``%.17g``).  The writer
streams the file in blocks of whole time rows, one ``%`` format call per
block, so it never holds the full text in memory; the blocking does not
change the bytes.  The writer is fully deterministic: the same field always
produces byte-identical output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError

# Cells (CSV rows) formatted per block: the writer holds one block of text at
# a time, never the whole file.
_CSV_BLOCK_CELLS = 1 << 14


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
        exactly; T_eff is the smallest grid multiple >= T.
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
        width = 1 + len(planes)
        xs = ["%.17g" % x for x in self.x.tolist()]
        nx = len(xs)
        rows_per_block = max(1, _CSV_BLOCK_CELLS // nx)
        # Each time row's template carries its own t string, so t is
        # formatted once per row and a block is one C-level % call.
        tail = ",%.17g" * len(planes) + "\n"
        row_templates = ["%s," + ("%.17g" % t) + tail for t in self.t.tolist()]
        with open(path, "w", newline="\n") as fh:
            fh.write("x,t,v,u\n" if self.u is not None else "x,t,v\n")
            for j0 in range(0, len(row_templates), rows_per_block):
                rows = row_templates[j0:j0 + rows_per_block]
                args = [None] * (len(rows) * nx * width)
                args[0::width] = xs * len(rows)
                for col, plane in enumerate(planes, 1):
                    args[col::width] = plane[j0:j0 + len(rows)].ravel().tolist()
                fh.write("".join(tpl * nx for tpl in rows) % tuple(args))


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
