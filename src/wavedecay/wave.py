"""Finite-difference laboratory for Box u = F(du) on R^2.

Explicit leapfrog with the 5-point Laplacian on a square grid, Dirichlet
outer boundary that the light cone never reaches, compactly supported
smooth data.  The time derivative entering F is resolved by two fixed
point iterations of the implicit centered difference.  Alongside the
solver: discrete energy, finite-propagation diagnostics, and ray taps
that stream the outgoing ray profile V(t) = U(t, (t+sigma) omega) with
U = (d_r - d_t)(sqrt(r) u)/2 during the run, which feeds the profile
ODE module.

The step runs over the level in row strips of about STRIP_CELLS cells,
so its scratch stays in cache.  A checkpoint step takes E's sums of
squares from the tiles the step already holds (LeapfrogSolver._next) and
reads the leak over the live rows only, and a writer gets u and u_t as
read-only views of the solver's levels (`stream`): it allocates nothing level-sized.
Level-sized memory kept alive across checkpoints would change glibc's
malloc state, which perfbench's host-scale kernel reads as another host.
Set-up works in the data's support box (make_initial_data, _taylor_level),
so building a solver makes no level-sized temporary beyond what it keeps,
and E and the leak at t = 0 are read in that box.

The step is one fused kernel (LeapfrogSolver._next) with two invariants:

* it updates only the discrete domain of dependence: per row, the column
  interval of the starting levels' nonzero cells, dilated by the cross
  one cell per step and clipped to the interior.  Both stencils are that
  radius-1 cross and F(0) = 0, so every cell outside is exactly zero.
* it runs over those rows in strips of about STRIP_CELLS cells, each as
  wide as the union of its rows' intervals and taken through the stencil
  and both fixed-point sweeps while its scratch arrays are in cache.

The step folds 1/h^2, 1/dt and dt^2 into per-solver constants, so no
strip pass divides: unew = lam (N + S + E + W) + (2 - 4 lam) uc - up +
sum kappa prod d, lam = (dt/h)^2, over F's terms on raw differences d
(_folded_terms).  tests/test_wave.py::_full_grid_next, the same formula
on the whole grid, pins its levels bitwise, and the textbook step built
from _laplacian, _gradients and apply_nonlinearity pins that to round-off.

Every ufunc of the step reads and writes contiguous arrays: a strided
view of a level costs about twice as much per cell.  Each strip is
copied with a one-cell halo into a tile, a contiguous array W = width + 2
cells wide, so the stencil neighbours of a cell are flat slices 1 (west,
east) and W (north, south) away.  The two pad columns at each row's ends
compute garbage from the neighbouring rows; the new strip's pads are
zeroed before its sum of squares, which screens the blow-up guard, is
taken, and one strided copy writes its real columns back into the level.
On a checkpoint step E's d_x and d_y are zeroed on the pads too.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .profile_ode import ProfileSeries, ray_start
from .trig import Direction, NonlinearityCoefficients

BLOWUP_GUARD = 1e10
PROPAGATION_SLACK_CELLS = 4
# Most leapfrog steps a run may take; the repo's configs take at most ~800.
MAX_STEPS = 1_000_000
_EMPTY = 1 << 62    # an empty row is [_EMPTY, -_EMPTY): growth never closes it
# A float sum of squares is never below one of its terms, so a level whose
# sum is within this has every |u| within BLOWUP_GUARD (NaN is not within).
_GUARD_SCREEN = (0.5 * BLOWUP_GUARD) ** 2
# Cells in one row strip of the fused step.  A strip's scratch arrays
# (128 kB each) stay in cache, where a numpy ufunc costs ~0.4 ns per
# element against ~1.3 ns on a whole 401^2 level.
STRIP_CELLS = 16384
_SUM_PIECE = 8192       # elements in one dot product of E's sums (_sum_squares)


def slack_cone(t: float, reach: float, h: float) -> float:
    """Radius t + reach + 4h that data reaching `reach` cannot leave by time t."""
    return t + reach + PROPAGATION_SLACK_CELLS * h


class BlowUpError(RuntimeError):
    def __init__(self, t: float, maxu: float):
        super().__init__(f"max|u| = {maxu:.3e} at t = {t:.3f} exceeded the guard")
        self.t = t
        self.maxu = maxu


@dataclass(frozen=True)
class InitialData:
    """Compactly supported data u(0) = eps*f, u_t(0) = eps*g.

    kinds:
      smooth_bump  f = bump, g = -d1(bump)   (radiates in all directions)
      deriv_bump   f = 0,    g = -d1(bump)
      custom       tabulated grids, at least one given (eps still
                   multiplies them; a missing one is zero)
    """

    kind: str = "smooth_bump"
    R: float = 1.0
    eps: float = 0.1
    center: tuple[float, float] = (0.0, 0.0)
    f_grid: Optional[np.ndarray] = None
    g_grid: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind not in ("smooth_bump", "deriv_bump", "custom"):
            raise ValueError(f"unknown data kind {self.kind!r}")
        # R * R, not R ** 2: float ** raises OverflowError where * gives inf
        if not (self.R > 0 and 0 < self.R * self.R < math.inf):
            raise ValueError("support radius must be positive with a nonzero, finite square")
        if not math.isfinite(self.eps):
            raise ValueError("eps must be finite")
        if len(self.center) != 2 or not all(map(math.isfinite, self.center)):
            raise ValueError("center must be two finite numbers")
        if self.kind == "custom" and self.f_grid is None and self.g_grid is None:
            raise ValueError("custom data needs f_grid or g_grid")

    @property
    def reach(self) -> float:
        """How far the data extends from the origin: R + |center|, 0 for custom grids."""
        if self.kind == "custom":
            return 0.0
        return self.R + math.hypot(*self.center)


@dataclass(frozen=True)
class SolverConfig:
    h: float
    L: float
    T: float
    nonlinearity: NonlinearityCoefficients = field(
        default_factory=NonlinearityCoefficients
    )
    cfl: float = 0.5
    checkpoint_interval: float = 2.0

    def __post_init__(self):
        if not 0 < self.cfl <= 0.5:
            raise ValueError("cfl must lie in (0, 0.5] (2D stability margin)")
        if not (0 < self.h < self.L < math.inf and 0 < self.T < math.inf):
            raise ValueError("h, L, T must be finite with 0 < h < L and T > 0")
        if not 0 <= self.checkpoint_interval < math.inf:
            raise ValueError("checkpoint_interval must be finite and >= 0")
        # a subnormal h or cfl overflows these counts to inf (or dt to 0)
        if not (math.isfinite(2.0 * self.L / self.h) and self.dt > 0
                and math.isfinite(self.T / self.dt)):
            raise ValueError("2L/h and T/dt must be finite")
        if self.steps < 1:
            raise ValueError("T must be at least dt/2: the run must take a step")
        if self.steps > MAX_STEPS:
            raise ValueError(f"T/dt must not exceed MAX_STEPS = {MAX_STEPS} steps")

    @property
    def n(self) -> int:
        """Points per side (cell count rounded to fit [-L, L] exactly)."""
        return int(round(2.0 * self.L / self.h)) + 1

    @property
    def h_eff(self) -> float:
        return 2.0 * self.L / (self.n - 1)

    @property
    def dt(self) -> float:
        return self.cfl * self.h_eff

    @property
    def steps(self) -> int:
        return int(round(self.T / self.dt))

    def axis(self) -> np.ndarray:
        return np.linspace(-self.L, self.L, self.n)

    def validate_domain(self, reach: float) -> None:
        """Reject a grid whose boundary the slack cone at T crosses."""
        if self.L < slack_cone(self.T, reach, self.h_eff):
            raise ValueError(
                "domain too small: need L >= T + reach + 4h (reach = R + |center|) "
                "to keep the light cone away from the boundary"
            )


@dataclass
class EnergySeries:
    times: np.ndarray
    E: np.ndarray      # energy norm ||u(t)||_E = sqrt(0.5 * int |du|^2)


def make_initial_data(data: InitialData, cfg: SolverConfig) -> tuple[np.ndarray, np.ndarray]:
    """(u, u_t) at t = 0 on the solver grid: the bump exp(-1/(1-rho^2)), 0 where
    rho^2 = |x - center|^2 / R^2 >= 1, and its d1, evaluated under one mask
    on the support's bounding box only."""
    xs = cfg.axis()
    shape = (xs.size, xs.size)
    if data.kind == "custom":
        f = np.zeros(shape) if data.f_grid is None else np.asarray(data.f_grid, float)
        g = np.zeros(shape) if data.g_grid is None else np.asarray(data.g_grid, float)
        if f.shape != shape or g.shape != shape:
            raise ValueError("custom data grids must match the solver grid")
        return data.eps * f, data.eps * g
    cx, cy = data.center
    R2 = data.R * data.R
    # the box of the support: a float rho^2 is never below either axis term
    box = tuple(_span((xs - c) ** 2 / R2 < 1.0, 0) for c in (cx, cy))
    dx = xs[box[0], None] - cx
    rho2 = (dx ** 2 + (xs[None, box[1]] - cy) ** 2) / R2
    inside = rho2 < 1.0
    gap = 1.0 - rho2[inside]
    # eps * f and eps * g with f = 0 and g = -dbump = -0.0 off the support
    u, u_t = np.full(shape, data.eps * 0.0), np.full(shape, data.eps * -0.0)
    bump = np.exp(-1.0 / gap)           # on the support only
    if data.kind == "smooth_bump":      # deriv_bump is g-only data
        u[box][inside] = data.eps * bump
    dbump = bump * (-2.0 * np.broadcast_to(dx, rho2.shape)[inside] / R2) / gap ** 2
    u_t[box][inside] = data.eps * -dbump
    return u, u_t


def _span(flags: np.ndarray, grow: int) -> slice:
    """First to last True flag grown by `grow` and clipped; empty if none is True."""
    on = np.flatnonzero(flags)
    ends = (int(on[0]) - grow, int(on[-1]) + 1 + grow) if on.size else (0, 0)
    return slice(max(ends[0], 0), min(ends[1], flags.size))


def _laplacian(u: np.ndarray, h: float) -> np.ndarray:
    out = np.zeros_like(u)
    out[1:-1, 1:-1] = (
        u[2:, 1:-1] + u[:-2, 1:-1] + u[1:-1, 2:] + u[1:-1, :-2]
        - 4.0 * u[1:-1, 1:-1]
    ) / h ** 2
    return out


def _gradients(u: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    ux = np.zeros_like(u)
    uy = np.zeros_like(u)
    ux[1:-1, :] = (u[2:, :] - u[:-2, :]) / (2.0 * h)
    uy[:, 1:-1] = (u[:, 2:] - u[:, :-2]) / (2.0 * h)
    return ux, uy


def apply_nonlinearity(
    coeffs: NonlinearityCoefficients,
    ut: np.ndarray, ux: np.ndarray, uy: np.ndarray,
) -> np.ndarray:
    """F(du) = sum B_jk d_j d_k + sum C_jkl d_j d_k d_l on grids."""
    d = (ut, ux, uy)
    out = np.zeros_like(ut)
    B, C = coeffs.B, coeffs.C
    for j in range(3):
        for k in range(3):
            if B[j, k] != 0.0:
                out += B[j, k] * d[j] * d[k]
            for l in range(3):
                if C[j, k, l] != 0.0:
                    out += C[j, k, l] * d[j] * d[k] * d[l]
    return out


def _folded_terms(coeffs: NonlinearityCoefficients, dt: float, h: float) -> tuple:
    """(kappa, index) of each nonzero term of F, B's then C's, per fixed-point sweep.

    A term c d_j d_k (d_l) of dt^2 F on raw differences d is kappa times
    their product, kappa = c dt^2 prod s with s_t = 1/dt (first sweep) or
    1/(2 dt) (second) and s_x = s_y = 1/(2h).  It is formed as c (dt s)(dt s) s
    from the O(1) factors dt s, so it is finite whenever 1/dt and 1/(2h) are.
    """
    B, C = coeffs.B, coeffs.C
    terms = [(float(B[i]), i) for i in np.ndindex(3, 3) if B[i]]
    terms += [(float(C[i]), i) for i in np.ndindex(3, 3, 3) if C[i]]
    sweeps = []
    for dt_st in (1.0, 0.5):
        dt_s, s = (dt_st, 0.5 * dt / h, 0.5 * dt / h), (dt_st / dt, 0.5 / h, 0.5 / h)
        sweeps.append([(c * dt_s[i[0]] * dt_s[i[1]] * math.prod(s[k] for k in i[2:]), i)
                       for c, i in terms])
    return tuple(sweeps)


def _row_hulls(a: np.ndarray, b: np.ndarray, box: tuple[slice, slice]) -> tuple[np.ndarray, ...]:
    """Per row i, the columns [lo_i, hi_i) from the first to the last nonzero
    cell of a or b, all of which lie in `box`; [_EMPTY, -_EMPTY) on a row
    where both are 0."""
    rows, cols = box
    nonzero = (a[box] != 0.0) | (b[box] != 0.0)
    # row by row: argmax over a reversed view would copy the whole mask
    lo, hi = np.full(len(a), _EMPTY), np.full(len(a), -_EMPTY)
    for i in np.flatnonzero(nonzero.any(axis=1)):
        on = np.flatnonzero(nonzero[i]) + cols.start
        lo[rows.start + i], hi[rows.start + i] = on[0], on[-1] + 1
    return lo, hi


def _aligned(size: int) -> np.ndarray:
    """An empty array of `size` doubles whose data start on a 64-byte boundary."""
    block = np.empty(size + 8)
    skip = (-block.ctypes.data % 64) // 8
    return block[skip:skip + size]


class LeapfrogSolver:
    """Leapfrog stepper with the fixed-point nonlinear update.

    The solver owns three level buffers and rotates them: `u_prev` and
    `u_cur` are its own memory (a copy of u and the Taylor level), and
    `advance()` writes the new level into the third buffer.  A level is
    overwritten by the third `advance()` after the one that made it
    current (so the level before `u_prev` is still there for `stream()`'s
    ray taps); copy it to keep it longer.

    Invariants of the fused step:

    * set-up: the level at t = dt and the first intervals are computed in
      the data's support box (`_taylor_level`), outside which the level is +0.0.
    * intervals: `_intervals` = (a, b), two intp arrays of length n; row
      i's columns [a_i, b_i) hold its nonzero cells of `u_cur` and its
      interior ones of `u_prev` (a_i >= b_i: none).  `_next` updates
      their dilation by the cross (`_grown`, into the spare pair
      `_spare_intervals`), and that is the next `_intervals`.
    * outside the updated intervals the output buffer is zero: it holds
      the level before `u_prev` or a writer's u_t (`_next`), and its
      boundary ring is zeroed on every step.
    * energy: `advance(with_energy=True)` returns E^2 at t from E's sums of
      squares, which `_next` takes from each finished strip's tiles with
      _sum_squares in the scratch the step already has (d_t = unew - up through
      `tmp`; d_x and d_y in `ux`, `uy` on runs with gradient terms, else
      through `tmp`).  The levels are the same bits with or without it.
    * strips: the rows from the first to the last non-empty interval are
      updated in row strips of about STRIP_CELLS cells of the intervals'
      bounding width, each taken through the stencil, the differences
      d_x, d_y (only when F has a spatial factor) and both fixed-point
      sweeps before the next strip starts.  A strip of empty rows is skipped.
    * constants: lam, 2 - 4 lam and each sweep's kappa are computed once,
      here; no strip pass divides, and every cfl takes the same path.
    * tiles: a strip [s0, s1) whose rows' intervals have the union
      [c0, c1) is worked on in contiguous copies W = c1 - c0 + 2 columns
      wide (a cell outside its row's interval computes +0.0).  `_tile`
      holds u_cur[s0-1:s1+1, c0-1:c1+1], the strip with its halo rows and
      pad columns; `up` holds u_prev[s0:s1, c0-1:c1+1], which a nonlinear
      step reads three times.  All arithmetic runs on flat slices of these,
      the new strip is built in `unew`, its pad columns are zeroed, its
      sum of squares is taken, and `out[s0:s1, c0:c1]` takes its real
      columns in one copy.  A level whose sum fails _GUARD_SCREEN goes to
      `_guard`.
    * alignment: `_tile` and each scratch role are one array each, made once,
      here, none larger than a level (freeing a larger block raises glibc's
      trim threshold), and start on a 64-byte boundary (`_aligned`; the tile's
      west and east views sit 8 bytes off), where numpy's AVX-512 loops write
      about twice as fast as off it.
    """

    def __init__(self, cfg: SolverConfig, data: InitialData):
        cfg.validate_domain(data.reach)
        u, u_t = make_initial_data(data, cfg)
        self.cfg = cfg
        self.h = cfg.h_eff
        self.dt = cfg.dt
        lam = (self.dt / self.h) ** 2
        self._stencil = (lam, 2.0 - 4.0 * lam)       # neighbour and centre weights
        self._sweeps = _folded_terms(cfg.nonlinearity, self.dt, self.h)
        self.linear = not self._sweeps[0]
        self._gradient_terms = any(any(index) for _, index in self._sweeps[0])
        self.initial = (u, u_t)          # the data at t = 0, for stream()
        # u + 0.0, not a copy: a -0.0 cell of u (eps < 0 off the support)
        # becomes the +0.0 that a full-grid step leaves outside the intervals
        self.u_prev = u + 0.0
        # the rows and columns of the data's nonzero cells grown by 2, where
        # stream() reads E and the leak at t = 0
        self.u_cur, self.data_box = self._taylor_level(u, u_t)
        for k, level in enumerate((self.u_prev, self.u_cur)):
            self._guard(level, k)
        self._spare = np.zeros_like(u)
        n = u.shape[0]
        # a strip is STRIP_CELLS cells, or one row when a row is longer; the
        # tile holds a strip and its two halo rows
        cells = max(STRIP_CELLS, n)
        self._tile = _aligned(cells + 2 * n)
        # up, unew, tmp, base, ut, rhs, ux, uy: None for a role the solver
        # does not use (base, ut, rhs on a linear step; ux, uy without d_x, d_y)
        used = (True,) * 3 + (not self.linear,) * 3 + (self._gradient_terms,) * 2
        self._scratch = [_aligned(cells) if on else None for on in used]
        self._intervals = _row_hulls(self.u_prev, self.u_cur, self.data_box)
        # _grown's output, swapped with _intervals on every step
        self._spare_intervals = np.empty(n, np.intp), np.empty(n, np.intp)
        self.step_index = 1          # u_cur lives at t = step_index * dt

    def _guard(self, level: np.ndarray, step_index: int) -> None:
        """Raise BlowUpError unless the level's max |u| is finite and within BLOWUP_GUARD."""
        # max and -min, not abs: read-only, and a NaN reaches both
        maxu = max(float(level.max()), -float(level.min()))
        if not maxu <= BLOWUP_GUARD:
            raise BlowUpError(step_index * self.dt, maxu)

    def _taylor_level(self, u: np.ndarray, ut: np.ndarray) -> tuple[np.ndarray, tuple[slice, ...]]:
        """Second-order accurate level at t = dt from (u, u_t) at t = 0, and
        its box: the rows and columns of the nonzero cells of u and u_t, grown
        by 2 and clipped.  On and outside its edge a cell's stencil reads only
        signed zeros, so the full-grid formula gives +0.0 there, as the level holds."""
        box = tuple(_span(np.any(u, axis=k) | np.any(ut, axis=k), 2) for k in (1, 0))
        level = np.zeros_like(u)
        u, ut = u[box], ut[box]
        dt = self.dt
        # overflow is left to the blow-up guard, which reports it
        with np.errstate(over="ignore", invalid="ignore"):
            rhs = _laplacian(u, self.h)
            # taken on linear runs too (perfbench times this call)
            ux, uy = _gradients(u, self.h)
            # a linear F adds the scalar 0.0, which turns a -0.0 cell into +0.0
            rhs += 0.0 if self.linear else apply_nonlinearity(self.cfg.nonlinearity, ut, ux, uy)
            del ux, uy
            level[box] = u + dt * ut + 0.5 * dt ** 2 * rhs
        self._zero_boundary(level)
        return level, box

    @staticmethod
    def _zero_boundary(u: np.ndarray) -> None:
        u[0, :] = u[-1, :] = 0.0
        u[:, 0] = u[:, -1] = 0.0

    def _grown(self) -> tuple[np.ndarray, np.ndarray]:
        """The intervals dilated by the cross, a'_i = min(a_{i-1}, a_i - 1, a_{i+1})
        and b'_i = max(b_{i-1}, b_i + 1, b_{i+1}), clipped to the interior,
        written into the spare pair."""
        a, b = self._intervals
        n = a.size
        grown = self._spare_intervals
        for row in (0, n - 1):                          # rows 0 and n-1 stay empty
            grown[0][row], grown[1][row] = _EMPTY, -_EMPTY
        lo, hi = grown[0][1:-1], grown[1][1:-1]
        np.maximum(np.minimum(np.minimum(a[:-2], a[2:], out=lo), a[1:-1] - 1, out=lo), 1, out=lo)
        np.minimum(np.maximum(np.maximum(b[:-2], b[2:], out=hi), b[1:-1] + 1, out=hi), n - 1, out=hi)
        return grown

    def _next(self, intervals: tuple[np.ndarray, np.ndarray],
              with_energy: bool) -> tuple[np.ndarray, float, float, float]:
        """The next level over `intervals` in the spare buffer, its sum of
        squares, and, `with_energy`, E^2's sums of squares (else 0.0, 0.0).

        unew = lam (N + S + E + W) + (2 - 4 lam) uc - up, plus on a
        nonlinear step sum kappa * prod d over F's terms with d_x = S - N,
        d_y = E - W, and d_t = uc - up on the first fixed-point sweep and
        unew - up on the second.  Bitwise tests/test_wave.py::_full_grid_next.
        The spare buffer is zero outside `intervals` bar its ring, zeroed here:
        it holds the level before u_prev or a writer's u_t (`stream`), both
        nonzero inside only the current intervals, which `intervals` dilate.

        E^2's sums, `with_energy`: sum d_t^2 with d_t = unew - up, the
        levels at t + dt and t - dt, and sum (d_x^2 + d_y^2) of the level at
        t, as `energy` takes them over whole levels.  Each finished strip's
        tiles give them, as the tiles hold every nonzero d:
        * the level at t is nonzero only inside the previous intervals, whose
          dilation by the cross the updated ones are, so its d_x and d_y
          vanish outside them;
        * the level at t - dt is nonzero only inside smaller intervals, and
          the new level only inside these, so d_t vanishes outside them too;
        * on the boundary ring d_x = d_y = 0 by definition, and d_t = -up is
          nonzero only where the data at t = 0 (up on the first step) is.
          An interior row's boundary cells are pad columns of its tile,
          where d_t is exact once unew's pads are zeroed; rows 0 and n - 1,
          in no strip, are summed apart.
        d_x and d_y are zeroed on the pads, where d_y reads the neighbouring
        rows and d_x is 0.
        """
        out = self._spare
        self._zero_boundary(out)
        sum_t = sum_d = 0.0
        if with_energy:                         # d_t = -u_prev on rows 0 and n - 1
            sum_t = _sum_squares(self.u_prev[0]) + _sum_squares(self.u_prev[-1])
        a, b = intervals
        live = np.flatnonzero(a < b)            # the rows of non-empty intervals
        if not live.size:
            return out, 0.0, float(sum_t), sum_d
        r0, r1 = int(live[0]), int(live[-1]) + 1
        # the first rows of strips [s0, s1) of about STRIP_CELLS cells of the
        # intervals' bounding width, or of one row when a row is longer
        starts = np.arange(r0, r1, max(1, STRIP_CELLS // (int(b.max() - a.min()) + 2)),
                           dtype=np.intp)
        edges = starts.tolist() + [r1]
        # per strip, the union [c0, c1) of its rows' intervals
        unions = zip(np.minimum.reduceat(a[:r1], starts).tolist(),
                     np.maximum.reduceat(b[:r1], starts).tolist())
        lam, centre = self._stencil
        sumsq, shape = 0.0, None
        with np.errstate(over="ignore", invalid="ignore"):
            for (s0, s1), (c0, c1) in zip(zip(edges, edges[1:]), unions):
                if c0 >= c1:            # every row of the strip is empty
                    continue
                rows, W = s1 - s0, c1 - c0 + 2      # W: the union's columns and two pads
                cells = rows * W
                if (rows, W) != shape:
                    shape = rows, W
                    up, unew, tmp, base, ut, rhs, ux, uy = [
                        None if buf is None else buf[:cells] for buf in self._scratch]
                    base = unew if base is None else base   # a linear step builds unew
                    tile = self._tile[:cells + 2 * W]
                    # cell k of the strip is tile[W + k]; its neighbours are
                    # W away (north, south) and 1 away (west, east)
                    uc, north, south = tile[W:W + cells], tile[:cells], tile[2 * W:]
                    west, east = tile[W - 1:W - 1 + cells], tile[W + 1:W + 1 + cells]
                np.copyto(tile.reshape(rows + 2, W), self.u_cur[s0 - 1:s1 + 1, c0 - 1:c1 + 1])
                np.copyto(up.reshape(rows, W), self.u_prev[s0:s1, c0 - 1:c1 + 1])
                np.add(south, north, out=base)
                base += east
                base += west
                base *= lam
                np.multiply(uc, centre, out=tmp)
                base += tmp
                base -= up
                if not self.linear:
                    if self._gradient_terms:
                        np.subtract(south, north, out=ux)
                        np.subtract(east, west, out=uy)
                    for terms, level in zip(self._sweeps, (uc, unew)):
                        np.subtract(level, up, out=ut)
                        self._force_into(rhs, (ut, ux, uy), tmp, terms)
                        np.add(base, rhs, out=unew)
                grid = unew.reshape(rows, W)
                grid[:, 0] = grid[:, -1] = 0.0          # the pad columns' garbage
                sumsq += np.dot(unew, unew)
                out[s0:s1, c0:c1] = grid[:, 1:-1]
                if with_energy:
                    np.subtract(unew, up, out=tmp)
                    sum_t += _sum_squares(tmp)
                    for d, (later, earlier) in zip((ux, uy), ((south, north), (east, west))):
                        if d is None:           # no gradient terms: d_x, d_y go through tmp
                            d = np.subtract(later, earlier, out=tmp)
                        pads = d.reshape(rows, W)
                        pads[:, 0] = pads[:, -1] = 0.0
                        sum_d += _sum_squares(d)
        return out, float(sumsq), float(sum_t), float(sum_d)

    @staticmethod
    def _force_into(out: np.ndarray, d: tuple, tmp: np.ndarray, terms: list) -> None:
        """sum kappa * prod d over one sweep's (kappa, index) `terms` into out,
        d = (d_t, d_x, d_y) the raw differences; later terms go through tmp."""
        for k, (kappa, index) in enumerate(terms):
            term = tmp if k else out
            np.multiply(kappa, d[index[0]], out=term)
            for i in index[1:]:
                term *= d[i]
            if k:
                out += tmp

    def advance(self, with_energy: bool = False) -> Optional[float]:
        """Step from t to t + dt; `with_energy`, return E^2 at t, which
        energy(u(t), (u(t + dt) - u(t - dt)) / (2 dt), h) gives over whole
        levels to round-off."""
        intervals = self._grown()
        unew, sumsq, sum_t, sum_d = self._next(intervals, with_energy)
        if not sumsq <= _GUARD_SCREEN:
            self._guard(unew, self.step_index + 1)
        self._spare, self.u_prev, self.u_cur = self.u_prev, self.u_cur, unew
        self._intervals, self._spare_intervals = intervals, self._intervals
        self.step_index += 1
        return _squared_energy(sum_t, sum_d, 0.5 * self.h / self.dt) if with_energy else None

    @property
    def t(self) -> float:
        return self.step_index * self.dt


def energy(u: np.ndarray, u_t: np.ndarray, h: float) -> float:
    """Discrete 0.5 * int |du|^2 dx (squared energy norm) on a grid of spacing h.

    With the gradients as raw differences, d_x = u[i+1, j] - u[i-1, j] on
    interior rows and d_y = u[i, j+1] - u[i, j-1] on interior columns (both
    zero elsewhere),

        E^2 = h^2/2 * sum u_t^2 + 1/8 * sum (d_x^2 + d_y^2),

    so no pass divides.  Each sum of squares (_sum_squares) is taken over
    a buffer of u's shape, which holds u_t, then d_x, then d_y.  Three
    buffers would raise the t = 0 peak of `stream` on a wide data box.
    """
    n, m = u.shape
    if not u.size:
        return 0.0
    grid = np.empty((n, m))
    flat = grid.reshape(-1)
    np.copyto(grid, u_t)
    sum_t = _sum_squares(flat)
    rows = max(n - 2, 0)                    # the rows with a d_x
    d = flat[:rows * m]
    np.subtract(u[2:], u[:-2], out=d.reshape(rows, m))
    sum_x = _sum_squares(d)
    np.subtract(u[:, 2:], u[:, :-2], out=grid[:, 1:-1])
    grid[:, 0] = grid[:, -1] = 0.0          # d_y is 0 on the edge columns
    return _squared_energy(sum_t, sum_x + _sum_squares(flat), h)


def _sum_squares(x: np.ndarray) -> float:
    """Sum of squares of the flat x in dot products of _SUM_PIECE elements, added
    in order: OpenBLAS threads longer ones, so their bits follow the thread count."""
    total = 0.0
    for k in range(0, x.size, _SUM_PIECE):
        piece = x[k:k + _SUM_PIECE]
        total += np.dot(piece, piece)
    return total


def _squared_energy(sum_t: float, sum_d: float, scale: float) -> float:
    """E^2 = scale^2/2 * sum_t + 1/8 * sum_d from the sums of squares of the raw
    time differences (scale h/(2 dt)) or of u_t (scale h) and of d_x, d_y."""
    return float(0.5 * scale * scale * sum_t + 0.125 * sum_d)


def _inside_columns(xs: np.ndarray, cone: float, rows=slice(None)) -> tuple[np.ndarray, ...]:
    """Per row i of `rows`, the columns [a_i, b_i) of the cells with hypot(x_i, x_j) <= cone.

    |x_j| falls then rises along a row, so those cells are one interval.
    searchsorted on the axis for +-sqrt(cone^2 - x_i^2) places its ends to
    within rounding (a row with x_i^2 > cone^2 holds no cell, as hypot(x_i,
    x_j) >= |x_i|), and the hypot test of a whole-grid mask then moves each
    end a cell at a time until it sits exactly on that mask's edge.
    """
    x_rows = xs[rows]
    d = cone * cone - x_rows * x_rows
    half = np.sqrt(np.maximum(d, 0.0))
    a = xs.searchsorted(-half, side="left")
    b = np.where(d < 0.0, a, xs.searchsorted(half, side="right"))
    # column n, and column -1 through the wrap, lie beyond the grid: outside
    x_pad = np.concatenate((xs, [np.inf]))

    def inside(j: np.ndarray) -> np.ndarray:
        return np.hypot(x_rows, x_pad[j]) <= cone

    # shrink first, so an end only grows from a cell that is inside
    while (move := (a < b) & ~inside(a)).any():
        a += move
    while (move := (b > a) & ~inside(b - 1)).any():
        b -= move
    while (move := inside(a - 1)).any():
        a -= move
    while (move := inside(b)).any():
        b += move
    return a, b


def check_propagation(u: np.ndarray, t: float, h: float, L: float, reach: float,
                      rows: Optional[tuple[int, int]] = None) -> float:
    """max |u| outside the slack cone |x| > slack_cone(t, reach, h); u spans [-L, L]^2.

    Only the rows [r0, r1) = `rows` are read when given, as they hold every
    nonzero cell.  The cells inside the cone take the columns [a_i, b_i)
    of row i (_inside_columns), so in the flattened rows the cells outside
    are the runs between those intervals, which np.maximum.reduceat and
    np.minimum.reduceat read without writing.  max |u| is then max(max u,
    -min u), and a NaN outside the cone reaches the result.  0.0 when no
    cell is outside.
    """
    n = u.shape[0]
    if u.shape != (n, n):   # the run edges below index an n x n level
        raise ValueError(f"u must be a square level, got shape {u.shape}")
    r0, r1 = rows or (0, n)
    a, b = _inside_columns(np.linspace(-L, L, n), slack_cone(t, reach, h), slice(r0, r1))
    crossing = (a < b).nonzero()[0]
    size = (r1 - r0) * n
    # edges of the inside runs, between a leading 0 and a closing `size`:
    # consecutive pairs are then the outside runs
    edges = np.empty(2 * crossing.size + 2, dtype=np.intp)
    edges[0], edges[-1] = 0, size
    edges[1:-1:2] = crossing * n + a[crossing]
    edges[2:-1:2] = crossing * n + b[crossing]
    runs = edges.reshape(-1, 2)
    # reduceat gives an element, not an empty max, for an empty run
    runs = runs[runs[:, 0] < runs[:, 1]].reshape(-1)
    if not runs.size:
        return 0.0
    # reduceat reduces [idx[k], idx[k + 1]), the last to the end: the outside
    # runs are the even entries, and the inside cells between them the odd
    idx = runs[:-1] if runs[-1] == size else runs
    flat = u[r0:r1].reshape(-1)
    peak = np.maximum(np.maximum.reduceat(flat, idx)[::2].max(),
                      -np.minimum.reduceat(flat, idx)[::2].min())
    return float(peak) + 0.0        # + 0.0: a -0.0 reads 0.0, as |u| does


def _ray_w(u: np.ndarray, r: float, omega: Direction, h: float, L: float) -> Optional[float]:
    """sqrt(r) * u at r*omega, bilinear in its grid cell; None off the grid.

    The cell test is on the floats, so an inf or NaN coordinate fails it
    before int(), which floors the fx, fy >= 0 that pass.
    """
    fx = (r * omega.omega1 + L) / h
    fy = (r * omega.omega2 + L) / h
    n = u.shape[0]
    if not (0.0 <= fx < n - 1 and 0.0 <= fy < n - 1):
        return None
    i, j = int(fx), int(fy)
    ax, ay = fx - i, fy - j
    return math.sqrt(r) * float(
        u[i, j] * (1 - ax) * (1 - ay)
        + u[i + 1, j] * ax * (1 - ay)
        + u[i, j + 1] * (1 - ax) * ay
        + u[i + 1, j + 1] * ax * ay
    )


def _ray_V(
    levels: tuple[np.ndarray, np.ndarray, np.ndarray], t: float, sigma: float,
    omega: Direction, h: float, L: float, dt: float,
) -> Optional[float]:
    """V = (w_r - w_t)/2 at r = t + sigma from the levels at t - dt, t, t + dt.

    w = sqrt(r) u; w_r is a centered difference on the middle level, w_t
    one across the outer levels, from four _ray_w reads.  None when t is
    before the ray start, when a read is None because the stencil leaves
    the grid, or when, at r < h, the stencil crosses the origin.
    """
    r = t + sigma
    if t < ray_start(sigma) or r < h:
        return None
    u_m, u_c, u_p = levels
    wr_p = _ray_w(u_c, r + h, omega, h, L)
    wr_m = _ray_w(u_c, r - h, omega, h, L)
    wt_p = _ray_w(u_p, r, omega, h, L)
    wt_m = _ray_w(u_m, r, omega, h, L)
    if None in (wr_p, wr_m, wt_p, wt_m):
        return None
    w_r = (wr_p - wr_m) / (2.0 * h)
    w_t = (wt_p - wt_m) / (2.0 * dt)
    return 0.5 * (w_r - w_t)


@dataclass(frozen=True)
class RayTap:
    sigma: float
    omega: Direction
    stride: int = 2        # sample every this many steps

    def __post_init__(self):
        if not math.isfinite(self.sigma):
            raise ValueError("ray sigma must be finite")
        stride = self.stride
        if isinstance(stride, bool) or not isinstance(stride, numbers.Integral) or stride < 1:
            raise ValueError("ray stride must be an integer >= 1")


@dataclass
class RunResult:
    checkpoints: list   # every Checkpoint of the run, t = 0 first
    energy: EnergySeries
    diagnostics: dict
    profiles: dict


@dataclass(frozen=True)
class Checkpoint:
    """Diagnostics at time t; the level itself goes only to a writer (`stream`)."""

    t: float
    E: float            # energy norm sqrt(energy(u, u_t, h))
    leak: float         # check_propagation(u, t, h, L, data.reach)
    samples: list       # per ray tap, the (t, V) taken since the previous checkpoint


Writer = Callable[[int, Checkpoint, np.ndarray, np.ndarray], None]


def stream(cfg: SolverConfig, data: InitialData, rays: Sequence[RayTap] = (),
           write: Optional[Writer] = None) -> Iterator[Checkpoint]:
    """Advance to T, yielding each checkpoint as it is made: t = 0, every
    checkpoint_interval, and T.  Ray taps sample V(t) from the three live levels.

    A checkpoint holds t, E, the leak and the samples.  At t = 0 E and the
    leak are read in the data's box (LeapfrogSolver.data_box), outside
    which u, u_t and their differences are zero.  After t = 0 the step that
    makes the level at t + dt also returns E^2 at t (LeapfrogSolver.advance),
    and the leak is read over the live rows, the first to the last row with
    a non-empty solver interval: the level at t is zero outside them.

    Only write(index, checkpoint, u, u_t), when given, sees each checkpoint
    (index 0 is t = 0) with u and u_t: read-only views, not copies, of the
    solver's level and of the centered u_t (at t = 0, of the data), formed
    over u(t - dt) in the spare buffer once the ray taps have read it.  They
    are valid until write returns, as the solver overwrites its levels.
    """
    solver = LeapfrogSolver(cfg, data)
    dt, h, L = solver.dt, solver.h, cfg.L
    nsteps = cfg.steps
    ckpt_every = max(1, int(round(cfg.checkpoint_interval / dt)))
    written = itertools.count()

    def checkpoint(t: float, u: np.ndarray, E2: float, rows, samples: list,
                   u_t: Optional[np.ndarray]) -> Checkpoint:
        """The checkpoint of the level u at t; a writer sees it with u and u_t."""
        ckpt = Checkpoint(t, math.sqrt(E2), check_propagation(u, t, h, L, data.reach, rows),
                          samples)
        if write is not None:
            u, u_t = u.view(), u_t.view()
            u.flags.writeable = u_t.flags.writeable = False
            write(next(written), ckpt, u, u_t)
        return ckpt

    (u, u_t), box = solver.initial, solver.data_box
    yield checkpoint(0.0, u, energy(u[box], u_t[box], h), (box[0].start, box[0].stop),
                     [[] for _ in rays], u_t)
    del solver.initial, u, u_t
    samples = [[] for _ in rays]
    for n in range(1, nsteps + 1):
        u_prevprev = solver.u_prev
        at_checkpoint = n % ckpt_every == 0 or n == nsteps
        E2 = solver.advance(with_energy=at_checkpoint)
        # levels now: u_prevprev at t-dt, solver.u_prev at t, solver.u_cur
        # at t+dt, so everything centered at t is available
        t_mid = solver.t - dt
        levels = (u_prevprev, solver.u_prev, solver.u_cur)
        for tap, taken in zip(rays, samples):
            if n % tap.stride:
                continue
            v = _ray_V(levels, t_mid, tap.sigma, tap.omega, h, L, dt)
            if v is not None:
                taken.append((t_mid, v))
        if not at_checkpoint:
            continue
        live = np.flatnonzero(np.less(*solver._intervals))
        r0, r1 = (live[0], live[-1] + 1) if live.size else (0, 0)
        # the taps have read u_prevprev, the spare buffer: a writer's u_t replaces it
        yield checkpoint(t_mid, solver.u_prev, E2, (r0, r1), samples,
                         None if write is None else _centered(solver.u_cur, u_prevprev, dt))
        samples = [[] for _ in rays]


def _centered(later: np.ndarray, earlier: np.ndarray, dt: float) -> np.ndarray:
    """u_t = (later - earlier) / (2 dt) of the levels at t +- dt, formed in `earlier`."""
    u_t = np.subtract(later, earlier, out=earlier)
    u_t *= 0.5 / dt
    return u_t


def run(cfg: SolverConfig, data: InitialData, rays: Sequence[RayTap] = (),
        write: Optional[Writer] = None) -> RunResult:
    """Every checkpoint of stream(cfg, data, rays, write), as t, E, the leak
    and the samples, with its energy series and ray profiles."""
    kept = list(stream(cfg, data, rays, write))
    profiles = {}
    for i, tap in enumerate(rays):
        taken = [s for c in kept for s in c.samples[i]]
        if taken:
            times, V = (np.array(column) for column in zip(*taken))
            profiles[i] = ProfileSeries(
                times=times, V=V, G=np.zeros_like(V), Phi=np.zeros_like(V), sigma=tap.sigma
            )
    return RunResult(
        checkpoints=kept,
        energy=EnergySeries(
            times=np.array([c.t for c in kept]), E=np.array([c.E for c in kept])
        ),
        diagnostics={
            "max_propagation_leak": max(c.leak for c in kept),
            "dt": cfg.dt,
            "h": cfg.h_eff,
            "steps": cfg.steps,
        },
        profiles=profiles,
    )
