"""Finite-difference laboratory for Box u = F(du) on R^2.

Explicit leapfrog with the 5-point Laplacian on a square grid, Dirichlet
outer boundary that the light cone never reaches, compactly supported
smooth data.  The time derivative entering F is resolved by two fixed
point iterations of the implicit centered difference.  Alongside the
solver: discrete energy, finite-propagation diagnostics, and ray taps
that stream the outgoing ray profile V(t) = U(t, (t+sigma) omega) with
U = (d_r - d_t)(sqrt(r) u)/2 during the run, which feeds the profile
ODE module.

The step and `energy` run over the level in row strips of about
STRIP_CELLS cells (_row_strips), so their scratch stays in cache.  A
checkpoint reads E and the leak over the live rows only and allocates
nothing level-sized; only a writer gets its u and u_t (`stream`).
Level-sized memory kept alive across checkpoints would change glibc's
malloc state, which perfbench's host-scale kernel reads as another host.

The step is one fused kernel (LeapfrogSolver._next) with two invariants:

* it updates only the discrete domain of dependence: the bounding box
  of the nonzero cells of the two starting levels, grown by one cell
  per step and clipped to the interior.  Both stencils have radius 1
  and F(0) = 0, so every cell outside the box is exactly zero.
* it runs over the box in row strips of about STRIP_CELLS cells, each
  taken through the stencil and both fixed-point sweeps while its
  scratch arrays are in cache.

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
zeroed before its peak is taken, and one strided copy writes its real
columns back into the level.  `energy` follows the same rule.
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
# Cells in one row strip of the fused step and of `energy`.  A
# strip's scratch arrays (128 kB each) stay in cache, where a numpy ufunc
# costs ~0.4 ns per element against ~1.3 ns on a whole 401^2 level.
STRIP_CELLS = 16384


def _row_strips(r0: int, r1: int, width: int) -> Iterator[tuple[int, int]]:
    """Row ranges [s0, s1) that cover [r0, r1) in strips of about STRIP_CELLS
    cells of a `width`-column region, or one row when a row is longer."""
    step_rows = max(1, STRIP_CELLS // width)
    for s0 in range(r0, r1, step_rows):
        yield s0, min(s0 + step_rows, r1)


def slack_cone(t: float, reach: float, h: float) -> float:
    """Radius t + reach + 4h that data reaching `reach` cannot leave by time t."""
    return t + reach + PROPAGATION_SLACK_CELLS * h


class BlowUpError(RuntimeError):
    def __init__(self, t: float, maxu: float):
        super().__init__(f"max|u| = {maxu:.3e} at t = {t:.3f} exceeded the guard")
        self.t = t
        self.maxu = maxu


class RayOutsideDomain(ValueError):
    pass


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
    rho^2 = |x - center|^2 / R^2 >= 1, and its d1, evaluated under one mask."""
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
    dx = xs[:, None] - cx
    rho2 = (dx ** 2 + (xs[None, :] - cy) ** 2) / R2
    inside = rho2 < 1.0
    gap = 1.0 - rho2[inside]
    f, dbump = np.zeros(shape), np.zeros(shape)
    bump = np.exp(-1.0 / gap)           # on the support only
    if data.kind == "smooth_bump":      # deriv_bump is g-only data
        f[inside] = bump
    dbump[inside] = bump * (-2.0 * np.broadcast_to(dx, shape)[inside] / R2) / gap ** 2
    # g = -dbump over the whole level, so u_t is -0.0 outside the support
    return data.eps * f, data.eps * -dbump


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


def _nonzero_box(a: np.ndarray, b: np.ndarray) -> Optional[tuple[int, int, int, int]]:
    """(r0, r1, c0, c1) bounding the nonzero cells of a and b; None if both are 0."""
    nonzero = (a != 0.0) | (b != 0.0)
    rows = np.flatnonzero(nonzero.any(axis=1))
    cols = np.flatnonzero(nonzero.any(axis=0))
    if not rows.size:
        return None
    return int(rows[0]), int(rows[-1]) + 1, int(cols[0]), int(cols[-1]) + 1


class LeapfrogSolver:
    """Leapfrog stepper with the fixed-point nonlinear update.

    The solver owns three level buffers and rotates them: `u_prev` and
    `u_cur` are its own memory (a copy of u and the Taylor level), and
    `advance()` writes the new level into the third buffer.  A level is
    overwritten by the third `advance()` after the one that made it
    current (so the level before `u_prev` is still there for `stream()`'s
    ray taps); copy it to keep it longer.

    Invariants of the fused step:

    * box: `_box` = (r0, r1, c0, c1) holds every nonzero cell of `u_cur`
      and every interior nonzero cell of `u_prev`; None when both are
      zero.  `_next` updates only the box grown by one cell and clipped
      to the interior [1, n-1), and that region is the next `_box`.
    * outside the updated region the output buffer is zero: it holds
      the level before `u_prev`, whose interior support lies in a
      smaller box, and its boundary ring is zeroed on every step.
    * strips: the region is updated in row strips of about STRIP_CELLS
      cells, each taken through the stencil, the differences d_x, d_y
      (only when F has a spatial factor) and both fixed-point sweeps
      before the next strip starts.
    * constants: lam, 2 - 4 lam and each sweep's kappa are computed once,
      here; no strip pass divides, and every cfl takes the same path.
    * tiles: a strip [s0, s1) of the region (r0, r1, c0, c1) is worked on
      in contiguous copies W = c1 - c0 + 2 columns wide.  `_tile` holds
      u_cur[s0-1:s1+1, c0-1:c1+1], the strip with its halo rows and pad
      columns; `up` holds u_prev[s0:s1, c0-1:c1+1], which a nonlinear step
      reads three times.  All arithmetic runs on flat slices of these,
      the new strip is built in `unew`, its pad columns are zeroed, its
      peak is read as max and -min, and `out[s0:s1, c0:c1]` takes its
      real columns in one copy.  The scratch is strip-sized and made
      once, here; nothing level-sized is kept beyond the three levels.
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
        # becomes the +0.0 that a full-grid step leaves outside the box
        self.u_prev, self.u_cur = u + 0.0, self._taylor_level(u, u_t)
        for k, level in enumerate((self.u_prev, self.u_cur)):
            self._guard(max(float(level.max()), -float(level.min())), k)
        self._spare = np.zeros_like(u)
        n = u.shape[0]
        # a strip is STRIP_CELLS cells, or one row when a row is longer.
        # One array per role _next uses, none larger than a level: freeing
        # a larger block raises glibc's dynamic trim threshold, which
        # changes the cost of every later level-sized temporary in the
        # process.  The tile holds a strip and its two halo rows.
        cells = max(STRIP_CELLS, n)
        self._tile = np.empty(cells + 2 * n)
        roles = ["up", "unew", "tmp"]
        if not self.linear:
            roles += ["base", "ut", "rhs"]
        if self._gradient_terms:
            roles += ["ux", "uy"]
        self._scratch = {role: np.empty(cells) for role in roles}
        self._box = _nonzero_box(self.u_prev, self.u_cur)
        self.step_index = 1          # u_cur lives at t = step_index * dt

    def _guard(self, maxu: float, step_index: int) -> None:
        """Raise BlowUpError unless a level's max |u| is finite and within BLOWUP_GUARD."""
        if not maxu <= BLOWUP_GUARD:
            raise BlowUpError(step_index * self.dt, maxu)

    def _taylor_level(self, u: np.ndarray, ut: np.ndarray) -> np.ndarray:
        """Second-order accurate level at t = dt from (u, u_t) at t = 0."""
        dt = self.dt
        # overflow is left to the blow-up guard, which reports it
        with np.errstate(over="ignore", invalid="ignore"):
            rhs = _laplacian(u, self.h)
            # taken on linear runs too (perfbench times this call), and freed before
            # the level is formed, so its temporaries do not come on top of them
            ux, uy = _gradients(u, self.h)
            # a linear F adds the scalar 0.0, which turns a -0.0 cell into +0.0
            rhs += 0.0 if self.linear else apply_nonlinearity(self.cfg.nonlinearity, ut, ux, uy)
            del ux, uy
            level = u + dt * ut + 0.5 * dt ** 2 * rhs
        self._zero_boundary(level)
        return level

    @staticmethod
    def _zero_boundary(u: np.ndarray) -> None:
        u[0, :] = u[-1, :] = 0.0
        u[:, 0] = u[:, -1] = 0.0

    def _region(self) -> Optional[tuple[int, int, int, int]]:
        """The box grown by one cell, clipped to the interior."""
        if self._box is None:
            return None
        r0, r1, c0, c1 = self._box
        n = self.u_cur.shape[0]
        return max(r0 - 1, 1), min(r1 + 1, n - 1), max(c0 - 1, 1), min(c1 + 1, n - 1)

    def _next(self) -> tuple[np.ndarray, float]:
        """The next level, written into the spare buffer, and its max |u|.

        unew = lam (N + S + E + W) + (2 - 4 lam) uc - up, plus on a
        nonlinear step sum kappa * prod d over F's terms with d_x = S - N,
        d_y = E - W, and d_t = uc - up on the first fixed-point sweep and
        unew - up on the second.  Bitwise tests/test_wave.py::_full_grid_next.
        """
        out = self._spare
        self._zero_boundary(out)
        region = self._region()
        if region is None:
            return out, 0.0
        r0, r1, c0, c1 = region
        W = c1 - c0 + 2                 # tile width: the region's columns and two pads
        lam, centre = self._stencil
        peak, size = 0.0, 0
        with np.errstate(over="ignore", invalid="ignore"):
            for s0, s1 in _row_strips(r0, r1, W):
                rows = s1 - s0
                cells = rows * W
                if cells != size:       # the first strip, and a shorter last one
                    size = cells
                    strip = {role: buf[:cells] for role, buf in self._scratch.items()}
                    # None for the roles a solver does not use
                    up, unew, tmp, ut, rhs, ux, uy = map(
                        strip.get, ("up", "unew", "tmp", "ut", "rhs", "ux", "uy"))
                    base = strip.get("base", unew)      # a linear step builds unew
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
                # max and -min, not abs: read-only, and a NaN still reaches the guard
                peak = np.maximum(peak, np.maximum(unew.max(), -unew.min()))
                out[s0:s1, c0:c1] = grid[:, 1:-1]
        return out, float(peak)

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

    def advance(self) -> None:
        unew, m = self._next()
        self._guard(m, self.step_index + 1)
        self._spare, self.u_prev, self.u_cur = self.u_prev, self.u_cur, unew
        self._box = self._region()
        self.step_index += 1

    @property
    def t(self) -> float:
        return self.step_index * self.dt


def energy(u: np.ndarray, u_t, h: float, dt: Optional[float] = None) -> float:
    """Discrete 0.5 * int |du|^2 dx (squared energy norm) on a grid of spacing h.

    u_t is the level of u_t or, given dt, the pair of levels (u(t + dt),
    u(t - dt)) whose centered difference it is.  With the gradients as raw
    differences, d_x = u[i+1, j] - u[i-1, j] on interior rows and d_y =
    u[i, j+1] - u[i, j-1] on interior columns (both zero elsewhere),

        E^2 = h^2/2 * sum u_t^2 + 1/8 * sum (d_x^2 + d_y^2),

    so no pass divides.  Each sum of squares is a read-only dot product
    taken strip by strip while it is in cache; the only scratch is one
    strip-sized buffer, freed on return (see the module docstring).
    """
    n, m = u.shape
    sum_t = sum_d = 0.0
    buf = np.empty(max(STRIP_CELLS, m))         # one strip's differences
    for s0, s1 in _row_strips(0, n, m):
        if dt is None:
            # einsum sums a strided run in another order: read a contiguous one
            d = np.ascontiguousarray(u_t[s0:s1]).reshape(-1)
        else:
            d = buf[:(s1 - s0) * m]
            np.subtract(u_t[0][s0:s1], u_t[1][s0:s1], out=d.reshape(s1 - s0, m))
        sum_t += np.einsum("i,i->", d, d)
        i0, i1 = max(s0, 1), min(s1, n - 1)     # rows with a d_x
        d = buf[:(i1 - i0) * m]
        np.subtract(u[i0 + 1:i1 + 1], u[i0 - 1:i1 - 1], out=d.reshape(i1 - i0, m))
        sum_d += np.einsum("i,i->", d, d)
        # d_y over the strip's full rows as one flat run: cell k takes cells
        # k +- 1, so each row's two edge cells read a neighbour row and are
        # zeroed (d_y is 0 there)
        flat = u[s0:s1].reshape(-1)
        d = buf[:flat.size]
        np.subtract(flat[2:], flat[:-2], out=d[1:-1])
        rows = d.reshape(s1 - s0, m)
        rows[:, 0] = rows[:, -1] = 0.0
        sum_d += np.einsum("i,i->", d, d)
    scale = h if dt is None else 0.5 * h / dt
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


def _bilinear(u: np.ndarray, x: float, y: float, h: float, L: float) -> float:
    fx = (x + L) / h
    fy = (y + L) / h
    i, j = int(math.floor(fx)), int(math.floor(fy))
    n = u.shape[0]
    if i < 0 or j < 0 or i + 1 >= n or j + 1 >= n:
        raise RayOutsideDomain(f"point ({x}, {y}) outside the grid")
    ax, ay = fx - i, fy - j
    return float(
        u[i, j] * (1 - ax) * (1 - ay)
        + u[i + 1, j] * ax * (1 - ay)
        + u[i, j + 1] * (1 - ax) * ay
        + u[i + 1, j + 1] * ax * ay
    )


def _ray_w(u: np.ndarray, r: float, omega: Direction, h: float, L: float) -> float:
    """sqrt(r) * u at the point r*omega."""
    x, y = r * omega.omega1, r * omega.omega2
    return math.sqrt(r) * _bilinear(u, x, y, h, L)


def _ray_V(
    levels: tuple[np.ndarray, np.ndarray, np.ndarray], t: float, sigma: float,
    omega: Direction, h: float, L: float, dt: float,
) -> Optional[float]:
    """V = (w_r - w_t)/2 at r = t + sigma from the levels at t - dt, t, t + dt.

    w = sqrt(r) u; w_r is a centered difference on the middle level, w_t
    one across the outer levels.  None when t is before the ray start or
    the stencil leaves the grid or, at r < h, crosses the origin.
    """
    r = t + sigma
    if t < ray_start(sigma) or r < h:
        return None
    u_m, u_c, u_p = levels
    try:
        wr_p = _ray_w(u_c, r + h, omega, h, L)
        wr_m = _ray_w(u_c, r - h, omega, h, L)
        wt_p = _ray_w(u_p, r, omega, h, L)
        wt_m = _ray_w(u_m, r, omega, h, L)
    except RayOutsideDomain:
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
    checkpoints: list   # every Checkpoint of the run, t = 0 first, without its levels
    energy: EnergySeries
    diagnostics: dict
    profiles: dict


@dataclass
class Checkpoint:
    """Snapshot at time t: its diagnostics, and u and the centered u_t only
    while `stream` hands it to a writer (None otherwise)."""

    t: float
    u: Optional[np.ndarray]
    u_t: Optional[np.ndarray]
    E: float            # energy norm sqrt(energy(u, u_t, h))
    leak: float         # check_propagation(u, t, h, L, data.reach)
    samples: list       # per ray tap, the (t, V) taken since the previous checkpoint


def stream(cfg: SolverConfig, data: InitialData, rays: Sequence[RayTap] = (),
           write: Optional[Callable[[int, Checkpoint], None]] = None) -> Iterator[Checkpoint]:
    """Advance to T, yielding each checkpoint as it is made: t = 0, every
    checkpoint_interval, and T.  Ray taps sample V(t) from the three live levels.

    A checkpoint holds t, E, the leak and the samples.  After t = 0, E and
    the leak are read over the live rows: the solver's box rows grown by 2
    and clipped.  Every nonzero cell of the three levels lies in the box or
    on a grid edge row, so the live edge rows, like every row outside, have
    d_x = 0.  Only write(index, checkpoint), when given, sees each checkpoint
    (index 0 is t = 0) with a copy of u and the centered u_t, which are
    dropped when it returns.
    """
    solver = LeapfrogSolver(cfg, data)
    dt, h, L = solver.dt, solver.h, cfg.L
    nsteps = cfg.steps
    ckpt_every = max(1, int(round(cfg.checkpoint_interval / dt)))
    written = itertools.count()

    def checkpoint(t: float, u: np.ndarray, E2: float, rows, samples: list, full) -> Checkpoint:
        """The checkpoint of the level u at t; a writer sees it with (u, u_t) = full()."""
        ckpt = Checkpoint(t, None, None, math.sqrt(E2),
                          check_propagation(u, t, h, L, data.reach, rows), samples)
        if write is not None:
            ckpt.u, ckpt.u_t = full()
            write(next(written), ckpt)
            ckpt.u = ckpt.u_t = None
        return ckpt

    yield checkpoint(0.0, solver.initial[0], energy(*solver.initial, h), None,
                     [[] for _ in rays], lambda: solver.initial)
    del solver.initial
    samples = [[] for _ in rays]
    for n in range(1, nsteps + 1):
        u_prevprev = solver.u_prev
        solver.advance()
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
        if n % ckpt_every and n != nsteps:
            continue
        box = solver._box
        r0, r1 = (max(box[0] - 2, 0), min(box[1] + 2, cfg.n)) if box else (0, 0)
        E2 = energy(solver.u_prev[r0:r1], (solver.u_cur[r0:r1], u_prevprev[r0:r1]), h, dt)
        yield checkpoint(t_mid, solver.u_prev, E2, (r0, r1), samples,
                         lambda: (solver.u_prev.copy(), _centered(solver.u_cur, u_prevprev, dt)))
        samples = [[] for _ in rays]


def _centered(later: np.ndarray, earlier: np.ndarray, dt: float) -> np.ndarray:
    """u_t = (later - earlier) / (2 dt) from the levels at t + dt and t - dt."""
    u_t = np.subtract(later, earlier)
    u_t *= 0.5 / dt
    return u_t


def run(cfg: SolverConfig, data: InitialData, rays: Sequence[RayTap] = (),
        write: Optional[Callable[[int, Checkpoint], None]] = None) -> RunResult:
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
