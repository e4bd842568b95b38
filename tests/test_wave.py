"""Unit tests for the 2D leapfrog solver, diagnostics, and ray taps."""

import dataclasses
import math
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import RegularGridInterpolator

from wavedecay import wave
from wavedecay.cli import _write_csv
from wavedecay.trig import Direction, NonlinearityCoefficients
from wavedecay.profile_ode import (
    RayConfig,
    TabulatedForcing,
    ZeroForcing,
    integrate_profile,
    residual_forcing,
)
from wavedecay.wave import (
    BlowUpError,
    InitialData,
    LeapfrogSolver,
    RayTap,
    SolverConfig,
    _gradients,
    _laplacian,
    _ray_V,
    _ray_w,
    apply_nonlinearity,
    check_propagation,
    energy,
    make_initial_data,
    run,
    stream,
)


def _damping_coeffs() -> NonlinearityCoefficients:
    C = np.zeros((3, 3, 3))
    C[0, 0, 0] = -1.0     # F = -(u_t)^3
    return NonlinearityCoefficients(C=C)


# ---------------------------------------------------------------------------
# configuration and initial data


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(h=0.1, L=8.0, T=5.0, cfl=0.8)
    with pytest.raises(ValueError):
        SolverConfig(h=-0.1, L=8.0, T=5.0)
    with pytest.raises(ValueError, match="MAX_STEPS"):      # ~1e302 steps
        SolverConfig(h=0.1, L=8.0, T=5.0, cfl=1e-300)
    cfg = SolverConfig(h=0.1, L=8.0, T=5.0)
    assert cfg.dt == pytest.approx(0.05)
    with pytest.raises(ValueError):
        cfg.validate_domain(reach=4.0)   # needs L >= T + reach + 4h


def _initial_data_oracle(data, cfg):
    """(u, u_t) from the bump and its d1 on full meshgrid coordinates."""
    X, Y = np.meshgrid(cfg.axis(), cfg.axis(), indexing="ij")
    cx, cy = data.center
    R2 = data.R * data.R
    rho2 = ((X - cx) ** 2 + (Y - cy) ** 2) / R2
    inside = rho2 < 1.0
    bump = np.zeros_like(X)
    bump[inside] = np.exp(-1.0 / (1.0 - rho2[inside]))
    dbump = np.zeros_like(X)
    dbump[inside] = bump[inside] * (
        -2.0 * (X[inside] - cx) / R2
    ) / (1.0 - rho2[inside]) ** 2
    f = bump if data.kind == "smooth_bump" else np.zeros_like(X)
    return data.eps * f, data.eps * -dbump


def _taylor_level_oracle(cfg, u, ut):
    """The level at t = dt on the whole grid, u + dt u_t + dt^2/2 (Laplacian + F),
    its boundary ring zeroed.  A linear F is +0.0 on every cell."""
    h, dt = cfg.h_eff, cfg.dt
    with np.errstate(over="ignore", invalid="ignore"):
        rhs = _laplacian(u, h)
        ux, uy = _gradients(u, h)
        rhs += apply_nonlinearity(cfg.nonlinearity, ut, ux, uy)
        level = u + dt * ut + 0.5 * dt ** 2 * rhs
    level[0, :] = level[-1, :] = 0.0
    level[:, 0] = level[:, -1] = 0.0
    return level


def test_initial_data_kinds():
    with pytest.raises(ValueError):
        InitialData(kind="bogus")
    with pytest.raises(ValueError):
        InitialData(R=-1.0)
    cfg = SolverConfig(h=0.1, L=8.0, T=5.0)
    smooth_u, smooth_ut = make_initial_data(InitialData(R=1.0, eps=0.2), cfg)
    assert smooth_u.max() == pytest.approx(0.2 * math.exp(-1.0), rel=1e-12)
    gonly_u, gonly_ut = make_initial_data(InitialData("deriv_bump", R=1.0, eps=0.2), cfg)
    assert np.all(gonly_u == 0.0)
    np.testing.assert_allclose(gonly_ut, smooth_ut)
    # bit for bit, signed zeros included (u_t is -0.0 off the support)
    for kind in ("smooth_bump", "deriv_bump"):
        for center in ((0.0, 0.0), (0.25, -0.5), (-1.3, 0.7)):
            for h, R in ((0.1, 1.0), (0.21, 2.0), (0.05, 0.37), (0.25, 1e-3)):
                cfg = SolverConfig(h=h, L=8.0, T=2.0)
                data = InitialData(kind, R=R, eps=0.1, center=center)
                got, want = make_initial_data(data, cfg), _initial_data_oracle(data, cfg)
                assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
                assert np.signbit(got[1][0, 0])


def _scattered_grid(n, cells, signed_zeros):
    """A custom grid, 0 but for the values at `cells` and -0.0 at `signed_zeros`."""
    grid = np.zeros((n, n))
    for k, (i, j) in enumerate(cells):
        grid[i, j] = (-1.0) ** k * 0.01 * (k + 1)
    for i, j in signed_zeros:
        grid[i, j] = -0.0
    return grid


def _setup_case(case, n):
    """InitialData of one set-up case on an n x n grid."""
    if case == "scattered custom":
        # cells on row 1 and column n - 2 clip the box to the grid; the -0.0
        # cells, on the box's edge and outside it, are zeros it need not hold
        f = _scattered_grid(n, [(1, 7), (6, 10)], [(3, 5), (20, 20)])
        g = _scattered_grid(n, [(4, n - 2), (8, n - 3)], [(30, 2), (10, n - 1)])
        return InitialData(kind="custom", eps=0.5, f_grid=f, g_grid=g)
    if case == "signed zeros only":
        f = _scattered_grid(n, [], [(1, 1), (9, n - 2), (24, 24)])
        return InitialData(kind="custom", eps=-1.0, f_grid=f, g_grid=f)
    return {
        "centred": InitialData(R=1.0, eps=0.1),
        "eps < 0": InitialData(R=1.0, eps=-0.2),
        "deriv_bump": InitialData("deriv_bump", R=1.0, eps=0.3),
        "off-centre": InitialData(R=1.3, eps=0.2, center=(1.3, -0.7)),
    }[case]


SETUP_NONLINEARITIES = {
    "linear": NonlinearityCoefficients(),
    "-u_t^3": _damping_coeffs(),
    # B and C with spatial indices, so F reads the gradients
    "B and C": NonlinearityCoefficients(*(np.random.default_rng(5).uniform(-1.0, 1.0, shape)
                                          for shape in ((3, 3), (3, 3, 3)))),
}


@pytest.mark.parametrize("cfl", [0.5, 0.3])
@pytest.mark.parametrize("nonlinearity", SETUP_NONLINEARITIES)
@pytest.mark.parametrize("case", ["centred", "eps < 0", "deriv_bump", "off-centre",
                                  "scattered custom", "signed zeros only"])
def test_setup_matches_the_full_grid_taylor_level(case, nonlinearity, cfl):
    # the solver builds its starting levels in the data's support box; on the
    # whole grid they, and the intervals, are bitwise those of the full-grid formulas
    cfg = SolverConfig(h=0.25, L=6.0, T=1.0, cfl=cfl,
                       nonlinearity=SETUP_NONLINEARITIES[nonlinearity])
    data = _setup_case(case, cfg.n)
    if data.kind == "custom":
        u, ut = data.eps * data.f_grid, data.eps * data.g_grid
    else:
        u, ut = _initial_data_oracle(data, cfg)
    solver = LeapfrogSolver(cfg, data)
    u_prev, u_cur = u + 0.0, _taylor_level_oracle(cfg, u, ut)
    assert solver.u_prev.tobytes() == u_prev.tobytes()
    assert solver.u_cur.tobytes() == u_cur.tobytes()
    assert _intervals_of(solver) == _row_hulls_of((u_prev != 0.0) | (u_cur != 0.0))
    assert np.any(u_cur) == (case != "signed zeros only")


def test_initial_velocity_matches_numerical_derivative():
    cfg = SolverConfig(h=0.05, L=8.0, T=2.0)
    u, u_t = make_initial_data(InitialData(kind="smooth_bump", R=2.0, eps=1.0), cfg)
    # g = -d1 f: compare with a centered difference of the f grid
    num = np.zeros_like(u)
    num[1:-1, :] = -(u[2:, :] - u[:-2, :]) / (2 * cfg.h_eff)
    # the bump's third derivative is large near the support edge; the
    # centered difference is only h^2 f'''/6 accurate there
    interior = np.abs(u) > 1e-6
    assert np.abs((u_t - num)[interior]).max() < 2e-2


def test_custom_data_shape_checked():
    cfg = SolverConfig(h=0.5, L=4.0, T=1.0)
    with pytest.raises(ValueError):
        make_initial_data(
            InitialData(kind="custom", f_grid=np.zeros((3, 3))), cfg
        )


def test_energy_hand_value():
    n = 17
    h = 0.5
    u = np.zeros((n, n))
    u_t = np.ones((n, n))
    assert energy(u, u_t, h) == pytest.approx(0.5 * h * h * n * n)


# custom grids reach 0: the domain needs L >= T + 4h
GUARD_CFG = SolverConfig(h=0.5, L=4.0, T=1.0)


def test_blow_up_guard_on_field():
    f = np.full((GUARD_CFG.n, GUARD_CFG.n), 1e11)
    with pytest.raises(BlowUpError) as err:
        LeapfrogSolver(GUARD_CFG, InitialData(kind="custom", eps=1.0, f_grid=f))
    assert err.value.t == 0.0
    assert err.value.maxu == 1e11


@pytest.mark.parametrize("bad", [float("nan"), -1e11])
def test_blow_up_guard_on_single_cell(bad):
    f = np.zeros((GUARD_CFG.n, GUARD_CFG.n))
    f[2, 1] = bad
    with pytest.raises(BlowUpError) as err:
        LeapfrogSolver(GUARD_CFG, InitialData(kind="custom", eps=1.0, f_grid=f))
    assert err.value.t == 0.0
    assert np.array_equal(err.value.maxu, abs(bad), equal_nan=True)


def test_blow_up_guard_on_taylor_level():
    # u(0) = 0 passes the guard; the Taylor level, ~dt * u_t(0) ~ 1e119,
    # does not, and the solver reports it at t = dt while it is set up
    cfg = SolverConfig(h=0.25, L=6.0, T=2.0, nonlinearity=_damping_coeffs())
    with pytest.raises(BlowUpError) as err:
        LeapfrogSolver(cfg, InitialData(kind="deriv_bump", eps=1e120))
    assert err.value.t == cfg.dt
    assert err.value.maxu == math.inf


# ---------------------------------------------------------------------------
# the checkpoint diagnostics against their plain full-grid formulas


def _energy_oracle(u, u_t, h):
    ux, uy = _gradients(u, h)
    return 0.5 * h ** 2 * float(np.sum(u_t ** 2 + ux ** 2 + uy ** 2))


def _propagation_oracle(u, t, h, L, reach):
    xs = np.linspace(-L, L, u.shape[0])
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    outside = np.hypot(X, Y) > t + reach + wave.PROPAGATION_SLACK_CELLS * h
    if not outside.any():
        return 0.0
    return float(np.abs(u[outside]).max())


def _random_field(rng, n, scale, ring_only):
    u = rng.standard_normal((n, n)) * scale
    u_t = rng.standard_normal((n, n)) * scale
    if ring_only:   # only the boundary ring is nonzero
        u[1:-1, 1:-1] = 0.0
        u_t[1:-1, 1:-1] = 0.0
    return u, u_t


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2 ** 32 - 1),
    sizes=st.lists(st.sampled_from([2, 3, 5, 16, 33]), min_size=1, max_size=3),
    Ls=st.lists(st.floats(0.5, 20.0), min_size=2, max_size=2, unique=True),
    t=st.floats(0.0, 30.0),
    R=st.floats(0.0, 10.0),
    scale=st.sampled_from([1e-12, 1e-3, 1.0, 1e6]),
    ring_only=st.booleans(),
)
def test_diagnostics_match_full_grid_formulas(seed, sizes, Ls, t, R, scale, ring_only):
    _check_diagnostics(seed, sizes, Ls, t, R, scale, ring_only)
    # strips of 7 cells: every n above but 2 spans several strips, some of
    # which start or end at row 1 or row n - 1, where the x-gradient starts
    # and stops
    with mock.patch.object(wave, "STRIP_CELLS", 7):
        _check_diagnostics(seed, sizes, Ls, t, R, scale, ring_only)


def _check_diagnostics(seed, sizes, Ls, t, R, scale, ring_only):
    rng = np.random.default_rng(seed)
    # alternate grids of equal n and different L, then change n, so state
    # kept from one call would be read against the wrong field
    for n in sizes:
        for L in Ls + Ls[:1]:
            u, u_t = _random_field(rng, n, scale, ring_only)
            h = 2.0 * L / (n - 1)
            # energy scales the raw differences once, so it rounds apart
            # from the oracle's per-cell gradients in the last bits
            E = _energy_oracle(u, u_t, h)
            assert abs(energy(u, u_t, h) - E) <= 1e-14 * E
            assert check_propagation(u, t, h, L, R) == _propagation_oracle(u, t, h, L, R)


def _random_level(n):
    return np.random.default_rng(n).standard_normal((n, n))


def _time_onto(r, h):
    """A t whose slack cone for reach 0 rounds to exactly r, or None."""
    t = r - wave.PROPAGATION_SLACK_CELLS * h
    for _ in range(8):
        cone = wave.slack_cone(t, 0.0, h)
        if cone == r:
            return float(t)
        t = np.nextafter(t, -np.inf if cone > r else np.inf)
    return None


@pytest.mark.parametrize("n, L", [(17, 2.0), (24, 3.7)])
def test_propagation_cone_through_every_cell(n, L):
    # the cone on each cell's radius and one ulp either side of it: a cell
    # on the cone is inside (the test is a strict >), some rows are touched
    # at a single cell, and rounding puts the ends that searchsorted finds
    # on both sides of the mask's edge
    h = 2.0 * L / (n - 1)
    xs = np.linspace(-L, L, n)
    u = _random_level(n)
    r, columns = np.hypot(xs[:, None], xs[None, :]), np.arange(n)
    radii = np.unique(r)
    cones = np.concatenate([radii, np.nextafter(radii, 0.0), np.nextafter(radii, np.inf)])
    times = [t for t in (_time_onto(float(c), h) for c in cones) if t is not None]
    assert len(times) > 0.9 * cones.size
    single_cell_rows = 0
    for t in times:
        cone = wave.slack_cone(t, 0.0, h)
        a, b = wave._inside_columns(xs, cone)
        assert np.array_equal((columns >= a[:, None]) & (columns < b[:, None]), r <= cone)
        assert check_propagation(u, t, h, L, 0.0) == _propagation_oracle(u, t, h, L, 0.0)
        single_cell_rows += np.count_nonzero(b - a == 1)
    assert single_cell_rows > 0


def _edge_row_leak(row):
    u = np.zeros((41, 41))
    u[row, 7], u[row, 30] = -2.5, 1.5
    return u


@pytest.mark.parametrize("u, args, leak", [
    # L = 2: the corner lies at 2.83, the cone at 1 + 2 + 4 * 0.25 = 4
    pytest.param(_random_level(17), (1.0, 0.25, 2.0, 2.0), 0.0, id="beyond_the_corner"),
    pytest.param(_edge_row_leak(0), (1.0, 0.5, 10.0, 1.0), 2.5, id="first_row"),
    pytest.param(_edge_row_leak(-1), (1.0, 0.5, 10.0, 1.0), 2.5, id="last_row"),
    # a slack of 4 * 0.01 against a spacing of 1 or 2: from every cell
    # outside (t = 0) to none (t = 2)
    *(pytest.param(_random_level(n), (t, 0.01, 1.0, 0.0), None, id=f"n{n}-t{t}")
      for n in (2, 3) for t in (0.0, 0.4, 0.7, 1.0, 1.3, 1.5, 2.0)),
])
def test_propagation_on_small_grids_and_edge_rows(u, args, leak):
    assert check_propagation(u, *args) == _propagation_oracle(u, *args)
    assert leak is None or check_propagation(u, *args) == leak


@pytest.mark.parametrize("zero", [0.0, -0.0, "mixed"])
def test_propagation_of_signed_zeros_reads_plus_zero(zero):
    # |u| of a zero is 0.0, and so is the leak, as diagnostics.json prints it
    u = np.full((9, 9), -0.0 if zero == "mixed" else zero)
    if zero == "mixed":
        u[0, :4] = 0.0
    leak = check_propagation(u, 0.0, 0.25, 4.0, 0.5)
    assert leak == 0.0 and math.copysign(1.0, leak) == 1.0


@pytest.mark.parametrize("bad", [float("nan"), math.inf, -math.inf])
def test_diagnostics_carry_non_finite_values(bad):
    n, L, t, R = 33, 4.0, 0.0, 1.0
    h = 2.0 * L / (n - 1)
    u = _random_level(n)
    clean = check_propagation(u, t, h, L, R)

    def placed(a, cell):
        a = a.copy()
        a[cell] = bad
        return a

    def reads_bad(x):
        return math.isnan(x) if math.isnan(bad) else x == math.inf

    # one cell outside the cone reaches the leak; one inside does not
    assert reads_bad(check_propagation(placed(u, (2, 5)), t, h, L, R))
    assert check_propagation(placed(u, (n // 2, n // 2)), t, h, L, R) == clean
    # in u_t or in u, the value reaches E
    u_t = np.zeros((n, n))
    assert reads_bad(energy(u, placed(u_t, (n // 2, 3)), h))
    assert reads_bad(energy(placed(u, (n // 2, 3)), u_t, h))


def _layouts(a):
    """`a` as a transposed view, a Fortran-ordered copy and a row- and a
    column-strided view (the last flattens to a strided run, not a copy)."""
    rows, cols = np.empty((2 * a.shape[0], a.shape[1])), np.empty((a.shape[0], 2 * a.shape[1]))
    rows[::2] = a
    cols[:, ::2] = a
    return {
        "transposed": np.ascontiguousarray(a.T).T,
        "fortran": np.asfortranarray(a),
        "row_strided": rows[::2],
        "column_strided": cols[:, ::2],
    }


@pytest.mark.parametrize("strip_cells", [None, 7])
@pytest.mark.parametrize("row", [None, 1, 2, 3, 4])
def test_diagnostics_of_non_contiguous_levels(strip_cells, row):
    # every layout gives the C-contiguous level's bits.  With u = 0 and one
    # nonzero row of u_t, E is that row's sum times 0.125 (h = 0.5), so a
    # row summed in another order shows.
    rng = np.random.default_rng(5)
    n, L = 61, 15.0
    h = 2.0 * L / (n - 1)
    u, u_t = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    if row is not None:
        u[:] = 0.0
        u_t[:row] = u_t[row + 1:] = 0.0
    with mock.patch.object(wave, "STRIP_CELLS", strip_cells or wave.STRIP_CELLS):
        E, leak = energy(u, u_t, h), check_propagation(u, 5.0, h, L, 1.0)
        for (name, v), v_t in zip(_layouts(u).items(), _layouts(u_t).values()):
            assert not v.flags.c_contiguous and not v_t.flags.c_contiguous, name
            assert energy(v, v_t, h) == E, name
            assert check_propagation(v, 5.0, h, L, 1.0) == leak, name


# ---------------------------------------------------------------------------
# 1D d'Alembert reference on plane-symmetric data


def test_plane_wave_matches_dalembert():
    cfg = SolverConfig(h=0.05, L=8.0, T=3.0)
    xs = cfg.axis()
    X, Y = np.meshgrid(xs, xs, indexing="ij")

    def f(x):
        out = np.zeros_like(x)
        inside = np.abs(x) < 2.0
        out[inside] = np.exp(-1.0 / (1.0 - (x[inside] / 2.0) ** 2))
        return out

    def window(y):
        """1 on |y| <= 5, smooth taper to 0 on 5 <= |y| <= 7."""
        w = np.ones_like(y)
        a = np.abs(y)
        taper = (a > 5.0) & (a < 7.0)
        w[taper] = np.cos(0.5 * np.pi * (a[taper] - 5.0) / 2.0) ** 2
        w[a >= 7.0] = 0.0
        return w

    # plane-symmetric inside |y| < 5; the y = 0 slice up to t = 3 lies in
    # the domain of dependence of the plane-symmetric region, so the 1D
    # d'Alembert formula is exact there
    data = InitialData(
        kind="custom", eps=1.0, f_grid=f(X) * window(Y), g_grid=np.zeros_like(X)
    )
    written = []
    for final in stream(cfg, data, write=lambda i, c, u, u_t: written.append(u.copy())):
        pass
    t = final.t
    mid = cfg.n // 2
    u_num = written[-1][:, mid]
    u_exact = 0.5 * (f(xs - t) + f(xs + t))
    assert np.abs(u_num - u_exact).max() < 5e-3


# ---------------------------------------------------------------------------
# conservation / dissipation / propagation


def test_linear_energy_conservation_small_grid():
    for cfl in (0.5, 0.3):
        cfg = SolverConfig(h=0.2, L=8.0, T=5.0, cfl=cfl)
        res = run(cfg, InitialData(kind="smooth_bump", R=1.0, eps=0.1))
        E = res.energy.E
        assert np.abs(E - E[0]).max() / E[0] < 0.01


def test_under_resolved_linear_run_keeps_its_energy():
    # the scheme does not conserve the centred energy: it oscillates at
    # O(h^2), here 0.0340 -> 0.0438 -> 0.0397 -> 0.0388 -> 0.0408 over the
    # first steps (a centred u_t at t = 0 gives the same E(0)), so E(0) is
    # ~17% below the later checkpoints; the stable scheme then holds E there
    # L = T + R + 4h + 1, the CLI's default
    cfg = SolverConfig(h=0.45, L=43.3, T=40.0, checkpoint_interval=0.5)
    res = run(cfg, InitialData(R=0.5))
    E = res.energy.E
    assert np.abs(E[1:] - E[1]).max() / E[1] < 0.05


def test_damping_energy_monotone_resolved_grid():
    cfg = SolverConfig(h=0.1, L=8.0, T=5.0, nonlinearity=_damping_coeffs())
    res = run(cfg, InitialData(kind="smooth_bump", R=1.0, eps=0.1))
    assert np.all(np.diff(res.energy.E ** 2) <= 1e-6)


def test_zero_data_stays_zero():
    cfg = SolverConfig(h=0.2, L=8.0, T=4.0, nonlinearity=_damping_coeffs())
    res = run(cfg, InitialData(kind="smooth_bump", R=1.0, eps=0.0))
    assert np.all(res.energy.E == 0.0)
    assert res.diagnostics["max_propagation_leak"] == 0.0


def test_antidamping_blows_up_at_large_amplitude():
    C = np.zeros((3, 3, 3))
    C[0, 0, 0] = 60.0     # strong energy pumping
    cfg = SolverConfig(h=0.2, L=16.0, T=12.0, nonlinearity=NonlinearityCoefficients(C=C))
    with pytest.raises(BlowUpError):
        run(cfg, InitialData(kind="smooth_bump", R=1.0, eps=2.5))


def test_propagation_violation_detected():
    n = 33
    u = np.zeros((n, n))
    u[1, 1] = 1.0     # far corner, way outside the light cone of R=1 at t=0
    assert check_propagation(u, t=0.0, h=0.25, L=4.0, reach=1.0) == pytest.approx(1.0)


@pytest.mark.parametrize("shape", [(9, 13), (13, 9)])
def test_propagation_rejects_a_non_square_level(shape):
    u = np.zeros(shape)
    u[-1, -1] = 5.0
    with pytest.raises(ValueError):
        check_propagation(u, t=0.0, h=0.1, L=2.0, reach=0.5)


def test_off_centre_data_leaks_nothing_at_t0():
    # the bump lies inside the cone of its reach R + |center| = 4
    data = InitialData(R=1.0, center=(3.0, 0.0))
    assert data.reach == 4.0 and InitialData(R=1.0).reach == 1.0
    # L = T + reach + 4h + 1, the CLI's default
    cfg = SolverConfig(h=0.25, L=2.0 + data.reach + 4 * 0.25 + 1.0, T=2.0)
    written = []
    first = next(stream(cfg, data, write=lambda i, c, u, u_t: written.append(u.copy())))
    assert written[0].max() == pytest.approx(data.eps * math.exp(-1.0))
    assert first.leak == 0.0


# ---------------------------------------------------------------------------
# the fused step against a plain full-grid step


def _folded_force(terms, d):
    """sum kappa * prod d over one sweep's (kappa, index) terms, in order."""
    force = None
    for kappa, index in terms:
        term = kappa * d[index[0]]
        for i in index[1:]:
            term = term * d[i]
        force = term if force is None else force + term
    return force


def _full_grid_next(cfg, u_prev, u_cur):
    """One folded leapfrog level on the whole grid:
    lam (N + S + E + W) + (2 - 4 lam) uc - up + sum kappa * prod d."""
    h, dt = cfg.h_eff, cfg.dt
    lam = (dt / h) ** 2
    uc, up = u_cur[1:-1, 1:-1], u_prev[1:-1, 1:-1]
    north, south = u_cur[:-2, 1:-1], u_cur[2:, 1:-1]
    west, east = u_cur[1:-1, :-2], u_cur[1:-1, 2:]
    base = (south + north + east + west) * lam + (2.0 - 4.0 * lam) * uc - up
    unew = np.zeros_like(u_cur)
    unew[1:-1, 1:-1] = base
    d = [uc - up, south - north, east - west]
    for terms in wave._folded_terms(cfg.nonlinearity, dt, h):
        if terms:
            unew[1:-1, 1:-1] = base + _folded_force(terms, d)
            d[0] = unew[1:-1, 1:-1] - up
    return unew


def _textbook_next(cfg, u_prev, u_cur):
    """One leapfrog level from _laplacian, _gradients and apply_nonlinearity."""
    coeffs, h, dt = cfg.nonlinearity, cfg.h_eff, cfg.dt
    lap = _laplacian(u_cur, h)
    ux, uy = _gradients(u_cur, h)
    ut = (u_cur - u_prev) / dt
    for _ in range(2):
        F = apply_nonlinearity(coeffs, ut, ux, uy)
        unew = 2.0 * u_cur - u_prev + dt ** 2 * (lap + F)
        ut = (unew - u_prev) / (2.0 * dt)
    unew[0, :] = unew[-1, :] = 0.0
    unew[:, 0] = unew[:, -1] = 0.0
    return unew


def _random_tensor(rng, shape, density):
    keep = rng.random(shape) < density
    return np.where(keep, rng.uniform(-1.0, 1.0, shape), 0.0)


# supports whose row intervals are not a box: rows shared by two blobs,
# empty rows between two blobs, one cell per row, and boundary-row data
SHAPED_SUPPORTS = ["two blobs sharing rows", "two blobs apart", "diagonal", "row 0 and column 1"]


def _support(rng, n, edge):
    """A random mask of data cells on an n x n grid, n >= 17: an off-centre
    rectangle, possibly on row 1, column 1 or the boundary ring itself
    (`edge` "row 1", "column 1", "row 0" or "free"), or one of
    SHAPED_SUPPORTS, which keep off columns 0 and n - 1."""
    mask = np.zeros((n, n), bool)

    def rect(r0, c0):
        mask[r0:r0 + int(rng.integers(1, 6)), c0:c0 + int(rng.integers(1, 6))] = True

    r0, c0 = (int(v) for v in rng.integers(0, n - 4, size=2))
    if edge in ("row 1", "column 1", "row 0", "free"):
        rect({"row 1": 1, "row 0": 0}.get(edge, r0), 1 if edge == "column 1" else c0)
        return mask
    r0, c0 = (int(v) for v in rng.integers(1, n - 6, size=2))
    if edge == "two blobs sharing rows":
        rect(r0, int(rng.integers(1, 4)))
        rect(r0, n - 6)
    elif edge == "two blobs apart":         # rows 1 .. 7, then 10 .. n - 2
        rect(int(rng.integers(1, 4)), c0)
        rect(int(rng.integers(10, n - 6)), int(rng.integers(1, n - 6)))
    elif edge == "diagonal":
        k = np.arange(int(rng.integers(3, n - 6)))
        mask[int(rng.integers(1, 5)) + k, int(rng.integers(1, 5)) + k] = True
    else:
        rect(0, c0)
        mask[r0:r0 + int(rng.integers(1, 6)), 1] = True
    return mask


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2 ** 32 - 1),
    kind=st.sampled_from(["single C000", "random", "linear"]),
    zero_data=st.booleans(),
    edge=st.sampled_from(["row 1", "column 1", "row 0", "free", *SHAPED_SUPPORTS]),
    strip_rows=st.sampled_from([1, 3, None]),
    cfl=st.sampled_from([0.5, 0.3]),
)
def test_fused_step_matches_full_grid_step(seed, kind, zero_data, edge, strip_rows, cfl):
    rng = np.random.default_rng(seed)
    B, C = np.zeros((3, 3)), np.zeros((3, 3, 3))
    if kind == "single C000":
        C[0, 0, 0] = rng.uniform(-2.0, 2.0)
    elif kind == "random":
        B = _random_tensor(rng, (3, 3), 0.3)
        C = _random_tensor(rng, (3, 3, 3), 0.2)
    # at cfl = 0.5 the centre coefficient 2 - 4 lam is exactly 1
    cfg = SolverConfig(
        h=0.5, L=5.0, T=1.0, cfl=cfl, nonlinearity=NonlinearityCoefficients(B=B, C=C)
    )
    n = cfg.n
    # off-centre support, possibly on row/column 1 or on the boundary ring itself
    mask = _support(rng, n, edge) & (not zero_data)
    f, g = (np.where(mask, rng.uniform(-0.1, 0.1, (n, n)), 0.0) for _ in range(2))
    data = InitialData(kind="custom", eps=1.0, f_grid=f, g_grid=g)
    strip_cells = wave.STRIP_CELLS if strip_rows is None else strip_rows * n
    with mock.patch.object(wave, "STRIP_CELLS", strip_cells):
        solver = _check_steps(cfg, data, 8)
    if zero_data:
        assert not np.any(solver.u_cur) and not np.any(solver.u_prev)


def _check_steps(cfg, data, steps):
    """A solver advanced `steps` times, each level bitwise equal to the full-grid step's."""
    solver = LeapfrogSolver(cfg, data)
    u_prev, u_cur = solver.u_prev.copy(), solver.u_cur.copy()
    for _ in range(steps):
        solver.advance()
        u_prev, u_cur = u_cur, _full_grid_next(cfg, u_prev, u_cur)
        assert solver.u_cur.tobytes() == u_cur.tobytes()
    return solver


def _row_hulls_of(mask):
    """Per row, [first, last + 1) of its True cells by a plain loop; None on a row with none."""
    hulls = []
    for row in mask:
        cols = np.flatnonzero(row)
        hulls.append((int(cols[0]), int(cols[-1]) + 1) if cols.size else None)
    return hulls


def _intervals_of(solver):
    a, b = solver._intervals
    return [(int(lo), int(hi)) if lo < hi else None for lo, hi in zip(a, b)]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2 ** 32 - 1),
    edge=st.sampled_from(SHAPED_SUPPORTS),
    damped=st.booleans(),
)
def test_intervals_are_the_dilated_row_hulls(seed, edge, damped):
    # the intervals hold every nonzero cell of u_cur, and they are exactly the
    # row hulls of the starting levels' nonzero mask dilated by the cross one
    # cell per step, its boundary ring cleared as the step clears it.  (Data
    # on column 0 or n - 1 can leave an interval wider than that: the clip
    # keeps the column next to it.  These supports keep off those columns.)
    rng = np.random.default_rng(seed)
    cfg = SolverConfig(h=0.5, L=5.0, T=1.0,
                       nonlinearity=_damping_coeffs() if damped else NonlinearityCoefficients())
    n = cfg.n
    mask = _support(rng, n, edge)
    f, g = (np.where(mask, rng.uniform(-0.1, 0.1, (n, n)), 0.0) for _ in range(2))
    solver = LeapfrogSolver(cfg, InitialData(kind="custom", eps=1.0, f_grid=f, g_grid=g))
    reach = (solver.u_prev != 0.0) | (solver.u_cur != 0.0)
    for _ in range(8):
        intervals = _intervals_of(solver)
        assert intervals == _row_hulls_of(reach)
        inside = np.zeros((n, n), bool)
        for row, hull in zip(inside, intervals):
            row[slice(*hull or (0, 0))] = True
        assert not np.any((solver.u_cur != 0.0) & ~inside)
        solver.advance()
        grown = reach.copy()
        grown[1:] |= reach[:-1]
        grown[:-1] |= reach[1:]
        grown[:, 1:] |= reach[:, :-1]
        grown[:, :-1] |= reach[:, 1:]
        grown[0, :] = grown[-1, :] = grown[:, 0] = grown[:, -1] = False
        reach = grown


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2 ** 32 - 1),
    cfl=st.sampled_from([0.5, 0.3]),
    scale=st.sampled_from([0.01, 0.1]),
)
def test_folded_step_matches_textbook_step(seed, cfl, scale):
    # the textbook step defines the scheme; folding 1/h^2, 1/dt and dt^2
    # into constants may move only the last bits of each level
    rng = np.random.default_rng(seed)
    coeffs = NonlinearityCoefficients(
        B=rng.uniform(-1.0, 1.0, (3, 3)), C=rng.uniform(-1.0, 1.0, (3, 3, 3))
    )
    cfg = SolverConfig(h=0.5, L=5.0, T=1.0, cfl=cfl, nonlinearity=coeffs)
    f, g = rng.uniform(-scale, scale, (2, cfg.n, cfg.n))
    solver = LeapfrogSolver(cfg, InitialData(kind="custom", eps=1.0, f_grid=f, g_grid=g))
    folded = textbook = (solver.u_prev, solver.u_cur)
    for _ in range(8):
        folded = folded[1], _full_grid_next(cfg, *folded)
        textbook = textbook[1], _textbook_next(cfg, *textbook)
        assert np.abs(folded[1] - textbook[1]).max() <= 1e-13 * np.abs(textbook[1]).max()


@pytest.mark.parametrize("center", [(0.0, 0.0), (1.3, -0.7)])
@pytest.mark.parametrize("damped", [False, True])
def test_fused_step_matches_full_grid_step_for_negative_eps(center, damped):
    # eps < 0 makes u(0) -0.0 off the support; the full-grid step turns
    # those cells into +0.0, and so must the solver's own copy of u(0)
    cfg = SolverConfig(
        h=0.25, L=6.0, T=2.0,
        nonlinearity=_damping_coeffs() if damped else NonlinearityCoefficients(),
    )
    data = InitialData(R=1.0, eps=-0.3, center=center)
    assert np.signbit(make_initial_data(data, cfg)[0][0, 0])
    _check_steps(cfg, data, 12)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("kind", ["single C000", "random"])
def test_force_into_matches_apply_nonlinearity(seed, kind):
    # bitwise the oracle's folded force, signed zeros, inf and NaN included,
    # and dt^2 F of the scaled differences to round-off where d is finite
    rng = np.random.default_rng(seed)
    B, C = np.zeros((3, 3)), np.zeros((3, 3, 3))
    if kind == "random":
        B, C = _random_tensor(rng, (3, 3), 0.4), _random_tensor(rng, (3, 3, 3), 0.3)
    C[0, 0, 0] = -1.0                 # at least one term
    coeffs = NonlinearityCoefficients(B=B, C=C)
    values = np.array([0.0, -0.0, 1.5, -2.0, 1e-200, np.inf, -np.inf, np.nan])
    d = tuple(rng.choice(values, 64) for _ in range(3))
    cfg = SolverConfig(h=0.5, L=5.0, T=1.0, cfl=0.3, nonlinearity=coeffs)
    solver = LeapfrogSolver(cfg, InitialData(R=1.0))
    finite = np.isfinite(d[0]) & np.isfinite(d[1]) & np.isfinite(d[2])
    h, dt = cfg.h_eff, cfg.dt
    # d_t spans dt on the first sweep and 2 dt on the second
    for terms, span in zip(solver._sweeps, (dt, 2.0 * dt)):
        out, tmp = np.empty(64), np.empty(64)
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            solver._force_into(out, d, tmp, terms)
            want = _folded_force(terms, d)
            F = apply_nonlinearity(coeffs, d[0] / span, d[1] / (2.0 * h), d[2] / (2.0 * h))
        assert out.tobytes() == want.tobytes()
        textbook = dt ** 2 * F[finite]
        np.testing.assert_allclose(out[finite], textbook, rtol=1e-13,
                                   atol=1e-13 * np.abs(textbook).max())


def _g_only_data(cfg, rows, cols):
    """g-only data on the cells rows x cols: u(0) = 0, so the first box is those cells."""
    rng = np.random.default_rng(3)
    g = np.zeros((cfg.n, cfg.n))
    g[rows, cols] = rng.uniform(-0.1, 0.1, g[rows, cols].shape)
    return InitialData(kind="custom", eps=1.0, g_grid=g)


@pytest.mark.parametrize("nonlinearity", [
    NonlinearityCoefficients(),
    _damping_coeffs(),
    NonlinearityCoefficients(B=np.diag([0.5, -0.3, 0.2]), C=np.full((3, 3, 3), 0.1)),
])
@pytest.mark.parametrize("place, strip_cells", [
    ("column 1", None),          # one cell wide; the tile's west pad is column 0
    ("column n-2", None),        # ... and its east pad column n - 1
    ("cell 1,1", None),
    ("cell n-2,n-2", 5),
    ("full width", None),        # the region spans [1, n - 1): W = n
    ("full width", 5),           # strips of one row, shorter than a tile row
    ("column 1", 1),
])
def test_tile_kernel_at_the_edges(nonlinearity, place, strip_cells):
    for cfl in (0.5, 0.3):
        _check_tile_kernel(SolverConfig(h=0.5, L=5.0, T=1.0, cfl=cfl, nonlinearity=nonlinearity),
                           place, strip_cells)


def _check_tile_kernel(cfg, place, strip_cells):
    n = cfg.n
    rows, cols = {
        "column 1": (slice(3, 9), slice(1, 2)),
        "column n-2": (slice(3, 9), slice(n - 2, n - 1)),
        "cell 1,1": (slice(1, 2), slice(1, 2)),
        "cell n-2,n-2": (slice(n - 2, n - 1), slice(n - 2, n - 1)),
        "full width": (slice(4, 7), slice(1, n - 1)),
    }[place]
    data = _g_only_data(cfg, rows, cols)
    cells = wave.STRIP_CELLS if strip_cells is None else strip_cells
    with mock.patch.object(wave, "STRIP_CELLS", cells):
        solver = LeapfrogSolver(cfg, data)
        want = [(cols.start, cols.stop) if rows.start <= i < rows.stop else None
                for i in range(n)]
        assert _intervals_of(solver) == want
        _check_steps(cfg, data, 12)


@pytest.mark.parametrize("bad", [float("nan"), math.inf, -math.inf])
@pytest.mark.parametrize("damped", [False, True])
def test_non_finite_cell_raises_through_the_peak(bad, damped):
    # u_prev = +-inf on one cell gives -+inf there and no NaN on a linear
    # step, so both max and -min of the level are read
    cfg = SolverConfig(
        h=0.5, L=5.0, T=1.0,
        nonlinearity=_damping_coeffs() if damped else NonlinearityCoefficients(),
    )
    solver = LeapfrogSolver(cfg, InitialData(R=1.0, eps=0.1))
    solver.advance()
    solver.u_prev[cfg.n // 2, cfg.n // 2 + 1] = bad
    with pytest.raises(BlowUpError) as err:
        solver.advance()
    assert err.value.t == 3 * cfg.dt
    assert not err.value.maxu <= wave.BLOWUP_GUARD


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("damped", [False, True])
def test_guard_screen_passes_a_large_sum_and_raises_on_one_cell(sign, damped):
    # u_cur = 0 and u_prev = -v on the interior make the next level v there,
    # bit for bit: the damped solver's F = -c u_t^3 has c so small that its
    # force on a cell of 1e10 is below the cell's last bit
    C = np.zeros((3, 3, 3))
    C[0, 0, 0] = -2.0 ** -200 if damped else 0.0
    cfg = SolverConfig(h=0.5, L=5.0, T=1.0, nonlinearity=NonlinearityCoefficients(C=C))
    n = cfg.n
    interior = (slice(1, n - 1), slice(1, n - 1))
    solver = LeapfrogSolver(cfg, _g_only_data(cfg, *interior))
    solver.u_cur[:] = 0.0
    solver.u_prev[interior] = -sign * wave.BLOWUP_GUARD
    with mock.patch.object(solver, "_guard", wraps=solver._guard) as guard:
        solver.advance()
    # 361 cells of 1e10: the sum of squares fails the screen, the exact max passes
    guard.assert_called_once()
    assert np.all(solver.u_cur[interior] == sign * wave.BLOWUP_GUARD)
    solver.u_cur[:] = 0.0
    solver.u_prev[:] = 0.0
    solver.u_prev[n // 2, 3] = -sign * 1.5e10
    with pytest.raises(BlowUpError) as err:
        solver.advance()
    assert err.value.maxu == 1.5e10
    assert err.value.t == 3 * cfg.dt


def _recorded_levels(cfg, data):
    """Every level of a run, index k at t = k dt, from a separate solver."""
    solver = LeapfrogSolver(cfg, data)
    levels = [solver.u_prev.copy(), solver.u_cur.copy()]
    while len(levels) < round(cfg.T / cfg.dt) + 2:
        solver.advance()
        levels.append(solver.u_cur.copy())
    return levels


def test_run_checkpoints_keep_their_levels():
    cfg = SolverConfig(
        h=0.25, L=8.0, T=3.0, nonlinearity=_damping_coeffs(), checkpoint_interval=0.25
    )
    data = InitialData(kind="smooth_bump", R=1.0, eps=0.1)
    levels = _recorded_levels(cfg, data)
    (_, u, u_t), *later = _written(cfg, data)
    u0, ut0 = make_initial_data(data, cfg)
    assert np.array_equal(u, u0)
    assert np.array_equal(u_t, ut0)
    assert len(later) > 2
    for snap, u, u_t in later:
        k = round(snap.t / cfg.dt)
        assert np.array_equal(u, levels[k])
        assert np.array_equal(u_t, (levels[k + 1] - levels[k - 1]) * (0.5 / cfg.dt))


def _written(cfg, data, rays=()):
    """(checkpoint, u, u_t) of each checkpoint of stream(cfg, data, rays), with
    copies of the u and u_t its writer saw."""
    written = []

    def write(index, ckpt, u, u_t):
        assert index == len(written)
        written.append((ckpt, u.copy(), u_t.copy()))

    checkpoints = list(stream(cfg, data, rays, write))
    # the writer sees the very checkpoints the stream yields
    assert len(written) == len(checkpoints)
    assert all(seen is c for (seen, _, _), c in zip(written, checkpoints))
    return written


def test_writer_gets_read_only_views_of_the_solver_levels():
    # no copy: u views the solver's level (at t = 0, the data), u_t the data
    # or the centred u_t, built in the solver's spare buffer; writing into
    # either raises, and the checkpoint is a frozen record of t, E, the leak
    # and the samples
    cfg = SolverConfig(h=0.25, L=8.0, T=2.0, nonlinearity=_damping_coeffs(),
                       checkpoint_interval=0.5)
    data = InitialData(R=1.0, eps=0.1)
    solvers, seen = [], []

    class Recorded(LeapfrogSolver):
        def __init__(self, *args):
            super().__init__(*args)
            solvers.append(self)

    def write(index, ckpt, u, u_t):
        solver, = solvers
        if index == 0:
            assert u.base is solver.initial[0] and u_t.base is solver.initial[1]
        else:
            assert u.base is solver.u_prev and np.array_equal(u, solver.u_prev)
            assert u_t.base is solver._spare
        for level in (u, u_t):
            assert not level.flags.owndata and not level.flags.writeable
            with pytest.raises(ValueError):
                level[0, 0] = 1.0
            with pytest.raises(ValueError):
                level += 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            ckpt.E = 0.0
        seen.append(index)

    with mock.patch.object(wave, "LeapfrogSolver", Recorded):
        checkpoints = list(stream(cfg, data, write=write))
    assert seen == list(range(len(checkpoints))) == list(range(5))
    assert [f.name for f in dataclasses.fields(wave.Checkpoint)] == ["t", "E", "leak", "samples"]


@pytest.mark.parametrize("case", ["R = 6 box", "data fill the grid"])
def test_first_checkpoint_peaks_at_the_solver_setup(case):
    # E and the leak at t = 0 take one buffer of the data's box and
    # row-sized arrays, less than set-up's own temporaries
    cfg = SolverConfig(h=0.05, L=8.0, T=1.0)
    assert cfg.n == 321
    if case == "R = 6 box":
        data = InitialData(R=6.0, eps=0.1)
    else:
        rng = np.random.default_rng(5)
        f, g = (rng.uniform(-0.1, 0.1, (cfg.n, cfg.n)) for _ in range(2))
        data = InitialData(kind="custom", eps=1.0, f_grid=f, g_grid=g)
    _, setup_peak = _traced_peak(lambda: LeapfrogSolver(cfg, data))
    _, first_peak = _traced_peak(lambda: next(stream(cfg, data)))
    assert first_peak <= setup_peak + 0.05 * cfg.n ** 2 * 8


def _traced_peak(fn):
    """fn() and the peak of the memory it allocates."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _footprint(solver):
    """Bytes a new solver keeps: the initial data, its three levels and the strip scratch."""
    scratch = [solver._tile, *(buf for buf in solver._scratch if buf is not None)]
    return 5 * solver.u_cur.nbytes + sum(buf.nbytes for buf in scratch)


@pytest.mark.parametrize("damped", [False, True])
def test_setup_peaks_at_the_solver_footprint(damped):
    # the starting levels are built in the data's support box, so no
    # level-sized temporary comes on top of what the solver keeps
    cfg = SolverConfig(h=0.1, L=8.0, T=4.0,
                       nonlinearity=_damping_coeffs() if damped else NonlinearityCoefficients())
    assert cfg.n == 161
    solver, peak = _traced_peak(lambda: LeapfrogSolver(cfg, InitialData(R=1.0, eps=0.1)))
    assert peak <= _footprint(solver) + 0.1 * cfg.n ** 2 * 8


@pytest.mark.parametrize("kind, roles", [("linear", 3), ("damped", 6), ("gradient terms", 8)])
def test_strip_scratch_starts_on_64_byte_boundaries(kind, roles):
    # every role the step writes starts on a 64-byte boundary wherever the
    # heap puts it: odd-sized arrays made first move glibc's placement
    B = np.zeros((3, 3))
    B[1, 2] = 0.5                       # d_x d_y
    nonlinearity = {"linear": NonlinearityCoefficients(), "damped": _damping_coeffs(),
                    "gradient terms": NonlinearityCoefficients(B=B)}[kind]
    cfg = SolverConfig(h=0.1, L=8.0, T=1.0, nonlinearity=nonlinearity)
    held = []
    for size in (1, 3, 16385, 1, 3):
        held.append(np.empty(size))
        solver = LeapfrogSolver(cfg, InitialData(R=1.0, eps=0.1))
        buffers = [solver._tile, *(buf for buf in solver._scratch if buf is not None)]
        assert len(buffers) == 1 + roles
        spans = sorted((buf.ctypes.data, buf.ctypes.data + buf.nbytes) for buf in buffers)
        assert all(start % 64 == 0 for start, _ in spans)
        assert all(end <= start for (_, end), (start, _) in zip(spans, spans[1:]))
        held.append(solver)


def test_stream_holds_no_field():
    # a checkpoint at every step: the stream, and run collecting it, hold
    # only the solver's levels and those of the checkpoint being made
    cfg = SolverConfig(h=0.1, L=8.0, T=4.0, checkpoint_interval=0.0)
    data = InitialData(kind="smooth_bump", R=1.0, eps=0.1)
    rays = [RayTap(sigma=0.0, omega=Direction(1.0, 0.0), stride=1)]
    level = cfg.n ** 2 * 8
    checkpoints = stream(cfg, data, rays)
    first = next(checkpoints)          # the solver is set up
    rest, stream_peak = _traced_peak(lambda: [(c.E, c.leak, c.samples) for c in checkpoints])
    res, run_peak = _traced_peak(lambda: run(cfg, data, rays))
    assert len(rest) == cfg.steps == 80
    # no writer, so no checkpoint level: E comes from the step's own scratch
    # and the leak takes row-sized arrays
    assert stream_peak < 0.3 * level
    # run peaks at t = 0, where E and the leak of the initial data take
    # scratch the size of the data's 23 x 23 box on top of the new solver's
    # footprint
    footprint = _footprint(LeapfrogSolver(cfg, data))
    assert run_peak < footprint + 0.2 * level

    E, leaks, samples = zip((first.E, first.leak, first.samples), *rest)
    assert res.energy.E.tolist() == list(E)
    assert res.diagnostics["max_propagation_leak"] == max(leaks)
    taken = [s for per_tap in samples for s in per_tap[0]]
    assert len(taken) > 5
    assert res.profiles[0].times.tolist() == [t for t, _ in taken]
    assert res.profiles[0].V.tolist() == [v for _, v in taken]
    kept = res.checkpoints
    assert len(kept) == len(E)
    for snap, c in zip(kept, stream(cfg, data, rays)):
        assert snap == c


def _streamed_diagnostics_case(case):
    nonlinearity = _damping_coeffs() if case == "damped" else NonlinearityCoefficients()
    cfg = SolverConfig(h=0.25, L=8.0, T=4.0, checkpoint_interval=0.25, nonlinearity=nonlinearity)
    if case == "g-only column 1":
        # sharp-edged data on rows 3 .. 8 of column 1: the live rows reach the
        # grid's edge rows after a few steps, and every cell lies outside the
        # slack cone of reach 0
        return cfg, _g_only_data(cfg, slice(3, 9), slice(1, 2))
    if case == "off-centre":
        return cfg, InitialData(R=1.0, eps=-0.1, center=(1.3, -0.7))
    if case == "two blobs apart":
        # the starting levels hold rows 18 .. 26 and 38 .. 46, 11 empty rows
        # apart: the gap closes in 6 steps, so the t = 0.25 and 0.5 checkpoints
        # take live rows across it, and one-row strips inside it are empty
        f, g = (sum(grids) for grids in zip(*(
            make_initial_data(InitialData(R=1.0, eps=0.1, center=(x, 0.3)), cfg)
            for x in (-2.5, 2.5))))
        return cfg, InitialData(kind="custom", eps=1.0, f_grid=f, g_grid=g)
    return cfg, InitialData(R=1.0, eps=0.1)


@pytest.mark.parametrize("strip_cells", [None, 7])
@pytest.mark.parametrize("case", ["linear", "damped", "off-centre", "g-only column 1",
                                  "two blobs apart"])
def test_streamed_diagnostics_match_the_full_level_formulas(case, strip_cells):
    # the stream takes E from the step's tiles and the leak over the live
    # rows only (at t = 0, both in the data's box); on the full levels its
    # writer sees, the formulas give E to round-off and the leak bit for bit,
    # at every checkpoint from t = 0 on
    cfg, data = _streamed_diagnostics_case(case)
    with mock.patch.object(wave, "STRIP_CELLS", strip_cells or wave.STRIP_CELLS):
        checkpoints = _written(cfg, data)
    assert len(checkpoints) == 17
    for c, u, u_t in checkpoints:
        E = math.sqrt(energy(u, u_t, cfg.h_eff))
        assert abs(c.E - E) <= 1e-14 * E
        leak = check_propagation(u, c.t, cfg.h_eff, cfg.L, data.reach)
        assert np.float64(c.leak).tobytes() == np.float64(leak).tobytes()
    assert any(c.leak > 0.0 for c, _, _ in checkpoints)


def _fused_energy_case(case):
    """(cfg, data) of `case` with a checkpoint at every step."""
    if case in ("linear", "damped", "g-only column 1", "two blobs apart"):
        cfg, data = _streamed_diagnostics_case(case)
    elif case == "negative eps":
        cfg, data = _streamed_diagnostics_case("off-centre")
    elif case == "cfl 0.3":
        cfg, data = _streamed_diagnostics_case("damped")
        cfg = dataclasses.replace(cfg, cfl=0.3)
    elif case == "random B and C":
        rng = np.random.default_rng(11)
        B, C = _random_tensor(rng, (3, 3), 0.4), _random_tensor(rng, (3, 3, 3), 0.3)
        B[1, 2] = 0.5                   # a term with d_x and d_y
        cfg, data = _streamed_diagnostics_case("linear")
        cfg = dataclasses.replace(cfg, nonlinearity=NonlinearityCoefficients(B=B, C=C))
    else:                               # data on the boundary ring, which no strip updates
        cfg, _ = _streamed_diagnostics_case("damped")
        rng = np.random.default_rng(12)
        f, g = np.zeros((cfg.n, cfg.n)), np.zeros((cfg.n, cfg.n))
        f[:3, :4] = rng.uniform(-0.1, 0.1, (3, 4))
        f[-1, -3:] = rng.uniform(-0.1, 0.1, 3)
        g[:2, 5:8] = rng.uniform(-0.1, 0.1, (2, 3))
        data = InitialData(kind="custom", eps=1.0, f_grid=f, g_grid=g)
    return dataclasses.replace(cfg, checkpoint_interval=0.0), data


@pytest.mark.parametrize("strip_cells", [None, 7])
@pytest.mark.parametrize("case", ["linear", "damped", "random B and C", "cfl 0.3", "negative eps",
                                  "g-only column 1", "two blobs apart", "boundary ring"])
def test_fused_energy_matches_the_level_formula(case, strip_cells):
    # a checkpoint at every step: the E^2 each step takes from its own tiles
    # is energy() on the full levels the writer sees, to round-off, and the
    # levels and the leak are the bits of a solver stepped without it
    cfg, data = _fused_energy_case(case)
    h, dt = cfg.h_eff, cfg.dt
    with mock.patch.object(wave, "STRIP_CELLS", strip_cells or wave.STRIP_CELLS):
        with mock.patch.object(wave, "energy", wraps=wave.energy) as level_energy:
            checkpoints = _written(cfg, data)
        assert level_energy.call_count == 1         # at t = 0 only
        plain = LeapfrogSolver(cfg, data)
        assert plain._gradient_terms == (case == "random B and C")
        assert len(checkpoints) == cfg.steps + 1
        for k, (c, u, u_t) in enumerate(checkpoints):
            E = math.sqrt(energy(u, u_t, h))
            assert abs(c.E - E) <= 1e-14 * E
            leak = check_propagation(u, c.t, h, cfg.L, data.reach)
            assert np.float64(c.leak).tobytes() == np.float64(leak).tobytes()
            if k:
                earlier = plain.u_prev.copy()
                assert plain.advance() is None
                assert u.tobytes() == plain.u_prev.tobytes()
                assert u_t.tobytes() == wave._centered(plain.u_cur, earlier, dt).tobytes()
    assert any(c.leak > 0.0 for c, _, _ in checkpoints)


def test_run_hands_each_checkpoint_to_its_writer_and_keeps_the_floats():
    cfg = SolverConfig(
        h=0.25, L=8.0, T=3.0, nonlinearity=_damping_coeffs(), checkpoint_interval=0.5
    )
    data = InitialData(kind="smooth_bump", R=1.0, eps=0.1)
    rays = [RayTap(sigma=0.0, omega=Direction(1.0, 0.0), stride=1)]
    written = []
    res = run(cfg, data, rays,
              write=lambda i, c, u, u_t: written.append((i, c, u.copy(), u_t.copy())))
    full = _written(cfg, data, rays)
    assert [i for i, *_ in written] == list(range(len(full))) == list(range(7))
    for (_, seen, u, u_t), kept, (c, full_u, full_u_t) in zip(written, res.checkpoints, full):
        assert np.array_equal(u, full_u) and np.array_equal(u_t, full_u_t)
        assert seen is kept         # run keeps the checkpoints its writer saw
        assert (kept.t, kept.E, kept.leak, kept.samples) == (c.t, c.E, c.leak, c.samples)
    full = [c for c, _, _ in full]
    assert res.energy.times.tolist() == [c.t for c in full]
    assert res.energy.E.tolist() == [c.E for c in full]
    assert res.diagnostics["max_propagation_leak"] == max(c.leak for c in full)
    assert res.profiles[0].V.tolist() == [v for c in full for _, v in c.samples[0]]


def test_stream_drops_the_initial_data():
    # once the t = 0 checkpoint is out, the stream keeps neither of its levels
    cfg = SolverConfig(h=0.5, L=6.0, T=2.0)
    data = InitialData(kind="smooth_bump", R=1.0, eps=0.1)
    refs = []

    def write(index, ckpt, u, u_t):
        if index == 0:                  # u and u_t view the data
            refs.extend(weakref.ref(level.base) for level in (u, u_t))

    checkpoints = stream(cfg, data, write=write)
    first = next(checkpoints)
    assert len(refs) == 2 and all(r() is not None for r in refs)
    del first
    next(checkpoints)
    assert all(r() is None for r in refs)


# ---------------------------------------------------------------------------
# ray taps


def _outgoing_level(phi, t, cfg):
    """u = r^{-1/2} phi(r - t) away from the origin (exact outgoing wave ansatz)."""
    xs = cfg.axis()
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    Rc = np.maximum(np.hypot(X, Y), 0.3)
    return Rc ** -0.5 * phi(Rc - t)


def test_extract_ray_recovers_profile_derivative():
    # _ray_V extracts the ray profile from three consecutive levels.
    # w = sqrt(r) u = phi(r - t):  V = (w_r - w_t)/2 = phi'(sigma)
    cfg = SolverConfig(h=0.05, L=16.0, T=1.0)
    phi = lambda s: np.exp(-(s ** 2))
    dt, omega = 0.1, Direction(1.0, 0.0)
    times = 3.9 + dt * np.arange(62)        # centres t = 4.0 ... 9.9
    us = [_outgoing_level(phi, t, cfg) for t in times]
    for k in range(1, len(times) - 1):
        for sigma in (-0.5, 0.0, 0.7):
            v = _ray_V(tuple(us[k - 1:k + 2]), times[k], sigma, omega, cfg.h_eff, cfg.L, dt)
            assert abs(v - -2.0 * sigma * math.exp(-(sigma ** 2))) < 5e-3


def test_extract_ray_validates_input():
    # r = t + sigma = 40 is outside the grid [-8, 8]^2: no sample, not an error
    phi = lambda s: np.exp(-(s ** 2))
    dt, omega = 0.1, Direction(1.0, 0.0)
    small = SolverConfig(h=0.25, L=8.0, T=1.0)
    far = tuple(_outgoing_level(phi, t, small) for t in (39.9, 40.0, 40.1))
    assert _ray_V(far, 40.0, 0.0, omega, small.h_eff, small.L, dt) is None
    # at r = 2 < h = 4 the stencil point r - h lies behind the origin
    coarse = SolverConfig(h=4.0, L=44.0, T=26.0)
    near = tuple(_outgoing_level(phi, t, coarse) for t in (0.0, 2.0, 4.0))
    assert _ray_V(near, 2.0, 0.0, omega, coarse.h_eff, coarse.L, 2.0) is None
    # a finite sigma whose point r*omega leaves the float range of grid
    # coordinates, or one whose ray never starts: no sample, not an OverflowError
    for sigma in (1e308, -1e308):
        for direction in (omega, Direction(0.0, -1.0)):
            assert _ray_V(far, 40.0, sigma, direction, small.h_eff, small.L, dt) is None


def test_ray_w_matches_scipy_bilinear_and_is_none_off_the_grid():
    # oracle: scipy's linear interpolant on the same nodes, times sqrt(r)
    cfg = SolverConfig(h=0.3, L=3.0, T=1.0)
    n, h, L = cfg.n, cfg.h_eff, cfg.L
    rng = np.random.default_rng(7)
    u = rng.standard_normal((n, n))
    oracle = RegularGridInterpolator((cfg.axis(), cfg.axis()), u, method="linear")
    # cells on every edge of the grid, one cell beyond each, and random ones;
    # a point inside a cell keeps 1% of h from its sides, so rounding in
    # r*omega cannot move it to a neighbour
    edges = [-1, 0, 1, n // 2, n - 3, n - 2, n - 1]
    cells = [(i, j) for i in edges for j in edges]
    cells += [tuple(c) for c in rng.integers(-2, n + 1, size=(200, 2))]
    inside = 0
    for i, j in cells:
        a, b = rng.uniform(0.01, 0.99, size=2)
        x, y = -L + (i + a) * h, -L + (j + b) * h
        r = math.hypot(x, y)
        omega = Direction(x / r, y / r)
        w = _ray_w(u, r, omega, h, L)
        if 0 <= i <= n - 2 and 0 <= j <= n - 2:
            inside += 1
            want = math.sqrt(r) * oracle([r * omega.omega1, r * omega.omega2])[0]
            assert abs(w - want) <= 1e-14 * np.abs(u).max(), (i, j)
        else:
            assert w is None, (i, j)
    assert inside > 100
    east, south = Direction(1.0, 0.0), Direction(0.0, -1.0)
    # a node on the grid's first row is in cell 0; one on its last (fx == n - 1)
    # has no cell beyond it
    assert _ray_w(u, L, Direction(-1.0, 0.0), h, L) == math.sqrt(L) * u[0, n // 2]
    assert _ray_w(u, L, east, h, L) is None
    # (r*omega + L)/h overflows to +inf, to -inf, and (inf*0) to NaN
    assert _ray_w(u, 1e308, east, 1e-3, L) is None
    assert _ray_w(u, 1e308, south, 1e-3, L) is None
    assert _ray_w(u, math.inf, east, h, L) is None


def test_ray_tap_stride_is_an_integer():
    # any integral type but bool: numpy integers pass, True is not stride 1
    omega = Direction(1.0, 0.0)
    for stride in (1, 3, np.int64(2), np.uint8(4)):
        assert RayTap(0.0, omega, stride) == RayTap(0.0, omega, int(stride))
    for stride in (True, False, np.bool_(True), 0, np.int64(0), -2, 2.0, np.float64(2.0), "2"):
        with pytest.raises(ValueError, match="stride"):
            RayTap(0.0, omega, stride)


def test_streamed_taps_match_recorded_levels():
    cfg = SolverConfig(h=0.25, L=12.0, T=10.0, nonlinearity=_damping_coeffs())
    data = InitialData(kind="smooth_bump", R=1.0, eps=0.1)
    tap = RayTap(sigma=0.0, omega=Direction(1.0, 0.0), stride=4)
    streamed = run(cfg, data, rays=[tap]).profiles[0]
    levels, dt = _recorded_levels(cfg, data), cfg.dt
    ts, vs = [], []
    for n in range(tap.stride, round(cfg.T / dt) + 1, tap.stride):
        t = (n + 1) * dt - dt        # the tap time as stream() forms it
        v = _ray_V(tuple(levels[n - 1:n + 2]), t, 0.0, tap.omega, cfg.h_eff, cfg.L, dt)
        if v is not None:
            ts.append(t)
            vs.append(v)
    assert len(ts) > 5
    assert streamed.times.tobytes() == np.array(ts).tobytes()
    assert streamed.V.tobytes() == np.array(vs).tobytes()
    assert not np.any(streamed.G) and not np.any(streamed.Phi)


def test_residual_of_exact_ode_solution_is_small():
    # V from the exact unforced reduced ODE has residual ~ grid error only
    ray = RayConfig(sigma=0.0, omega=Direction(1.0, 0.0), eps=0.1, mu=0.05, t_end=1e3)
    series = integrate_profile(1.0, ray, ZeroForcing(), v0=0.4)
    rep = residual_forcing(series, 1.0, eps=0.1, mu=0.05)
    assert rep.envelope_constant < 0.05


def test_residual_recovers_planted_forcing():
    ray = RayConfig(sigma=0.0, omega=Direction(1.0, 0.0), eps=0.1, mu=0.05, t_end=1e3)
    tab = TabulatedForcing(
        times=np.array([2.0, 1e3]), values=np.array([1e-3, 1e-3])
    )
    series = integrate_profile(1.0, ray, tab, v0=0.4)
    rep = residual_forcing(series, 1.0, eps=0.1, mu=0.05)
    # H should reproduce the constant planted forcing on the interior
    mask = (rep.times > 3.0) & (rep.times < 500.0)
    assert np.abs(rep.H[mask] - 1e-3).max() < 1e-4


def test_energy_csv_deterministic(tmp_path):
    cfg = SolverConfig(h=0.25, L=8.0, T=3.0)
    data = InitialData(kind="smooth_bump", R=1.0, eps=0.1)
    bodies = []
    for k in range(2):
        res = run(cfg, data)
        columns = {"t": res.energy.times, "E": res.energy.E, "E_bound": None}
        bodies.append(_write_csv(tmp_path / f"energy{k}.csv", columns).read_text())
    assert bodies[0] == bodies[1]
    assert bodies[0].splitlines()[0] == "t,E"
