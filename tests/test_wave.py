"""Unit tests for the 2D leapfrog solver, diagnostics, and ray taps."""

import io
import math
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavedecay import wave
from wavedecay.trig import Direction, NonlinearityCoefficients
from wavedecay.profile_ode import RayConfig, TabulatedForcing, ZeroForcing, integrate_profile
from wavedecay.wave import (
    BlowUpError,
    InitialData,
    LeapfrogSolver,
    RayTap,
    SolverConfig,
    _gradients,
    _laplacian,
    _ray_V,
    apply_nonlinearity,
    check_propagation,
    energy,
    make_initial_data,
    residual_forcing,
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


@pytest.mark.parametrize("bad", [float("nan"), -1e11])
def test_blow_up_guard_on_single_cell(bad):
    f = np.zeros((GUARD_CFG.n, GUARD_CFG.n))
    f[2, 1] = bad
    with pytest.raises(BlowUpError) as err:
        LeapfrogSolver(GUARD_CFG, InitialData(kind="custom", eps=1.0, f_grid=f))
    assert err.value.t == 0.0


def test_blow_up_guard_on_taylor_level():
    # u(0) = 0 passes the guard; the Taylor level, ~dt * u_t(0) ~ 1e119,
    # does not, and the solver reports it at t = dt while it is set up
    cfg = SolverConfig(h=0.25, L=6.0, T=2.0, nonlinearity=_damping_coeffs())
    with pytest.raises(BlowUpError) as err:
        LeapfrogSolver(cfg, InitialData(kind="deriv_bump", eps=1e120))
    assert err.value.t == cfg.dt


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
    # alternate grids of equal n and different L, then change n, so a
    # stale cached radius grid would be read against the wrong field
    for n in sizes:
        for L in Ls + Ls[:1]:
            u, u_t = _random_field(rng, n, scale, ring_only)
            h = 2.0 * L / (n - 1)
            assert energy(u, u_t, h) == _energy_oracle(u, u_t, h)
            assert check_propagation(u, t, h, L, R) == _propagation_oracle(u, t, h, L, R)
            assert not wave._radius_grid(n, L).flags.writeable


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
    res = run(cfg, data)
    final = res.checkpoints[-1]
    t = final.t
    mid = cfg.n // 2
    u_num = final.u[:, mid]
    u_exact = 0.5 * (f(xs - t) + f(xs + t))
    assert np.abs(u_num - u_exact).max() < 5e-3


# ---------------------------------------------------------------------------
# conservation / dissipation / propagation


def test_linear_energy_conservation_small_grid():
    cfg = SolverConfig(h=0.2, L=8.0, T=5.0)
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


def test_off_centre_data_leaks_nothing_at_t0():
    # the bump lies inside the cone of its reach R + |center| = 4
    data = InitialData(R=1.0, center=(3.0, 0.0))
    assert data.reach == 4.0 and InitialData(R=1.0).reach == 1.0
    # L = T + reach + 4h + 1, the CLI's default
    cfg = SolverConfig(h=0.25, L=2.0 + data.reach + 4 * 0.25 + 1.0, T=2.0)
    first = next(stream(cfg, data))
    assert first.u.max() == pytest.approx(data.eps * math.exp(-1.0))
    assert first.leak == 0.0


# ---------------------------------------------------------------------------
# the fused step against a plain full-grid step


def _full_grid_next(cfg, u_prev, u_cur):
    """One leapfrog level on the whole grid, F evaluated term by term."""
    coeffs, h, dt = cfg.nonlinearity, cfg.h_eff, cfg.dt
    lap = _laplacian(u_cur, h)
    if not np.any(coeffs.B) and not np.any(coeffs.C):
        unew = 2.0 * u_cur - u_prev + dt ** 2 * lap
    else:
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


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2 ** 32 - 1),
    kind=st.sampled_from(["single C000", "random", "linear"]),
    zero_data=st.booleans(),
    edge=st.sampled_from(["row 1", "column 1", "row 0", "free"]),
    strip_rows=st.sampled_from([1, 3, None]),
)
def test_fused_step_matches_full_grid_step(seed, kind, zero_data, edge, strip_rows):
    rng = np.random.default_rng(seed)
    B, C = np.zeros((3, 3)), np.zeros((3, 3, 3))
    if kind == "single C000":
        C[0, 0, 0] = rng.uniform(-2.0, 2.0)
    elif kind == "random":
        B = _random_tensor(rng, (3, 3), 0.3)
        C = _random_tensor(rng, (3, 3, 3), 0.2)
    cfg = SolverConfig(
        h=0.5, L=5.0, T=1.0, nonlinearity=NonlinearityCoefficients(B=B, C=C)
    )
    n = cfg.n
    # off-centre rectangular support, possibly on row/column 1 or on the
    # boundary ring itself
    r0, c0 = (int(v) for v in rng.integers(0, n - 4, size=2))
    r0 = {"row 1": 1, "row 0": 0}.get(edge, r0)
    c0 = 1 if edge == "column 1" else c0
    r1, c1 = r0 + int(rng.integers(1, 6)), c0 + int(rng.integers(1, 6))
    f, g = np.zeros((n, n)), np.zeros((n, n))
    if not zero_data:
        f[r0:r1, c0:c1] = rng.uniform(-0.1, 0.1, (r1 - r0, c1 - c0))
        g[r0:r1, c0:c1] = rng.uniform(-0.1, 0.1, (r1 - r0, c1 - c0))
    data = InitialData(kind="custom", eps=1.0, f_grid=f, g_grid=g)
    strip_cells = wave.STRIP_CELLS if strip_rows is None else strip_rows * n
    with mock.patch.object(wave, "STRIP_CELLS", strip_cells):
        solver = LeapfrogSolver(cfg, data)
        u_prev, u_cur = solver.u_prev.copy(), solver.u_cur.copy()
        for _ in range(8):
            solver.advance()
            u_prev, u_cur = u_cur, _full_grid_next(cfg, u_prev, u_cur)
            assert solver.u_cur.tobytes() == u_cur.tobytes()
    if zero_data:
        assert not np.any(solver.u_cur) and not np.any(solver.u_prev)


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
    res = run(cfg, data)
    u0, ut0 = make_initial_data(data, cfg)
    assert np.array_equal(res.checkpoints[0].u, u0)
    assert np.array_equal(res.checkpoints[0].u_t, ut0)
    assert len(res.checkpoints) > 3
    for snap in res.checkpoints[1:]:
        k = round(snap.t / cfg.dt)
        assert np.array_equal(snap.u, levels[k])
        assert np.array_equal(snap.u_t, (levels[k + 1] - levels[k - 1]) / (2.0 * cfg.dt))


def _traced_peak(fn):
    """fn() and the peak of the memory it allocates."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_stream_holds_no_field():
    # a checkpoint at every step: run keeps 2 levels per checkpoint, the
    # stream only the levels of the one it is making
    cfg = SolverConfig(h=0.1, L=8.0, T=4.0, checkpoint_interval=0.0)
    data = InitialData(kind="smooth_bump", R=1.0, eps=0.1)
    rays = [RayTap(sigma=0.0, omega=Direction(1.0, 0.0), stride=1)]
    level = cfg.n ** 2 * 8
    checkpoints = stream(cfg, data, rays)
    first = next(checkpoints)          # the solver is set up
    rest, stream_peak = _traced_peak(lambda: [(c.E, c.leak, c.samples) for c in checkpoints])
    res, run_peak = _traced_peak(lambda: run(cfg, data, rays))
    assert len(rest) == cfg.steps == 80
    assert stream_peak < 10 * level
    assert run_peak > 2 * cfg.steps * level

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
        assert snap.t == c.t
        assert np.array_equal(snap.u, c.u) and np.array_equal(snap.u_t, c.u_t)


def test_stream_drops_the_initial_data():
    # once the t = 0 checkpoint is out, the stream keeps neither of its levels
    cfg = SolverConfig(h=0.5, L=6.0, T=2.0)
    data = InitialData(kind="smooth_bump", R=1.0, eps=0.1)
    checkpoints = stream(cfg, data)
    first = next(checkpoints)
    refs = [weakref.ref(first.u), weakref.ref(first.u_t)]
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


def test_energy_csv_deterministic():
    cfg = SolverConfig(h=0.25, L=8.0, T=3.0)
    data = InitialData(kind="smooth_bump", R=1.0, eps=0.1)
    bufs = []
    for _ in range(2):
        res = run(cfg, data)
        buf = io.StringIO()
        res.energy.write_csv(buf)
        bufs.append(buf.getvalue())
    assert bufs[0] == bufs[1]
    assert bufs[0].splitlines()[0] == "t,E"
