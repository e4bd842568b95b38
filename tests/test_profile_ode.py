"""Unit tests for the ray-profile ODE and the logarithmic decay lemma."""

import itertools
import math
import sys

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate, special

from wavedecay import profile_ode, structure
from wavedecay.cli import _profile_columns, _write_csv
from wavedecay.trig import Direction
from wavedecay.profile_ode import (
    EnvelopeForcing,
    MatsumuraParams,
    ProfileBlowUp,
    ProfileSeries,
    RayConfig,
    StepUnderflow,
    TabulatedForcing,
    ZeroForcing,
    _integrate_adaptive,
    check_matsumura_bound,
    check_profile_bound,
    check_sqrtlog_decay,
    integrate_profile,
    log_weight_integral,
    matsumura_constant,
)


def _ray(**kw) -> RayConfig:
    base = dict(sigma=0.0, omega=Direction(1.0, 0.0), eps=0.1, mu=0.05, t_end=1e6)
    base.update(kw)
    return RayConfig(**base)


# ---------------------------------------------------------------------------
# parameter validation


def test_matsumura_params_validation():
    MatsumuraParams(c0=1.0, c1=0.0, p=2.0, q=1.5, t0=2.0, phi0=1.0)
    with pytest.raises(ValueError):
        MatsumuraParams(c0=0.0, c1=0.0, p=2.0, q=1.5, t0=2.0, phi0=1.0)
    with pytest.raises(ValueError):
        MatsumuraParams(c0=1.0, c1=-1.0, p=2.0, q=1.5, t0=2.0, phi0=1.0)
    with pytest.raises(ValueError):
        MatsumuraParams(c0=1.0, c1=0.0, p=1.0, q=1.5, t0=2.0, phi0=1.0)
    with pytest.raises(ValueError):
        MatsumuraParams(c0=1.0, c1=0.0, p=2.0, q=1.0, t0=2.0, phi0=1.0)
    with pytest.raises(ValueError):
        MatsumuraParams(c0=1.0, c1=0.0, p=2.0, q=1.5, t0=1.0, phi0=1.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["c0", "c1", "p", "q", "t0", "phi0"])
def test_matsumura_params_reject_non_finite(name, value):
    # a NaN passes every `<=` / `<` check, and c1 = NaN would skip the
    # tail term and give a finite, wrong constant
    fields = dict(c0=1.0, c1=0.5, p=2.0, q=1.5, t0=2.0, phi0=1.0)
    with pytest.raises(ValueError, match=name):
        MatsumuraParams(**{**fields, name: value})


def test_ray_config_validation():
    with pytest.raises(ValueError):
        _ray(mu=0.2)
    with pytest.raises(ValueError):
        _ray(eps=-0.1)
    with pytest.raises(ValueError):
        _ray(t_end=1.0)
    with pytest.raises(ValueError):
        _ray(sigma=2.0, support_radius=1.0)
    r = _ray(sigma=-0.5)
    assert r.t_start == 2.0


def test_forcing_validation():
    with pytest.raises(ValueError):
        EnvelopeForcing(amplitude=1.0, mu=0.05, sign_mode="bogus")
    with pytest.raises(ValueError):
        TabulatedForcing(times=np.array([2.0, 1.0]), values=np.array([0.0, 0.0]))


# ---------------------------------------------------------------------------
# the explicit constant


def test_constant_closed_form_without_forcing():
    # p = 2 gives p* = 2; with c1 = 0, t0 = 2, phi0 = 1:
    # C2 = (log 2)^2 / log 2 + (2 / 2)^1 = log 2 + 1
    params = MatsumuraParams(c0=1.0, c1=0.0, p=2.0, q=1.5, t0=2.0, phi0=1.0)
    assert matsumura_constant(params) == pytest.approx(math.log(2.0) + 1.0, rel=1e-12)


def test_constant_with_forcing_matches_mpmath():
    params = MatsumuraParams(c0=1.0, c1=0.5, p=2.0, q=1.5, t0=2.0, phi0=1.0)
    tail = float(mp.quad(lambda tau: mp.log(tau) ** 2 * tau ** -1.5, [2, mp.inf]))
    expected = (math.log(2.0) ** 2 + 0.5 * tail) / math.log(2.0) + 1.0
    assert matsumura_constant(params) == pytest.approx(expected, rel=1e-7)


def test_log_weight_integral_against_mpmath():
    # (1.3, 10) puts a log 2 = 6.2 above p* + 2: the continued-fraction branch
    for p_star, q in ((2.0, 1.5), (3.5, 1.2), (1.3, 2.5), (1.3, 10.0)):
        # substitute s = log tau; mpmath handles the exponential tail well
        with mp.workdps(30):
            expected = float(
                mp.quad(
                    lambda s: s ** p_star * mp.e ** (-(q - 1.0) * s),
                    [mp.log(2), mp.inf],
                )
            )
        assert log_weight_integral(p_star, q) == pytest.approx(expected, rel=1e-13)


def _incomplete_gamma_draws(n, seed):
    """(k, x) = (p* + 1, (q - 1) log 2) of the tail integral for seeded (p, q)."""
    rng = np.random.default_rng(seed)
    p = rng.uniform(1.1, 4.0, n)
    q = 1.0 + np.exp(rng.uniform(math.log(1e-3), math.log(30.0), n))
    return p / (p - 1.0) + 1.0, (q - 1.0) * math.log(2.0)


def test_gammaincc_matches_scipy():
    # scipy's own Q drifts to ~1e-14 from mpmath for k above ~12, so the
    # draws keep p* <= 11; both branches of the in-module Q are hit
    k, x = _incomplete_gamma_draws(20000, 20240817)
    series = x < k + 1.0
    assert 1000 < series.sum() < len(k) - 1000
    ours = np.array([profile_ode._gammaincc(a, b) for a, b in zip(k.tolist(), x.tolist())])
    expected = special.gammaincc(k, x)
    assert np.max(np.abs(ours - expected) / expected) <= 1e-14


def test_gammaincc_against_mpmath():
    # beyond scipy's 1e-14 range: k up to 60, x up to 2k + 5
    rng = np.random.default_rng(7)
    for _ in range(200):
        k = float(rng.uniform(2.0, 60.0))
        x = float(rng.uniform(1e-3, 2.0 * k + 5.0))
        with mp.workdps(30):
            expected = mp.gammainc(k, x, mp.inf, regularized=True)
            assert abs(profile_ode._gammaincc(k, x) - expected) <= 1e-14 * expected
    assert profile_ode._gammaincc(3.0, math.inf) == 0.0


# ---------------------------------------------------------------------------
# the saturating ODE and the bound


def test_saturating_ode_matches_closed_form():
    # c1 = 0, p = 2: Phi(t) = phi0 / (1 + c0 phi0 log(t / t0))
    params = MatsumuraParams(c0=0.7, c1=0.0, p=2.0, q=1.5, t0=2.0, phi0=1.3)
    chk = check_matsumura_bound(params, t_end=1e6)
    exact = params.phi0 / (
        1.0 + params.c0 * params.phi0 * np.log(chk.times / params.t0)
    )
    assert np.max(np.abs(chk.phi - exact) / exact) < 1e-8
    assert chk.holds
    assert chk.max_ratio <= 1.0 + 1e-7


def test_bound_holds_for_random_parameters():
    rng = np.random.default_rng(99)
    for _ in range(10):
        params = MatsumuraParams(
            c0=float(rng.uniform(0.1, 5.0)),
            c1=float(rng.uniform(0.0, 2.0)),
            p=float(rng.uniform(1.2, 4.0)),
            q=float(rng.uniform(1.1, 3.0)),
            t0=float(rng.uniform(2.0, 10.0)),
            phi0=float(rng.uniform(0.01, 5.0)),
        )
        chk = check_matsumura_bound(params, t_end=1e6)
        assert chk.holds, params


def test_bound_check_on_grid_with_ulp_shifted_start():
    # np.log of this log grid starts one ulp below log(t0); the solve
    # must take its span from the grid, not from log(t0)
    params = MatsumuraParams(c0=1.0, c1=0.5, p=2.0, q=1.5,
                             t0=4.192351290772627, phi0=1.0)
    assert check_matsumura_bound(params, t_end=4480927.125045097).holds


def test_lemma_on_forced_profile():
    # Phi = P V^2 obeys dPhi/dt = -Phi^2/t + 2 P V G with |2 P V G| <= c1 t^-q
    ray = _ray(sigma=-1.5)
    forcing = EnvelopeForcing(amplitude=0.05, mu=ray.mu, sigma=ray.sigma)
    series = integrate_profile(1.0, ray, forcing)
    params, chk = check_profile_bound(series, ray)
    assert (params.c0, params.p, params.q) == (1.0, 2.0, 1.5 - 2.0 * ray.mu)
    assert (params.t0, params.phi0) == (ray.t_start, series.Phi[0])
    # c1 is the smallest constant that bounds the sampled forcing term
    ratio = np.abs(2.0 * series.V * series.G) / (params.c1 * series.times ** -params.q)
    assert params.c1 > 0.0
    assert ratio.max() == pytest.approx(1.0, rel=1e-14)
    assert np.all(ratio <= 1.0 + 1e-14)
    expected = matsumura_constant(params) / np.log(series.times) ** (params.p_star - 1.0)
    np.testing.assert_allclose(chk.bound, expected, rtol=1e-15)
    assert chk.holds


# ---------------------------------------------------------------------------
# profile integration


def test_nan_derivative_raises_step_underflow():
    with pytest.raises(StepUnderflow):
        _integrate_adaptive(lambda s, y: math.nan, 1.0, np.linspace(0.0, 1.0, 5))


def test_step_budget_raises_step_underflow(monkeypatch):
    # a solve that needs more attempted steps than the budget stops there
    calls = []

    def rhs(s, y):
        calls.append(s)
        return -y

    monkeypatch.setattr(profile_ode, "STEP_BUDGET", 3)
    with pytest.raises(StepUnderflow, match="3 steps"):
        _integrate_adaptive(rhs, 1.0, np.linspace(0.0, 50.0, 9))
    # the initial step's 2 calls, then 12 per step and 3 more for dense output
    assert len(calls) <= 2 + 3 * (12 + 3)


def test_unforced_profile_matches_closed_form():
    # dV/dt = -P V^3 / (2t)  =>  V = V0 / sqrt(1 + P V0^2 log(t/t0))
    ray = _ray(t_end=1e8)
    series = integrate_profile(2.0, ray, ZeroForcing(), v0=0.5)
    exact = 0.5 / np.sqrt(1.0 + 2.0 * 0.25 * np.log(series.times / series.times[0]))
    assert np.max(np.abs(series.V - exact) / exact) < 1e-8
    assert series.times[0] == ray.t_start
    assert series.times[-1] == pytest.approx(1e8)
    np.testing.assert_allclose(series.Phi, 2.0 * series.V ** 2, rtol=1e-12)


def test_default_initial_amplitude():
    ray = _ray()
    series = integrate_profile(1.0, ray)
    assert series.V[0] == pytest.approx(ray.eps * 1.0 ** (ray.mu - 1.0))


def test_degenerate_symbol_freezes_unforced_profile():
    series = integrate_profile(0.0, _ray(), ZeroForcing(), v0=0.3)
    np.testing.assert_allclose(series.V, 0.3, rtol=1e-12)


def test_negative_symbol_rejected():
    with pytest.raises(ValueError):
        integrate_profile(-1.0, _ray())


def test_blow_up_guard_triggers():
    huge = EnvelopeForcing(amplitude=1e9, mu=0.05, sign_mode="fixed")
    with pytest.raises(ProfileBlowUp):
        integrate_profile(0.0, _ray(), huge, v0=1.0)


def test_envelope_forcing_signs():
    f = EnvelopeForcing(amplitude=2.0, mu=0.05, sigma=0.0)
    assert f(10.0, 1.0) > 0
    assert f(10.0, -1.0) < 0
    assert f(10.0, 1.0) == pytest.approx(2.0 * 10.0 ** (2 * 0.05 - 1.5))
    fixed = EnvelopeForcing(amplitude=2.0, mu=0.05, sign_mode="fixed")
    assert fixed(10.0, -1.0) > 0
    # the scalar call, which takes the envelope in its own frame, is the
    # envelope times the sign (+1 at v = -0.0) byte for byte
    for forcing in (f, fixed, EnvelopeForcing(0.3, 0.07, sigma=-0.4),
                    EnvelopeForcing(0.3, 0.07, sigma=0.8, sign_mode="fixed")):
        for t in np.geomspace(2.0, 1e8, 101).tolist():
            env = forcing.envelope(t)
            assert _bits(env) == _bits(forcing.prefactor * t ** (2.0 * forcing.mu - 1.5))
            for v in (1.0, -1.0, 0.0, -0.0):
                sign = 1.0 if v >= 0 or forcing.sign_mode == "fixed" else -1.0
                assert _bits(forcing(t, v)) == _bits(env * sign), (forcing, t, v)


def test_tabulated_forcing_interpolates_in_log_t():
    ts = np.array([2.0, 4.0, 8.0])
    vs = np.array([1.0, 3.0, 5.0])
    f = TabulatedForcing(times=ts, values=vs)
    # log-t midpoint of [2, 4] is sqrt(8)
    assert f(math.sqrt(8.0), 0.0) == pytest.approx(2.0)
    assert f(4.0, 0.0) == pytest.approx(3.0)
    assert f(100.0, 0.0) == 0.0


def test_forced_profile_reproduced_by_tabulated_forcing():
    ray = _ray(t_end=1e4)
    forced = integrate_profile(1.5, ray, EnvelopeForcing(amplitude=0.3, mu=0.05), v0=0.4)
    tab = TabulatedForcing(times=forced.times, values=forced.G)
    replay = integrate_profile(1.5, ray, tab, v0=0.4)
    assert np.max(np.abs(replay.V - forced.V)) < 1e-4 * np.max(np.abs(forced.V))


def test_sqrtlog_decay_statistic():
    times = np.array([math.e, math.e ** 4])
    V = np.array([2.0, 1.0])
    series = ProfileSeries(times=times, V=V, G=np.zeros(2), Phi=np.zeros(2))
    # |V| sqrt(P log t): max(2 sqrt(3), 1 * sqrt(3*4)) = 2 sqrt 3
    assert check_sqrtlog_decay(series, 3.0) == pytest.approx(2.0 * math.sqrt(3.0))
    # the one WrongRegime of the package, so `except structure.WrongRegime` sees it
    with pytest.raises(structure.WrongRegime):
        check_sqrtlog_decay(series, 0.0)


def test_profile_csv_deterministic(tmp_path):
    series = integrate_profile(1.0, _ray(t_end=1e3), v0=0.2)
    a, b = (_write_csv(tmp_path / f"{name}.csv", _profile_columns(series)).read_text()
            for name in "ab")
    assert a == b
    header = a.splitlines()[0]
    assert header == "t,V,G,Phi"


# ---------------------------------------------------------------------------
# the scalar DOP853 loop against scipy's solve_ivp as an oracle


def _oracle(rhs, y0, out_s, guard=None, rtol=1e-10, atol=1e-12):
    events = None
    if guard is not None:
        def events(s, y):
            return guard(s, y[0])
        events.terminal = True
    return integrate.solve_ivp(
        lambda s, y: [rhs(s, y[0])], (out_s[0], out_s[-1]), [y0],
        method="DOP853", t_eval=out_s, events=events, rtol=rtol, atol=atol,
    )


def _rel(a, b) -> float:
    return float(np.max(np.abs(a - b) / np.abs(b)))


def test_embedded_tableau_is_scipys_dop853():
    # float == is bitwise on these nonzero, finite coefficients; the tuples
    # compare the indices of the nonzeros too
    D = integrate.DOP853

    def nonzero(row):
        return tuple((j, float(a)) for j, a in enumerate(row) if a != 0.0)

    assert D.C[0] == 0.0 and not D.A[0].any()      # stage 0 is the step's start
    assert profile_ode._STAGES == tuple(zip(D.C[1:].tolist(), map(nonzero, D.A[1:])))
    assert profile_ode._EXTRA_STAGES == tuple(
        zip(D.C_EXTRA.tolist(), map(nonzero, D.A_EXTRA)))
    assert profile_ode._B == nonzero(D.B)
    assert profile_ode._E3 == nonzero(D.E3)
    assert profile_ode._E5 == nonzero(D.E5)
    assert profile_ode._D == tuple(map(nonzero, D.D))
    assert profile_ode._ERROR_EXPONENT == -1.0 / (D.error_estimator_order + 1)


def _loop_sum(row):
    """A tableau row summed as a loop over its tuple: the compiled sums' reference."""
    def row_sum(K):
        acc = 0.0
        for j, a in row:
            acc += a * K[j]
        return acc
    return row_sum


def _loop_stages(f, s, y, h, k0):
    """profile_ode._stages as a loop over the tableau tuples."""
    po = profile_ode
    K = [k0]
    for c, row in po._STAGES:
        K.append(f(s + c * h, y + _loop_sum(row)(K) * h))
    return K, *(_loop_sum(row)(K) for row in (po._B, po._E5, po._E3))


def _loop_dense_coefficients(f, s, y, h, K):
    """profile_ode._dense_coefficients as a loop over the tableau tuples."""
    K = list(K)
    for c, row in profile_ode._EXTRA_STAGES:
        K.append(f(s + c * h, y + _loop_sum(row)(K) * h))
    return tuple(h * _loop_sum(row)(K) for row in profile_ode._D)


def _every_sum(stages, dense_coefficients, K):
    """Every c and row sum that the step's two functions form on the k's K.

    f hands back K's stages in turn and records its (s, y).  With s = 0.0,
    y = -0.0 and h = 1.0, s + c h is c and y + sum h is the row's sum, both
    exactly (-0.0 + x is x for every x, -0.0 and NaN included)."""
    calls = []

    def recorder(values):
        values = iter(values)

        def f(s, y):
            calls.append((s, y))
            return next(values)
        return f

    Kc, *sums = stages(recorder(K[1:12]), 0.0, -0.0, 1.0, K[0])
    assert len(Kc) == 12 and all(a is b for a, b in zip(Kc, K))
    sums += dense_coefficients(recorder(K[13:16]), 0.0, -0.0, 1.0, [*Kc, K[12]])
    assert len(calls) == 14 and len(sums) == 7
    return [c for c, _ in calls], [y for _, y in calls] + sums


def _bits(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


def test_compiled_rows_sum_as_the_tuple_loop():
    # float == would let -0.0 pass for 0.0 and fail on NaN, so compare bytes
    rng = np.random.default_rng(35)
    mixed = (rng.choice([-1.0, 1.0], 16) * 10.0 ** rng.uniform(-300, 300, 16)).tolist()
    Ks = [
        [0.0] * 16, [-0.0] * 16, [(-0.0, 0.0)[j % 2] for j in range(16)],
        [1e-300] * 16, [(-1e-300, 1e-300)[j % 3 == 0] for j in range(16)],
        [1e300] * 16, [(-1e300, 1e300)[j % 2] for j in range(16)],
        [(1e300, -0.0, 1e-300, -2.5)[j % 4] for j in range(16)],
        mixed, rng.standard_normal(16).tolist(),
    ]
    arrays = [np.array(column) for column in zip(*Ks)]      # K[j] over every case at once
    po = profile_ode
    cs = [c for c, _ in po._STAGES + po._EXTRA_STAGES]
    rows = [row for _, row in po._STAGES + po._EXTRA_STAGES] + [po._B, po._E5, po._E3, *po._D]
    assert len(rows) == 21
    for K in Ks:
        got_cs, got = _every_sum(po._stages, po._dense_coefficients, K)
        assert got_cs == cs
        assert all(type(x) is float for x in got)
        assert [_bits(x) for x in got] == [_bits(_loop_sum(row)(K)) for row in rows], K
    got_cs, got = _every_sum(po._stages, po._dense_coefficients, arrays)
    assert got_cs == cs
    for row, x in zip(rows, got):
        assert x.dtype == np.float64 and x.shape == (len(Ks),)
        assert _bits(x) == _bits(_loop_sum(row)(arrays)), row
    # the vector sums equal the scalar sums, case by case
    scalar = [_every_sum(po._stages, po._dense_coefficients, K)[1] for K in Ks]
    assert [_bits(x) for x in got] == [_bits(column) for column in zip(*scalar)]


@pytest.fixture
def solves(monkeypatch):
    """Records the arguments of every _integrate_adaptive call."""
    calls = []

    def spy(rhs, y0, out_s, guard=None):
        calls.append((rhs, y0, out_s, guard))
        return _integrate_adaptive(rhs, y0, out_s, guard=guard)

    monkeypatch.setattr(profile_ode, "_integrate_adaptive", spy)
    return calls


_SMOOTH_SOLVES = {
    "unforced": lambda: integrate_profile(2.0, _ray(t_end=1e8), ZeroForcing(), v0=0.5),
    "adversarial": lambda: integrate_profile(
        1.5, _ray(sigma=0.4, t_end=1e8), EnvelopeForcing(0.5, 0.05, sigma=0.4), v0=0.6
    ),
    "matsumura": lambda: check_matsumura_bound(
        MatsumuraParams(c0=1.3, c1=0.8, p=2.7, q=1.4, t0=3.5, phi0=2.0), t_end=1e6
    ),
}


@pytest.mark.parametrize("solve", _SMOOTH_SOLVES.values(), ids=_SMOOTH_SOLVES.keys())
def test_scalar_loop_matches_solve_ivp(solves, solve):
    solve()
    (rhs, y0, out_s, guard), = solves
    sol = _oracle(rhs, y0, out_s, guard)
    assert sol.status == 0
    assert _rel(_integrate_adaptive(rhs, y0, out_s, guard=guard), sol.y[0]) <= 1e-12


def _tabulated_replay():
    ray = _ray(t_end=1e4)
    forced = integrate_profile(1.5, ray, EnvelopeForcing(amplitude=0.3, mu=0.05), v0=0.4)
    integrate_profile(1.5, ray, TabulatedForcing(forced.times, forced.G), v0=0.4)


def _sign_flip():
    # a drift pulls V through zero, where the adversarial sign of G flips
    forcing = EnvelopeForcing(amplitude=0.3, mu=0.05)

    def rhs(s, v):
        t = math.exp(s)
        return -0.5 * v ** 3 + t * forcing(t, v) - 0.5

    vs = profile_ode._integrate_adaptive(rhs, 0.3, np.log(np.geomspace(2.0, 1e4, 200)))
    assert vs[0] > 0 > vs[-1]


@pytest.mark.parametrize("solve", [_tabulated_replay, _sign_flip],
                         ids=["tabulated", "sign-flip"])
def test_scalar_loop_as_accurate_as_solve_ivp_past_kinks(solves, solve):
    # A kink in the derivative (at every node of a table interpolated in
    # log t, or where the adversarial sign flips) defeats the local error
    # estimate.  Our sums round differently from numpy's fused multiply-add
    # dot, so past a kink the two loops take different steps; each is then
    # only as close to the solution as its error control allows.
    solve()
    rhs, y0, out_s, guard = solves[-1]
    ours = _integrate_adaptive(rhs, y0, out_s, guard=guard)
    oracle = _oracle(rhs, y0, out_s, guard).y[0]
    tight = _oracle(rhs, y0, out_s, guard, rtol=1e-13, atol=1e-16).y[0]
    assert _rel(ours, tight) <= 10 * _rel(oracle, tight)


def _blow_up() -> ProfileBlowUp:
    huge = EnvelopeForcing(amplitude=1e9, mu=0.05, sign_mode="fixed")
    with pytest.raises(ProfileBlowUp) as info:
        integrate_profile(0.0, _ray(), huge, v0=1.0)
    return info.value


def test_blow_up_event_matches_solve_ivp(solves):
    blow_up = _blow_up()
    (rhs, y0, out_s, guard), = solves
    sol = _oracle(rhs, y0, out_s, guard)
    assert sol.status == 1
    assert blow_up.t == pytest.approx(math.exp(sol.t_events[0][0]), rel=1e-10)
    assert blow_up.v == pytest.approx(sol.y_events[0][0][0], rel=1e-10)


def _outcome(rhs, y0, out_s, guard) -> bytes:
    """The bytes of _integrate_adaptive's y, or of ProfileBlowUp's t and v."""
    try:
        return _bits(_integrate_adaptive(rhs, y0, out_s, guard=guard))
    except ProfileBlowUp as exc:
        return _bits([exc.t, exc.v])


@pytest.mark.parametrize(
    "solve", [*_SMOOTH_SOLVES.values(), _tabulated_replay, _blow_up],
    ids=[*_SMOOTH_SOLVES, "tabulated", "blow-up"])
def test_compiled_rows_integrate_as_the_tuple_loop(solves, monkeypatch, solve):
    # every integration the solve made, rerun with loops over the tableau
    # tuples in place of the compiled stage functions, gives the same bits
    solve()
    compiled = [_outcome(*call) for call in solves]
    monkeypatch.setattr(profile_ode, "_stages", _loop_stages)
    monkeypatch.setattr(profile_ode, "_dense_coefficients", _loop_dense_coefficients)
    assert [_outcome(*call) for call in solves] == compiled


def test_finite_time_singularity_raises_step_underflow():
    # y' = y^2, y(0) = 1 blows up at s = 1; with no guard the step control
    # must shrink to the 10-ulp floor and stop there, not loop or return inf
    calls = []

    def rhs(s, y):
        calls.append(s)
        assert len(calls) < 100_000
        return y * y

    with pytest.raises(StepUnderflow):
        _integrate_adaptive(rhs, 1.0, np.linspace(0.0, 2.0, 9))
    assert max(calls) < 1.0 + 1e-6


@pytest.mark.parametrize("solve", [
    # |phi|^p overflows a Python float power at the first derivative
    lambda: check_matsumura_bound(
        MatsumuraParams(c0=1.0, c1=0.0, p=3.0, q=1.5, t0=2.0, phi0=1e300)
    ),
    # the scaled derivative overflows in the initial-step selection
    lambda: integrate_profile(
        0.0, _ray(), EnvelopeForcing(1e300, 0.05, sign_mode="fixed"), v0=1.0
    ),
], ids=["power-overflow", "initial-step-overflow"])
def test_overflowing_derivative_raises_step_underflow(solve):
    # numpy's overflow in the guarded retry must not warn: pytest turns a
    # RuntimeWarning into an error
    with pytest.raises(StepUnderflow):
        solve()


# ---------------------------------------------------------------------------
# the stages call rhs itself; NaN and overflow are looked for once per step


def _stage_guard(rhs):
    """rhs behind the check of _integrate_adaptive's f: numpy's signed inf on
    OverflowError, StepUnderflow on NaN.  Handed to _integrate_adaptive as
    its rhs, it checks every stage as it comes: the reference outcome."""
    def f(s, y):
        try:
            dy = rhs(s, y)
        except OverflowError:
            with np.errstate(over="ignore", invalid="ignore"):
                dy = float(rhs(s, np.float64(y)))
        if math.isnan(dy):
            raise StepUnderflow(f"NaN derivative at s={s}")
        return dy
    return f


def _result(rhs, y0, out_s, guard=None):
    """The bytes of _integrate_adaptive's y, or the type and message of what it raised."""
    try:
        return _bits(_integrate_adaptive(rhs, y0, out_s, guard=guard))
    except (StepUnderflow, ProfileBlowUp) as exc:
        return type(exc), str(exc)


def _checked_once_as_every_stage(rhs, y0, out_s):
    """_integrate_adaptive's outcome, asserted equal to that of every stage checked."""
    outcome = _result(rhs, y0, out_s)
    assert outcome == _result(_stage_guard(rhs), y0, out_s)
    return outcome


def _int_of_state(s, y):
    # int() of a NaN raises ValueError, so the stage after the NaN one raises
    int(y)
    return math.nan if s > 0.37 else -y


@pytest.mark.parametrize("rhs", [lambda s, y: math.nan if s > 0.37 else -y, _int_of_state],
                         ids=["nan", "nan-then-value-error"])
def test_nan_at_a_later_stage_raises_where_the_stage_guard_does(rhs):
    kind, message = _checked_once_as_every_stage(rhs, 1.0, np.linspace(0.0, 1.0, 5))
    assert kind is StepUnderflow and message.startswith("NaN derivative at s=0.37")


def test_nan_in_a_dense_output_stage_raises_where_the_stage_guard_does(monkeypatch):
    # a first run finds the first output step; its stage 13 (c = 0.1) then
    # returns NaN, and no stage of any step before it lands on that s
    out_s = np.linspace(0.0, 1.0, 5)
    steps = []
    compiled = profile_ode._dense_coefficients

    def spy(f, s, y, h, K):
        steps.append((s, h))
        return compiled(f, s, y, h, K)

    monkeypatch.setattr(profile_ode, "_dense_coefficients", spy)
    _integrate_adaptive(lambda s, y: -y, 1.0, out_s)
    s, h = steps[0]
    s13 = s + 0.1 * h
    calls = []

    def rhs(s, y):
        calls.append(s)
        return math.nan if s == s13 else -y

    outcome = _checked_once_as_every_stage(rhs, 1.0, out_s)
    assert outcome == (StepUnderflow, f"NaN derivative at s={s13}")
    # the call before the first at s13 is the step's end: s13 is a dense stage
    assert calls[calls.index(s13) - 1] == pytest.approx(s + h, rel=1e-15)


def test_overflow_at_a_later_stage_is_retried_as_the_stage_guard_does():
    # a Python float power overflows only past s = 0.37, inside a step;
    # numpy's inf there feeds the next stage inf - inf, a NaN derivative
    retried = []

    def rhs(s, y):
        if type(y) is np.float64:
            retried.append(s)
        return -y + (y * 0.0 + 10.0) ** (400 if s > 0.37 else 1)

    kind, message = _checked_once_as_every_stage(rhs, 1.0, np.linspace(0.0, 1.0, 5))
    assert kind is StepUnderflow and message.startswith("NaN derivative at s=0.4")
    assert retried and min(retried) > 0.37


def test_inf_minus_inf_in_a_step_is_rejected_not_raised(monkeypatch):
    # stages in both windows give K with +inf and -inf but no NaN: the step's
    # sums are NaN, so it is redone through the guard, which does not raise,
    # and the error control rejects it
    def rhs(s, y):
        return math.inf if 0.5 < s < 0.6 else -math.inf if 0.6 <= s < 0.7 else math.cos(s)

    both = []
    compiled = profile_ode._stages

    def spy(f, s, y, h, k0):
        K, *sums = compiled(f, s, y, h, k0)
        both.append(math.inf in K and -math.inf in K and not any(map(math.isnan, K)))
        return K, *sums

    monkeypatch.setattr(profile_ode, "_stages", spy)
    kind, message = _checked_once_as_every_stage(rhs, 1.0, np.linspace(0.0, 1.0, 5))
    assert kind is StepUnderflow and message.startswith("step size fell below 10 ulp at s=")
    assert float(message.rpartition("=")[2]) == pytest.approx(0.5)
    assert any(both)


def _stage_guarded_profile(P_val, ray, forcing, v0):
    """integrate_profile's reference: forcing(t, v) through the instance, every stage checked."""
    out_t = profile_ode._log_grid(ray.t_start, ray.t_end)

    def rhs(s, v):
        t = math.exp(s)
        return -0.5 * P_val * v ** 3 + t * forcing(t, v)

    vs = _integrate_adaptive(_stage_guard(rhs), v0, np.log(out_t),
                             guard=lambda s, v: profile_ode.BLOWUP_GUARD - abs(v))
    gs = np.array([forcing(t, v) for t, v in zip(out_t.tolist(), vs.tolist())])
    return vs, gs, P_val * vs ** 2


def _plain_forcing(t, v):
    return 0.2 * math.sin(math.log(t)) / t


_TABLE_T = np.geomspace(2.0, 1e5, 40)
_FORCINGS = {
    "zero": ZeroForcing(),
    "adversarial": EnvelopeForcing(0.5, 0.05, sigma=-0.5),
    "fixed": EnvelopeForcing(0.5, 0.05, sigma=0.3, sign_mode="fixed"),
    "tabulated": TabulatedForcing(_TABLE_T, 0.3 * np.sin(np.log(_TABLE_T)) / _TABLE_T),
    "plain-function": _plain_forcing,
}


@pytest.mark.parametrize("forcing", _FORCINGS.values(), ids=_FORCINGS.keys())
def test_bound_forcing_gives_the_stage_guarded_bits(forcing):
    ray = _ray(sigma=-0.5, t_end=1e8)
    series = integrate_profile(1.5, ray, forcing, v0=0.6)
    V, G, _ = _stage_guarded_profile(1.5, ray, forcing, 0.6)
    assert _bits(series.V) == _bits(V)
    assert _bits(series.G) == _bits(G)
    assert np.any(G) != isinstance(forcing, ZeroForcing)


def _same_bits(series, reference):
    return [_bits(a) for a in (series.V, series.G, series.Phi)] == list(map(_bits, reference))


def test_unforced_ray_never_calls_its_forcing(monkeypatch):
    calls = []

    def counted(self, t, v):
        calls.append(t)
        return 0.0

    ray = _ray(sigma=-0.5, t_end=1e8)
    reference = _stage_guarded_profile(1.5, ray, ZeroForcing(), 0.6)
    monkeypatch.setattr(ZeroForcing, "__call__", counted)
    series = integrate_profile(1.5, ray, ZeroForcing(), v0=0.6)
    assert calls == []
    assert _same_bits(series, reference)

    class Decaying(ZeroForcing):    # the fast path is for the exact type only
        def __call__(self, t, v):
            calls.append(t)
            return 0.1 / t

    forced = integrate_profile(1.5, ray, Decaying(), v0=0.6)
    assert len(calls) > len(forced.times)       # every stage, then every G sample
    assert _bits(forced.G) == _bits(0.1 / forced.times)
    assert not np.array_equal(forced.V, series.V)


@pytest.mark.parametrize("t_end", [1e4, 1e300, sys.float_info.max], ids=["1e4", "1e300", "max"])
def test_unforced_corners_give_the_stage_guarded_bits(t_end):
    # P = 0 freezes V, a tiny P barely moves it; v0 = -0.0 leaves V and G +0.0
    ray = _ray(t_end=t_end)
    for P_val, v0 in itertools.product((0.0, 1e-5, 1.0, 3.0), (0.5, -0.3, 0.0, -0.0, 1e-300)):
        reference = _stage_guarded_profile(P_val, ray, ZeroForcing(), v0)
        series = integrate_profile(P_val, ray, ZeroForcing(), v0=v0)
        assert _same_bits(series, reference), (P_val, v0)
