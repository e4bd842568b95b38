"""Unit tests for the ray-profile ODE and the logarithmic decay lemma."""

import bisect
import contextlib
import itertools
import math
import sys
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate, special

from wavedecay import profile_ode, structure
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


def _loop_sum(row, K):
    """A tableau row summed as a loop over its tuple: the compiled sums' reference."""
    acc = 0.0
    for j, a in row:
        acc += a * K[j]
    return acc


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
        assert [_bits(x) for x in got] == [_bits(_loop_sum(row, K)) for row in rows], K
    got_cs, got = _every_sum(po._stages, po._dense_coefficients, arrays)
    assert got_cs == cs
    for row, x in zip(rows, got):
        assert x.dtype == np.float64 and x.shape == (len(Ks),)
        assert _bits(x) == _bits(_loop_sum(row, arrays)), row
    # the vector sums equal the scalar sums, case by case
    scalar = [_every_sum(po._stages, po._dense_coefficients, K)[1] for K in Ks]
    assert [_bits(x) for x in got] == [_bits(column) for column in zip(*scalar)]


# ---------------------------------------------------------------------------
# the scalar DOP853 loop and integrate_profile against a plain reference


def _reference_dop853(rhs, y0, out_s, guard=None):
    """_integrate_adaptive's y at out_s, or what it raises, as a plain loop:
    DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, II.4-II.6) with scipy's
    starting step, error norm, step control and dense output.  Every stage is
    checked as it comes, every sum is a loop over the tableau tuples, and every
    constant is a literal: of profile_ode it reads the tuples and STEP_BUDGET."""
    po = profile_ode

    def f(s, y):
        try:
            dy = rhs(s, y)
        except OverflowError:       # a float power overflowed: numpy's signed inf
            with np.errstate(over="ignore", invalid="ignore"):
                dy = float(rhs(s, np.float64(y)))
        if math.isnan(dy):
            raise StepUnderflow(f"NaN derivative at s={s}")
        return dy

    def stages(K, s, y, h, tableau):
        for c, row in tableau:
            K.append(f(s + c * h, y + _loop_sum(row, K) * h))

    out = out_s.tolist()
    s, y, s_end = out[0], float(y0), out[-1]
    dy = f(s, y)
    scale = 1e-12 + abs(y) * 1e-10
    d0, d1 = abs(y) / scale, abs(dy) / scale
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, s_end - s)
    h_abs = 0.0         # d1 overflowed: the first step is the floor
    if h0 > 0.0:
        d2 = abs(f(s + h0, y + h0 * dy) - dy) / scale / h0
        h1 = (max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15
              else (0.01 / max(d1, d2)) ** 0.125)
        h_abs = min(100 * h0, h1, s_end - s)
    g = guard(s, y) if guard else None
    ys, j, attempts = [], 0, 0
    while s < s_end:
        floor = 10.0 * (math.nextafter(s, math.inf) - s)
        h_abs, rejected = max(h_abs, floor), False
        while True:         # until a step passes the error control
            if h_abs < floor:
                raise StepUnderflow(f"step size fell below 10 ulp at s={s}")
            if attempts == po.STEP_BUDGET:
                raise StepUnderflow(f"{po.STEP_BUDGET} steps did not reach s={s_end} (at s={s})")
            attempts += 1
            s_new = min(s + h_abs, s_end)
            h = h_abs = s_new - s
            K = [dy]
            stages(K, s, y, h, po._STAGES)
            y_new = y + h * _loop_sum(po._B, K)
            K.append(f(s_new, y_new))
            scale = 1e-12 + max(abs(y), abs(y_new)) * 1e-10
            e5, e3 = _loop_sum(po._E5, K) / scale, _loop_sum(po._E3, K) / scale
            e5, e3 = e5 * e5, e3 * e3
            err = h * e5 / math.sqrt(e5 + 0.01 * e3) if e5 or e3 else 0.0
            if err < 1.0:
                factor = 10.0 if err == 0.0 else min(10.0, 0.9 * err ** -0.125)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * err ** -0.125)
            rejected = True
        g_old, g = g, guard(s_new, y_new) if guard else None
        crossed = guard and ((g_old <= 0 and g >= 0) or (g_old >= 0 and g <= 0))
        k = bisect.bisect_right(out, s_new, j)      # this step holds out[j:k]
        if crossed or k > j:
            stages(K, s, y, h, po._EXTRA_STAGES)
            delta = y_new - y
            F0, F1, F2 = delta, h * dy - delta, 2 * delta - h * (K[12] + dy)
            F3, F4, F5, F6 = (h * _loop_sum(row, K) for row in po._D)

            def dense(x):   # y at s + x h, x in [0, 1]
                return y + x * (F0 + (1 - x) * (F1 + x * (F2 + (1 - x) * (
                    F3 + x * (F4 + (1 - x) * (F5 + x * F6))))))

            if crossed:     # bisect the guard's sign change on the interpolant
                def g_at(r):
                    return guard(r, dense((r - s) / h))

                lo, hi, g_lo = s, s_new, g_at(s)
                if g_lo == 0.0 or g_at(hi) == 0.0:     # an end is the root
                    lo = hi = lo if g_lo == 0.0 else hi
                for _ in range(60):
                    mid = 0.5 * (lo + hi)
                    if mid in (lo, hi):
                        break
                    g_mid = g_at(mid)
                    if g_mid == 0.0:
                        lo = hi = mid
                    elif g_lo * g_mid < 0.0:
                        hi = mid
                    else:
                        lo, g_lo = mid, g_mid
                root = 0.5 * (lo + hi)
                raise ProfileBlowUp(math.exp(root), dense((root - s) / h))
            ys.append(dense((out_s[j:k] - s) / h))
            j = k
        s, y, dy = s_new, y_new, K[12]
    return np.concatenate(ys)


def _answer(integrate, rhs, y0, out_s, guard=None):
    """The bytes of integrate's y, or the type and message of what it raised."""
    try:
        return _bits(integrate(rhs, y0, out_s, guard))
    except Exception as exc:
        return type(exc), str(exc)


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


def _blow_up():
    integrate_profile(0.0, _ray(), EnvelopeForcing(1e9, 0.05, sign_mode="fixed"), v0=1.0)


def test_blow_up_event_matches_solve_ivp(solves):
    with pytest.raises(ProfileBlowUp) as blow_up:
        _blow_up()
    (rhs, y0, out_s, guard), = solves
    sol = _oracle(rhs, y0, out_s, guard)
    assert sol.status == 1
    assert blow_up.value.t == pytest.approx(math.exp(sol.t_events[0][0]), rel=1e-10)
    assert blow_up.value.v == pytest.approx(sol.y_events[0][0][0], rel=1e-10)


def _unit(rhs):
    """y' = rhs(s, y) from y = 1 over s in [0, 1]."""
    return lambda: profile_ode._integrate_adaptive(rhs, 1.0, np.linspace(0.0, 1.0, 5))


def _int_of_state(s, y):
    # int() of a NaN raises ValueError, so the stage after the NaN one raises
    int(y)
    return math.nan if s > 0.37 else -y


# a solve, and the error it ends in (None: it returns)
_CORPUS = {
    **{name: (solve, None) for name, solve in _SMOOTH_SOLVES.items()},
    "tabulated": (_tabulated_replay, None),
    "sign-flip": (_sign_flip, None),
    # the derivative jumps by 1 at s = 0: steps across it shrink by the 0.2
    # floor of the factor where s is small, so s + h keeps h's last bits
    "jump": (lambda: profile_ode._integrate_adaptive(
        lambda s, y: math.cos(s) + (s > 0), 1.0, np.linspace(-1.0, 1.0, 5)), None),
    "blow-up": (_blow_up, (ProfileBlowUp, "exceeded the blow-up guard")),
    # |phi|^p overflows a Python float power at the first derivative
    "power-overflow": (lambda: check_matsumura_bound(MatsumuraParams(
        c0=1.0, c1=0.0, p=3.0, q=1.5, t0=2.0, phi0=1e300)),
        (StepUnderflow, "NaN derivative at s=0.69314718055994")),
    # the scaled derivative overflows in the initial-step selection
    "initial-step-overflow": (lambda: integrate_profile(
        0.0, _ray(), EnvelopeForcing(1e300, 0.05, sign_mode="fixed"), v0=1.0),
        (StepUnderflow, "NaN derivative at s=0.69314718055994")),
    "nan": (_unit(lambda s, y: math.nan), (StepUnderflow, "NaN derivative at s=0.0$")),
    "nan-later": (_unit(lambda s, y: math.nan if s > 0.37 else -y),
                  (StepUnderflow, "NaN derivative at s=0.37")),
    "nan-then-value-error": (_unit(_int_of_state), (StepUnderflow, "NaN derivative at s=0.37")),
    # a Python float power overflows only past s = 0.37, inside a step;
    # numpy's inf there feeds the next stage inf - inf, a NaN derivative
    "overflow-later": (_unit(lambda s, y: -y + (y * 0.0 + 10.0) ** (400 if s > 0.37 else 1)),
                       (StepUnderflow, "NaN derivative at s=0.4")),
    # +inf and -inf stages but no NaN one: the step's sums are NaN, and the
    # error control rejects each step across s = 0.5 down to the floor
    "inf-minus-inf": (_unit(lambda s, y: math.inf if 0.5 < s < 0.6 else
                            -math.inf if 0.6 <= s < 0.7 else math.cos(s)),
                      (StepUnderflow, "step size fell below 10 ulp at s=0.4999")),
}


@pytest.mark.parametrize("solve, error", _CORPUS.values(), ids=_CORPUS.keys())
def test_integrate_adaptive_is_the_reference(solves, solve, error):
    # every integration the solve makes ends as the reference's does: the
    # same bytes of y, or the same type and message of what it raised
    with pytest.raises(error[0], match=error[1]) if error else contextlib.nullcontext():
        solve()
    assert solves
    for call in solves:
        assert _answer(_integrate_adaptive, *call) == _answer(_reference_dop853, *call)


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


def test_nan_in_a_dense_output_stage_raises_where_the_stage_guard_does():
    # a first run finds the first output step; its stage 13 (c = 0.1) then
    # returns NaN, and no stage of any step before it lands on that s
    out_s = np.linspace(0.0, 1.0, 5)
    with mock.patch.object(profile_ode, "_dense_coefficients",
                           wraps=profile_ode._dense_coefficients) as spy:
        _integrate_adaptive(lambda s, y: -y, 1.0, out_s)
    _, s, _, h, _ = spy.call_args_list[0].args
    s13 = s + 0.1 * h
    calls = []

    def rhs(s, y):
        calls.append(s)
        return math.nan if s == s13 else -y

    answer = _answer(_integrate_adaptive, rhs, 1.0, out_s)
    assert answer == (StepUnderflow, f"NaN derivative at s={s13}")
    assert answer == _answer(_reference_dop853, rhs, 1.0, out_s)
    # the call before the first at s13 is the step's end: s13 is a dense stage
    assert calls[calls.index(s13) - 1] == pytest.approx(s + h, rel=1e-15)


def _reference_profile(P_val, ray, forcing, v0):
    """integrate_profile's (V, G, Phi) by _reference_dop853, forcing(t, v) through the instance."""
    out_t = profile_ode._log_grid(ray.t_start, ray.t_end)

    def rhs(s, v):
        t = math.exp(s)
        return -0.5 * P_val * v ** 3 + t * forcing(t, v)

    vs = _reference_dop853(rhs, v0, np.log(out_t),
                           guard=lambda s, v: profile_ode.BLOWUP_GUARD - abs(v))
    gs = np.array([forcing(t, v) for t, v in zip(out_t.tolist(), vs.tolist())])
    return vs, gs, P_val * vs ** 2


def _same_bits(series, reference):
    return [_bits(a) for a in (series.V, series.G, series.Phi)] == list(map(_bits, reference))


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
    assert _same_bits(series, _reference_profile(1.5, ray, forcing, 0.6))
    assert np.any(series.G) != isinstance(forcing, ZeroForcing)


def test_unforced_ray_never_calls_its_forcing(monkeypatch):
    calls = []

    def counted(self, t, v):
        calls.append(t)
        return 0.0

    ray = _ray(sigma=-0.5, t_end=1e8)
    reference = _reference_profile(1.5, ray, ZeroForcing(), 0.6)
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
        series = integrate_profile(P_val, ray, ZeroForcing(), v0=v0)
        assert _same_bits(series, _reference_profile(P_val, ray, ZeroForcing(), v0)), (P_val, v0)
