"""Unit tests for the ray-profile ODE and the logarithmic decay lemma."""

import math

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
    """A tableau row summed as a loop over its tuple: the compiled rows' reference."""
    def row_sum(K):
        acc = 0.0
        for j, a in row:
            acc += a * K[j]
        return acc
    return row_sum


def _rows_and_sums():
    """Every tableau row of profile_ode beside the function compiled from it."""
    po = profile_ode
    assert [c for c, _ in po._STAGE_SUMS] == [c for c, _ in po._STAGES]
    assert [c for c, _ in po._EXTRA_STAGE_SUMS] == [c for c, _ in po._EXTRA_STAGES]
    rows = [row for _, row in po._STAGES + po._EXTRA_STAGES] + [po._B, po._E5, po._E3, *po._D]
    sums = ([row_sum for _, row_sum in po._STAGE_SUMS + po._EXTRA_STAGE_SUMS]
            + [po._B_SUM, po._E5_SUM, po._E3_SUM, *po._D_SUMS])
    assert len(rows) == len(sums) == 21
    return list(zip(rows, sums))


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
    for row, row_sum in _rows_and_sums():
        loop = _loop_sum(row)
        for K in Ks:
            got = row_sum(K)
            assert type(got) is float
            assert _bits(got) == _bits(loop(K)), (row, K)
        got = row_sum(arrays)
        assert got.dtype == np.float64 and got.shape == (len(Ks),)
        assert _bits(got) == _bits(loop(arrays))
        # the vector sum equals the scalar sums, case by case
        assert _bits(got) == _bits([row_sum(K) for K in Ks])


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
    # every integration the solve made, rerun with loop closures over the
    # tableau tuples in place of the compiled rows, gives the same bits
    solve()
    compiled = [_outcome(*call) for call in solves]
    po = profile_ode
    monkeypatch.setattr(po, "_STAGE_SUMS", tuple((c, _loop_sum(row)) for c, row in po._STAGES))
    monkeypatch.setattr(po, "_EXTRA_STAGE_SUMS",
                        tuple((c, _loop_sum(row)) for c, row in po._EXTRA_STAGES))
    for name, row in ("_B_SUM", po._B), ("_E5_SUM", po._E5), ("_E3_SUM", po._E3):
        monkeypatch.setattr(po, name, _loop_sum(row))
    monkeypatch.setattr(po, "_D_SUMS", tuple(map(_loop_sum, po._D)))
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
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_derivative_raises_step_underflow(solve):
    with pytest.raises(StepUnderflow):
        solve()
