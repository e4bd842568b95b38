"""Characteristic-profile ODE machinery.

Along an outgoing ray r = t + sigma the wave amplitude V obeys

    dV/dt = -P(omega)/(2 t) V^3 + G(t),

and Phi = P V^2 then satisfies a scalar differential inequality whose
decay is controlled by an explicit logarithmic bound (Matsumura-type
lemma).  This module integrates both ODEs on the log-time axis with its
own scalar DOP853 loop (rtol 1e-10, atol 1e-12; Hairer's DOP853 tableau,
embedded here and pinned bitwise to scipy's by a test, and scipy's step
control), evaluates the explicit bound constant, fits the
1/sqrt(P log t) decay of V, and fits an envelope to the residual forcing
of a sampled V (residual_forcing).  It needs numpy only.  An integration
ends in one of two failures: ProfileBlowUp where |V| crosses
BLOWUP_GUARD, or StepUnderflow on a NaN derivative, a step below 10 ulp
of log t, or STEP_BUDGET steps spent.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .structure import WrongRegime
from .trig import Direction

LOG2 = math.log(2.0)
OUTPUT_POINTS_PER_DECADE = 64
BLOWUP_GUARD = 1e6
# Attempted DOP853 steps per integration; an envelope of amplitude 1e6 takes 12k-16k.
STEP_BUDGET = 100_000
ROOT_ITERS = 60         # bisection steps of _refine_root


class ProfileBlowUp(RuntimeError):
    """|V| exceeded the blow-up guard (negative P misuse or huge forcing)."""

    def __init__(self, t: float, v: float):
        super().__init__(f"|V({t})| = {abs(v)} exceeded the blow-up guard")
        self.t = t
        self.v = v


class StepUnderflow(RuntimeError):
    """The ODE solve failed: a NaN derivative, a step below 10 ulp, or STEP_BUDGET spent."""


@dataclass(frozen=True)
class MatsumuraParams:
    """Data of the logarithmic decay lemma for dPhi/dt <= -C0 |Phi|^p / t + C1 / t^q."""

    c0: float
    c1: float
    p: float
    q: float
    t0: float
    phi0: float

    def __post_init__(self):
        for name in ("c0", "c1", "p", "q", "t0", "phi0"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.c0 <= 0:
            raise ValueError("c0 must be positive")
        if self.c1 < 0:
            raise ValueError("c1 must be nonnegative")
        if self.p <= 1:
            raise ValueError("p must exceed 1")
        if self.q <= 1:
            raise ValueError("q must exceed 1 (tail integral diverges otherwise)")
        if self.t0 < 2:
            raise ValueError("t0 must be at least 2")

    @property
    def p_star(self) -> float:
        return self.p / (self.p - 1.0)


def log_weight_integral(p_star: float, q: float) -> float:
    """Integral of (log tau)^p* / tau^q over [2, infinity), q > 1.

    With s = log tau and a = q - 1 it is the upper incomplete gamma function
    Gamma(p* + 1, a log 2) / a^(p* + 1), with Gamma(p* + 1) / a^(p* + 1)
    taken in log space.
    """
    if q <= 1:
        raise ValueError("q must exceed 1")
    a, k = q - 1.0, p_star + 1.0
    return _gammaincc(k, a * LOG2) * math.exp(math.lgamma(k) - k * math.log(a))


def _gammaincc(k: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(k, x) = Gamma(k, x) / Gamma(k), k, x > 0.

    1 - P from P's power series below x = k + 1, else the continued fraction
    (modified Lentz).  Both scale x^k e^-x / Gamma(k), formed directly where
    it is representable (~2e-15 relative for k <= 60), else through lgamma.
    """
    if x == math.inf:
        return 0.0
    try:
        front = x ** k / math.gamma(k) * math.exp(-x)
    except OverflowError:
        front = 0.0
    if front < 1e-290:
        front = math.exp(k * math.log(x) - x - math.lgamma(k))
    if x < k + 1.0:
        term = total = 1.0 / k
        n = k
        while term > total * 1e-17:
            n += 1.0
            term *= x / n
            total += term
        return 1.0 - front * total
    tiny = 1e-300       # stands in for a vanishing denominator
    b = x + 1.0 - k
    c, d = 1.0 / tiny, 1.0 / b
    h = d
    for i in range(1, 1000):
        a = i * (k - i)
        b += 2.0
        d = 1.0 / (a * d + b or tiny)
        c = b + a / c or tiny
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            break
    return front * h


def matsumura_constant(params: MatsumuraParams) -> float:
    """Explicit constant C2 of the logarithmic decay bound."""
    ps = params.p_star
    tail = 0.0
    if params.c1 > 0:
        tail = params.c1 * log_weight_integral(ps, params.q)
    return (
        (math.log(params.t0) ** ps * params.phi0 + tail) / LOG2
        + (ps / (params.c0 * params.p)) ** (ps - 1.0)
    )


# The DOP853 method of Hairer, Norsett and Wanner (Solving ODEs I, II.4-II.6)
# with scipy's step control, run on one Python-float component.  The tableau
# is Hairer's DOP853, written out as the (index, coefficient) nonzeros of each
# row; tests/test_profile_ode.py pins it bitwise to scipy.integrate.DOP853.
# These tuples are the one source of the tableau: the loop sums each row with
# a function compiled from its tuple at import (_compile_rows).
_RTOL, _ATOL = 1e-10, 1e-12
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERROR_EXPONENT = -1 / 8        # -1 / (error estimator order 7 + 1)

# (c, row of A) of stages 1-11; stage 0 is the derivative at the step's start
# and stage 12 the derivative at its end
_STAGES = (
    (0.05260015195876773, ((0, 0.05260015195876773),)),
    (0.0789002279381516, ((0, 0.0197250569845379), (1, 0.0591751709536137))),
    (0.1183503419072274, ((0, 0.02958758547680685), (2, 0.08876275643042054))),
    (0.2816496580927726, ((0, 0.2413651341592667), (2, -0.8845494793282861),
                          (3, 0.924834003261792))),
    (0.3333333333333333, ((0, 0.037037037037037035), (3, 0.17082860872947386),
                          (4, 0.12546768756682242))),
    (0.25, ((0, 0.037109375), (3, 0.17025221101954405), (4, 0.06021653898045596),
            (5, -0.017578125))),
    (0.3076923076923077, ((0, 0.03709200011850479), (3, 0.17038392571223998),
                          (4, 0.10726203044637328), (5, -0.015319437748624402),
                          (6, 0.008273789163814023))),
    (0.6512820512820513, ((0, 0.6241109587160757), (3, -3.3608926294469414),
                          (4, -0.868219346841726), (5, 27.59209969944671),
                          (6, 20.154067550477894), (7, -43.48988418106996))),
    (0.6, ((0, 0.47766253643826434), (3, -2.4881146199716677), (4, -0.590290826836843),
           (5, 21.230051448181193), (6, 15.279233632882423), (7, -33.28821096898486),
           (8, -0.020331201708508627))),
    (0.8571428571428571, ((0, -0.9371424300859873), (3, 5.186372428844064),
                          (4, 1.0914373489967295), (5, -8.149787010746927),
                          (6, -18.52006565999696), (7, 22.739487099350505),
                          (8, 2.4936055526796523), (9, -3.0467644718982196))),
    (1.0, ((0, 2.273310147516538), (3, -10.53449546673725), (4, -2.0008720582248625),
           (5, -17.9589318631188), (6, 27.94888452941996), (7, -2.8589982771350235),
           (8, -8.87285693353063), (9, 12.360567175794303), (10, 0.6433927460157636))),
)
# (c, row of A) of the three dense-output stages 13-15
_EXTRA_STAGES = (
    (0.1, ((0, 0.056167502283047954), (6, 0.25350021021662483), (7, -0.2462390374708025),
           (8, -0.12419142326381637), (9, 0.15329179827876568), (10, 0.00820105229563469),
           (11, 0.007567897660545699), (12, -0.008298))),
    (0.2, ((0, 0.03183464816350214), (5, 0.028300909672366776), (6, 0.053541988307438566),
           (7, -0.05492374857139099), (10, -0.00010834732869724932),
           (11, 0.0003825710908356584), (12, -0.00034046500868740456),
           (13, 0.1413124436746325))),
    (0.7777777777777778, ((0, -0.42889630158379194), (5, -4.697621415361164),
                          (6, 7.683421196062599), (7, 4.06898981839711),
                          (8, 0.3567271874552811), (12, -0.0013990241651590145),
                          (13, 2.9475147891527724), (14, -9.15095847217987))),
)
_B = ((0, 0.054293734116568765), (5, 4.450312892752409), (6, 1.8915178993145003),
      (7, -5.801203960010585), (8, 0.3111643669578199), (9, -0.1521609496625161),
      (10, 0.20136540080403034), (11, 0.04471061572777259))
_E3 = ((0, -0.18980075407240762), (5, 4.450312892752409), (6, 1.8915178993145003),
       (7, -5.801203960010585), (8, -0.4226823213237919), (9, -0.1521609496625161),
       (10, 0.20136540080403034), (11, 0.02265179219836082))
_E5 = ((0, 0.01312004499419488), (5, -1.2251564463762044), (6, -0.4957589496572502),
       (7, 1.6643771824549864), (8, -0.35032884874997366), (9, 0.3341791187130175),
       (10, 0.08192320648511571), (11, -0.022355307863886294))
# the dense-output polynomial's coefficients 3-6
_D = (
    ((0, -8.428938276109013), (5, 0.5667149535193777), (6, -3.0689499459498917),
     (7, 2.38466765651207), (8, 2.117034582445028), (9, -0.871391583777973),
     (10, 2.2404374302607883), (11, 0.6315787787694688), (12, -0.08899033645133331),
     (13, 18.148505520854727), (14, -9.194632392478356), (15, -4.436036387594894)),
    ((0, 10.427508642579134), (5, 242.28349177525817), (6, 165.20045171727028),
     (7, -374.5467547226902), (8, -22.113666853125306), (9, 7.733432668472264),
     (10, -30.674084731089398), (11, -9.332130526430229), (12, 15.697238121770845),
     (13, -31.139403219565178), (14, -9.35292435884448), (15, 35.81684148639408)),
    ((0, 19.985053242002433), (5, -387.0373087493518), (6, -189.17813819516758),
     (7, 527.8081592054236), (8, -11.57390253995963), (9, 6.8812326946963),
     (10, -1.0006050966910838), (11, 0.7777137798053443), (12, -2.778205752353508),
     (13, -60.19669523126412), (14, 84.32040550667716), (15, 11.99229113618279)),
    ((0, -25.69393346270375), (5, -154.18974869023643), (6, -231.5293791760455),
     (7, 357.6391179106141), (8, 93.40532418362432), (9, -37.45832313645163),
     (10, 104.0996495089623), (11, 29.8402934266605), (12, -43.53345659001114),
     (13, 96.32455395918828), (14, -39.17726167561544), (15, -149.72683625798564)),
)


def _compile_rows(*groups):
    """Each group of (index, coefficient) rows as a tuple of functions, all
    compiled by one eval: a row becomes K -> 0.0 + a0 * K[j0] + a1 * K[j1] + ...,
    summed left to right in the row's order, so it rounds exactly as
    `acc = 0.0; acc += a * K[j]` over the row.  The source holds only the
    rows' indices and the reprs of their floats, which round-trip exactly.
    Each row is one line of "<DOP853 rows>", so a profile tells them apart."""
    def row_sum(row):
        return "lambda K: 0.0" + "".join(f" + {a!r} * K[{j}]" for j, a in row) + ",\n"
    source = "".join("(\n" + "".join(map(row_sum, group)) + "),\n" for group in groups)
    return eval(compile(f"(\n{source})", "<DOP853 rows>", "eval"), {"__builtins__": {}})


_A_SUMS, _A_EXTRA_SUMS, (_B_SUM, _E5_SUM, _E3_SUM), _D_SUMS = _compile_rows(
    [row for _, row in _STAGES], [row for _, row in _EXTRA_STAGES], (_B, _E5, _E3), _D)
# (c, compiled row of A) of stages 1-11 and of the dense-output stages 13-15
_STAGE_SUMS = tuple(zip([c for c, _ in _STAGES], _A_SUMS))
_EXTRA_STAGE_SUMS = tuple(zip([c for c, _ in _EXTRA_STAGES], _A_EXTRA_SUMS))


def _dense(x, F, y_old):
    """The step's interpolant at the step fraction x (a float or an array)."""
    y = 0.0
    for i, coef in enumerate(reversed(F)):
        y = (y + coef) * (x if i % 2 == 0 else 1.0 - x)
    return y + y_old


def _initial_step(f, s: float, y: float, dy: float, interval: float) -> float:
    """Hairer-Wanner's starting step for the error estimator's order."""
    scale = _ATOL + abs(y) * _RTOL
    d0, d1 = abs(y) / scale, abs(dy) / scale
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    if h0 == 0.0:       # d1 overflowed: the step starts at the 10-ulp floor
        return 0.0
    d2 = abs(f(s + h0, y + h0 * dy) - dy) / scale / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** -_ERROR_EXPONENT
    return min(100 * h0, h1, interval)


def _refine_root(f, lo, hi):
    """Find a root of f in [lo, hi] by bisection to machine-level width;
    None if f does not change sign there.  _integrate_adaptive uses it to
    place the crossing of the blow-up guard within a step."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        return None
    a, b, fa = lo, hi, flo
    for _ in range(ROOT_ITERS):
        m = 0.5 * (a + b)
        if m == a or m == b:    # adjacent floats: the bracket cannot shrink further
            break
        fm = f(m)
        if fm == 0.0:
            return m
        if fa * fm < 0.0:
            b = m
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


def _integrate_adaptive(
    rhs: Callable[[float, float], float],
    y0: float,
    out_s: np.ndarray,
    guard: Optional[Callable[[float, float], float]] = None,
) -> np.ndarray:
    """DOP853 (rtol 1e-10, atol 1e-12) from out_s[0], where y = y0, to out_s[-1].

    The in-package scalar DOP853 loop: Hairer's DOP853 tableau, embedded
    in this module and pinned bitwise to scipy's by a test, and scipy's
    initial step, 5th/3rd-order error norm and step control, with a floor
    of 10 ulp of s on the step.  Each row of the tableau is summed by a
    function compiled once, at import, from the row's tuple, adding its
    terms in the tuple's order (_compile_rows); the functions take floats
    or arrays alike.  Returns y at the increasing points out_s, read from the
    dense output of the step that holds each point.  guard(s, y), if given,
    is a terminal event, checked at the start and after each accepted step:
    where it changes sign the root is located on that step's interpolant
    and ProfileBlowUp is raised there.  A NaN derivative, a step below
    the floor, or more than STEP_BUDGET attempted steps raises StepUnderflow.
    """

    def f(s, y):
        try:
            dy = rhs(s, y)
        except OverflowError:
            # a float power overflowed; numpy gives the signed inf, and the
            # error control then rejects the step
            dy = float(rhs(s, np.float64(y)))
        if math.isnan(dy):
            raise StepUnderflow(f"NaN derivative at s={s}")
        return dy

    out = out_s.tolist()
    s, y, s_end = out[0], float(y0), out[-1]
    if not s_end > s:
        raise ValueError("out_s must increase")
    dy = f(s, y)
    h_abs = _initial_step(f, s, y, dy, s_end - s)
    g = guard(s, y) if guard is not None else None
    steps = []       # (s, s_new, h, y, F[0..6]) of the steps holding output
    j = 0            # the first output point not yet covered by a step
    attempts = 0
    while s < s_end:
        min_step = 10.0 * (math.nextafter(s, math.inf) - s)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise StepUnderflow(f"step size fell below 10 ulp at s={s}")
            if attempts == STEP_BUDGET:
                raise StepUnderflow(f"{STEP_BUDGET} steps did not reach s={s_end} (at s={s})")
            attempts += 1
            s_new = min(s + h_abs, s_end)
            h_abs = h = s_new - s
            K = [dy]
            for c, row_sum in _STAGE_SUMS:
                K.append(f(s + c * h, y + row_sum(K) * h))
            y_new = y + h * _B_SUM(K)
            dy_new = f(s_new, y_new)
            K.append(dy_new)
            scale = _ATOL + max(abs(y), abs(y_new)) * _RTOL
            e5, e3 = _E5_SUM(K) / scale, _E3_SUM(K) / scale
            e5, e3 = e5 * e5, e3 * e3
            err = h * e5 / math.sqrt(e5 + 0.01 * e3) if e5 or e3 else 0.0
            if err < 1.0:
                factor = _MAX_FACTOR if err == 0.0 else min(
                    _MAX_FACTOR, _SAFETY * err ** _ERROR_EXPONENT)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * err ** _ERROR_EXPONENT)
            rejected = True

        crossed = False
        if guard is not None:
            g_new = guard(s_new, y_new)
            crossed = (g <= 0 and g_new >= 0) or (g >= 0 and g_new <= 0)
            g = g_new
        if crossed or s_new >= out[j]:
            for c, row_sum in _EXTRA_STAGE_SUMS:
                K.append(f(s + c * h, y + row_sum(K) * h))
            delta = y_new - y
            F = (delta, h * dy - delta, 2 * delta - h * (dy_new + dy),
                 *(h * row_sum(K) for row_sum in _D_SUMS))
            if crossed:
                root = _refine_root(lambda r: guard(r, _dense((r - s) / h, F, y)), s, s_new)
                raise ProfileBlowUp(math.exp(root), _dense((root - s) / h, F, y))
            steps.append((s, s_new, h, y, *F))
            j = bisect.bisect_right(out, s_new, j)
        s, y, dy = s_new, y_new, dy_new

    s_old, ends, hs, y_old, *F = np.array(steps).T
    i = np.searchsorted(ends, out_s)
    return _dense((out_s - s_old[i]) / hs[i], [c[i] for c in F], y_old[i])


def sigma_weight(sigma: float) -> float:
    """Japanese bracket <sigma> = sqrt(1 + sigma^2)."""
    return math.hypot(1.0, sigma)


def ray_start(sigma: float) -> float:
    """Start time max(2, -2 sigma) of the ray r = t + sigma.

    Lies in [<sigma>/c0, c0 <sigma>], c0 = max(2, 2(1 + R)), for support radius R >= sigma.
    """
    return max(2.0, -2.0 * sigma)


@dataclass(frozen=True)
class RayConfig:
    """One outgoing characteristic ray r = t + sigma in direction omega."""

    sigma: float
    omega: Direction
    eps: float = 0.1
    mu: float = 0.05
    t_end: float = 1e6
    support_radius: float = 1.0
    t_start: float = field(init=False)

    def __post_init__(self):
        if not all(map(math.isfinite, (self.sigma, self.eps, self.mu, self.t_end,
                                       self.support_radius))):
            raise ValueError("sigma, eps, mu, t_end and support_radius must be finite")
        if self.support_radius <= 0:
            raise ValueError("support_radius must be positive")
        if self.sigma > self.support_radius:
            raise ValueError("sigma must not exceed the data support radius")
        if not 0.0 < self.mu < 0.1:
            raise ValueError("mu must lie in (0, 1/10)")
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        t_start = ray_start(self.sigma)
        object.__setattr__(self, "t_start", t_start)
        if self.t_end <= t_start:
            raise ValueError("t_end must exceed t_start")


class ZeroForcing:
    """G identically zero."""

    def __call__(self, t: float, v: float) -> float:
        return 0.0


@dataclass(frozen=True)
class EnvelopeForcing:
    """|G(t)| = amplitude * <sigma>^(-mu-1/2) * t^(2 mu - 3/2).

    sign_mode "adversarial" pushes V away from zero (worst case for the
    decay bound); "fixed" keeps the sign positive.
    """

    amplitude: float
    mu: float
    sigma: float = 0.0
    sign_mode: str = "adversarial"
    prefactor: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not all(map(math.isfinite, (self.amplitude, self.mu, self.sigma))):
            raise ValueError("amplitude, mu and sigma must be finite")
        if self.sign_mode not in ("adversarial", "fixed"):
            raise ValueError("sign_mode must be 'adversarial' or 'fixed'")
        prefactor = self.amplitude * sigma_weight(self.sigma) ** (-self.mu - 0.5)
        object.__setattr__(self, "prefactor", prefactor)

    def envelope(self, t: float) -> float:
        return self.prefactor * t ** (2.0 * self.mu - 1.5)

    def __call__(self, t: float, v: float) -> float:
        env = self.envelope(t)
        if self.sign_mode == "adversarial":
            return env * (1.0 if v >= 0 else -1.0)
        return env


@dataclass(frozen=True)
class TabulatedForcing:
    """G interpolated from samples, linear in log t, zero outside the table."""

    times: np.ndarray
    values: np.ndarray
    log_times: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.ndim != 1 or t.shape != v.shape:
            raise ValueError("times and values must be equal-length 1D arrays")
        if not np.all(np.diff(t) > 0):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "log_times", np.log(t))

    def __call__(self, t: float, v: float) -> float:
        ts = self.times
        if t < ts[0] - 1e-9 or t > ts[-1] + 1e-9:
            return 0.0
        return float(np.interp(math.log(t), self.log_times, self.values))


@dataclass
class ProfileSeries:
    """Sampled ray profile: V(t), forcing samples and Phi = P V^2."""

    times: np.ndarray
    V: np.ndarray
    G: np.ndarray
    Phi: np.ndarray
    sigma: float = 0.0
    P_val: Optional[float] = None

    def __post_init__(self):
        n = len(self.times)
        if not (len(self.V) == len(self.G) == len(self.Phi) == n):
            raise ValueError("series columns must have equal length")
        if n > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")


def _log_grid(t_start: float, t_end: float) -> np.ndarray:
    decades = math.log10(t_end / t_start)
    n = max(2, int(math.ceil(decades * OUTPUT_POINTS_PER_DECADE)) + 1)
    return np.exp(np.linspace(math.log(t_start), math.log(t_end), n))


def integrate_profile(
    P_val: float,
    ray: RayConfig,
    forcing: Callable[[float, float], float] = ZeroForcing(),
    v0: Optional[float] = None,
) -> ProfileSeries:
    """Integrate dV/dt = -P/(2t) V^3 + G from the ray start time.

    The scalar DOP853 loop of _integrate_adaptive in log t, rtol 1e-10
    and atol 1e-12; output on a logarithmically spaced grid.  The initial
    amplitude defaults to eps * <sigma>^(mu - 1), the a priori size of
    the profile.  Raises ValueError on a non-finite v0, ProfileBlowUp
    where |V| crosses BLOWUP_GUARD (a terminal event) and StepUnderflow
    on a NaN derivative, a step below 10 ulp of log t, or a ray too stiff
    for STEP_BUDGET steps.
    """
    if not 0 <= P_val < math.inf:
        raise ValueError("P_val must be nonnegative and finite")
    if v0 is None:
        v0 = ray.eps * sigma_weight(ray.sigma) ** (ray.mu - 1.0)
    if not math.isfinite(v0):
        raise ValueError("v0 must be finite")
    if abs(v0) > BLOWUP_GUARD:
        raise ProfileBlowUp(ray.t_start, v0)

    out_t = _log_grid(ray.t_start, ray.t_end)
    out_s = np.log(out_t)

    def rhs(s, v):
        t = math.exp(s)
        return -0.5 * P_val * v ** 3 + t * forcing(t, v)

    def guard(s, v):
        return BLOWUP_GUARD - abs(v)

    vs = _integrate_adaptive(rhs, v0, out_s, guard=guard)
    gs = np.array(list(map(forcing, out_t.tolist(), vs.tolist())))
    return ProfileSeries(
        times=out_t, V=vs, G=gs, Phi=P_val * vs ** 2,
        sigma=ray.sigma, P_val=P_val,
    )


def check_sqrtlog_decay(series: ProfileSeries, P_val: float) -> float:
    """sup over the series of |V(t)| sqrt(P log t)."""
    if P_val <= 0:
        raise WrongRegime("sqrt-log decay fit requires P > 0")
    mask = series.times > 1.0
    return float(
        np.max(np.abs(series.V[mask]) * np.sqrt(P_val * np.log(series.times[mask])))
    )


@dataclass(frozen=True)
class ResidualReport:
    times: np.ndarray
    H: np.ndarray
    envelope_constant: float    # smallest C with |H| <= C eps t^(2mu-3/2) <sigma>^(-mu-1/2)


def residual_forcing(
    series: ProfileSeries, P_val: float, eps: float, mu: float
) -> ResidualReport:
    """Residual H(t) = dV/dt + P V^3 / (2t) and its envelope fit."""
    t = series.times
    v = series.V
    dv = np.gradient(v, t)
    H = dv + 0.5 * P_val * v ** 3 / t
    # interior points only: np.gradient is one-sided at the ends
    tt, HH = t[1:-1], H[1:-1]
    env = EnvelopeForcing(amplitude=eps, mu=mu, sigma=series.sigma).envelope(tt)
    c = float(np.max(np.abs(HH) / env))
    return ResidualReport(times=tt, H=HH, envelope_constant=c)


@dataclass(frozen=True)
class MatsumuraCheck:
    holds: bool
    max_ratio: float
    c2: float
    times: np.ndarray
    phi: np.ndarray
    bound: np.ndarray       # C2 / (log max(t, 2))^(p* - 1) at each time


def _matsumura_check(params, times, phi, slack, rel=0.0) -> MatsumuraCheck:
    """The lemma's bound at `times`; it holds if phi <= bound (1 + rel) + slack."""
    c2 = matsumura_constant(params)
    decay = np.log(np.maximum(times, 2.0)) ** (params.p_star - 1.0)
    bound = c2 / decay
    return MatsumuraCheck(holds=bool(np.all(phi <= bound * (1.0 + rel) + slack)),
                          max_ratio=float((phi * decay / c2).max()), c2=c2,
                          times=times, phi=phi, bound=bound)


def check_matsumura_bound(
    params: MatsumuraParams,
    t_end: float = 1e6,
    slack: float = 1e-7,
) -> MatsumuraCheck:
    """Integrate the ODE saturating the lemma hypothesis and test the bound.

    dPhi/dt = -(C0/t)|Phi|^p + C1/t^q; the lemma's claim is
    Phi(t) <= C2 / (log t)^(p*-1) for all t >= t0.
    """
    if t_end <= params.t0:
        raise ValueError("t_end must exceed t0")
    c0, c1, p, q = params.c0, params.c1, params.p, params.q
    out_t = _log_grid(params.t0, t_end)
    out_s = np.log(out_t)

    def rhs(s, phi):
        t = math.exp(s)
        return -c0 * abs(phi) ** p + c1 * t ** (1.0 - q)

    phis = _integrate_adaptive(rhs, params.phi0, out_s)
    return _matsumura_check(params, out_t, phis, slack)


def check_profile_bound(series: ProfileSeries, ray: RayConfig) -> tuple:
    """(MatsumuraParams, MatsumuraCheck) for Phi = P V^2 of a profile on `ray`.

    Phi obeys dPhi/dt = -Phi^2/t + 2 P V G, so c0 = 1, p = 2 and
    q = 3/2 - 2 mu; c1 is the smallest constant with |2 P V G| <= c1 t^-q
    on the samples.  The bound holds if Phi <= bound (1 + 1e-9) + 1e-12.
    """
    q = 1.5 - 2.0 * ray.mu
    forcing_term = np.abs(2.0 * series.P_val * series.V * series.G)
    params = MatsumuraParams(
        c0=1.0, c1=float(np.max(forcing_term * series.times ** q)), p=2.0, q=q,
        t0=ray.t_start, phi0=float(series.Phi[0]),
    )
    return params, _matsumura_check(params, series.times, series.Phi, 1e-12, rel=1e-9)
