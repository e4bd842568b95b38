"""Unit tests for zero classification, sign condition, and quadrature."""

import math

import mpmath as mp
import numpy as np
import pytest
import scipy.special as sp

from planted import cancelling_polynomial, planted_factor, planted_polynomial
from wavedecay.trig import NonlinearityCoefficients, TrigPolynomial, cubic_to_trig_poly
from wavedecay.structure import (
    NEGATIVITY_TOL,
    ROUNDING_FLOOR,
    AgemiStatus,
    NegativityDetected,
    WrongRegime,
    ZeroCase,
    analyze,
    check_quadratic_null,
    classify,
    predict_decay,
    verify_integrability,
)

TWO_PI = 2.0 * math.pi


def _cos2():
    return TrigPolynomial(((2, 0, 1.0),))


def _one_minus_sin_cubed():
    one = TrigPolynomial.constant(1.0)
    s = TrigPolynomial(((0, 1, 1.0),))
    return (one - s) * (one - s) * (one - s)


def _cos2_times_one_minus_sin():
    one = TrigPolynomial.constant(1.0)
    s = TrigPolynomial(((0, 1, 1.0),))
    return _cos2() * (one - s)


# ---------------------------------------------------------------------------
# trichotomy


def test_identically_zero():
    cl = classify(TrigPolynomial())
    assert cl.case is ZeroCase.IDENTICALLY_ZERO
    # cos^2 + sin^2 - 1 cancels only semantically (Fourier side)
    p = TrigPolynomial(((2, 0, 1.0), (0, 2, 1.0), (0, 0, -1.0)))
    assert classify(p).case is ZeroCase.IDENTICALLY_ZERO


def test_strictly_positive_reports_minimum():
    p = TrigPolynomial(((2, 0, 1.0), (0, 0, 0.5)))  # cos^2 + 1/2
    cl = classify(p)
    assert cl.case is ZeroCase.STRICTLY_POSITIVE
    assert cl.min_value == pytest.approx(0.5, rel=1e-9)


def test_negativity_detected_with_witness():
    p = TrigPolynomial(((0, 1, 1.0),))  # sin(theta), negative on (pi, 2 pi)
    with pytest.raises(NegativityDetected):
        classify(p)


def test_every_sign_condition_witness_is_negative():
    # the witness may be any point where Psi is negative beyond tolerance;
    # pin that, not which of several near-equal minima it is
    rng = np.random.default_rng(20240817)
    tensors = [rng.normal(size=(3, 3, 3)) for _ in range(300)]
    for eps in (1e-9, 1e-6, 1e-3):      # cos^2 - eps: negative only near pi/2, 3 pi/2
        C = np.zeros((3, 3, 3))
        C[1, 1, 0], C[0, 0, 0] = -1.0, eps
        tensors.append(C)
    failing = 0
    for C in tensors:
        coeffs = NonlinearityCoefficients(C=C)
        res = analyze(coeffs).agemi
        if res.status is not AgemiStatus.FAILS:
            continue
        failing += 1
        psi = cubic_to_trig_poly(coeffs)
        assert psi(res.witness) < -NEGATIVITY_TOL * max(1.0, psi.scale)
    assert failing > 100


def test_double_zeros_of_squared_cosine():
    cl = classify(_cos2())
    assert cl.case is ZeroCase.FINITE_ZEROS
    zeros = sorted(cl.zeros, key=lambda z: z.theta)
    assert len(zeros) == 2
    assert abs(zeros[0].theta - math.pi / 2) < 1e-9
    assert abs(zeros[1].theta - 3 * math.pi / 2) < 1e-9
    assert [z.order for z in zeros] == [2, 2]
    for z in zeros:
        assert z.leading == pytest.approx(1.0, rel=1e-9)
    assert cl.nu == 1


def test_mixed_orders():
    cl = classify(_cos2_times_one_minus_sin())
    zeros = sorted(cl.zeros, key=lambda z: z.theta)
    assert [(z.order,) for z in zeros] == [(4,), (2,)]
    assert abs(zeros[0].theta - math.pi / 2) < 1e-9
    assert abs(zeros[1].theta - 3 * math.pi / 2) < 1e-9
    assert zeros[0].leading == pytest.approx(0.5, rel=1e-9)
    assert zeros[1].leading == pytest.approx(2.0, rel=1e-9)
    assert cl.nu == 2


def test_order_six_zero():
    cl = classify(_one_minus_sin_cubed())
    assert len(cl.zeros) == 1
    z = cl.zeros[0]
    assert abs(z.theta - math.pi / 2) < 1e-9
    assert z.order == 6
    assert z.leading == pytest.approx(0.125, rel=1e-9)
    assert cl.nu == 3


def test_planted_zeros_recovered():
    # the second batch is acceptance criterion 2's
    for seed, count in ((2024, 40), (20240817, 200)):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            poly, expected = planted_polynomial(rng)
            cl = classify(poly)
            assert cl.case is ZeroCase.FINITE_ZEROS
            got = sorted(cl.zeros, key=lambda z: z.theta)
            exp = sorted(expected)
            assert len(got) == len(exp)
            for z, (theta, order, lead) in zip(got, exp):
                assert abs(z.theta - theta) < 1e-10
                assert z.order == order          # exact, never odd
                assert z.order % 2 == 0
                assert z.leading == pytest.approx(lead, rel=1e-9)


def test_classify_builds_each_derivative_once(monkeypatch):
    # zeros of orders 8, 8 and 2 read Psi^(7), Psi^(8) and Psi', Psi'':
    # Psi' .. Psi^(8) are eight derivatives, however many zeros share them
    poly = TrigPolynomial.constant(2.0)
    for theta0, power in ((0.5, 4), (2.5, 4), (4.5, 1)):
        for _ in range(power):
            poly = poly * planted_factor(theta0)
    calls = []
    derivative = TrigPolynomial.derivative
    monkeypatch.setattr(TrigPolynomial, "derivative",
                        lambda self: calls.append(self) or derivative(self))
    cl = classify(poly)
    assert [z.order for z in cl.zeros] == [8, 8, 2]
    assert len(calls) <= 8


def test_scaling_invariance_of_classification():
    for scale in (1e-6, 1.0, 1e6):
        cl = classify(_cos2() * scale)
        assert cl.case is ZeroCase.FINITE_ZEROS
        assert sorted(z.order for z in cl.zeros) == [2, 2]
        for z in cl.zeros:
            assert z.leading == pytest.approx(scale, rel=1e-8)


@pytest.mark.parametrize("c", [1e-11, 1e-9, 0.3, 1.0, 1e3, 1e300])
def test_classification_at_symbol_scale(c):
    # every tolerance of classify scales with the symbol, so a tiny
    # c cos^2 still has its two order-2 zeros
    cl = classify(_cos2() * c)
    assert cl.case is ZeroCase.FINITE_ZEROS
    zeros = sorted(cl.zeros, key=lambda z: z.theta)
    assert [z.order for z in zeros] == [2, 2]
    assert abs(zeros[0].theta - math.pi / 2) < 1e-9
    assert abs(zeros[1].theta - 3 * math.pi / 2) < 1e-9
    for z in zeros:
        assert z.leading == pytest.approx(c, rel=1e-9)


def test_close_double_zeros_stay_apart():
    # Psi rises well above its rounding level between the two zeros
    for gap in (0.01, 0.05, 0.1, 0.3):
        cl = classify(planted_factor(1.0) * planted_factor(1.0 + gap) * 3.0)
        lead = 0.75 * (1.0 - math.cos(gap)) / 2.0
        assert [z.order for z in cl.zeros] == [2, 2], gap
        for z, theta in zip(cl.zeros, (1.0, 1.0 + gap)):
            assert abs(z.theta - theta) < 1e-7
            assert z.leading == pytest.approx(lead, rel=1e-6)


@pytest.mark.parametrize("ulps", range(1, 7))
def test_zero_at_theta_zero_reads_zero_not_two_pi(ulps):
    # (1 - cos theta)/2 with a sin term of a few ulp moves the zero a hair
    # below 0, which mod 2 pi is 2 pi - eps and would sort last
    ulp = 2.0 ** -53
    f = TrigPolynomial(((0, 0, 0.5 + 2 * ulp), (1, 0, -0.5 - ulp), (0, 1, ulps * ulp)))
    cl = classify(f * planted_factor(3.0))
    assert [z.order for z in cl.zeros] == [2, 2]
    assert cl.zeros[0].theta == 0.0
    assert cl.zeros[1].theta == pytest.approx(3.0, abs=1e-12)


def _circ_dist(a, b):
    return abs((a - b + math.pi) % TWO_PI - math.pi)


def test_cancelling_monomials():
    # 1e-3 cos^2 written as -1e6 + (1e6 + 1e-3) cos^2 + 1e6 sin^2
    C = np.zeros((3, 3, 3))
    C[0, 0, 0], C[1, 1, 0], C[2, 2, 0] = 1e6, -1e6 - 1e-3, -1e6
    cl = classify(cubic_to_trig_poly(NonlinearityCoefficients(C=C)))
    assert [z.order for z in cl.zeros] == [2, 2]
    for z, theta in zip(cl.zeros, (math.pi / 2, 3 * math.pi / 2)):
        assert abs(z.theta - theta) < 1e-12
        assert z.leading == pytest.approx(1e-3, rel=1e-6)


@pytest.mark.parametrize("K, least_right", [(0.0, 150), (1e3, 150), (1e6, 143)])
def test_cancellation_survey(K, least_right):
    # at K = 1e6 the floor is ~1e-8, so two order-4 zeros of amplitude 1e-4
    # may sit in one valley below it
    rng = np.random.default_rng(20240817)
    right = 0
    for _ in range(150):
        poly, expected = cancelling_polynomial(rng, K)
        cl = classify(poly)
        right += cl.case is ZeroCase.FINITE_ZEROS and len(cl.zeros) == len(expected) and all(
            z.order == order and _circ_dist(z.theta, theta) < 1e-3
            for z, (theta, order) in zip(cl.zeros, expected)
        )
    assert right >= least_right


def test_root_of_another_factor_at_a_zeros_angle():
    # 5 + 4 sin vanishes at z = -i/2 and -2i, both at the angle 3 pi/2 of a
    # double zero of cos^2; they are off the circle, so the order stays 2
    cl = classify(_cos2() * TrigPolynomial(((0, 0, 5.0), (0, 1, 4.0))))
    assert [(z.order, round(z.theta, 9), round(z.leading, 9)) for z in cl.zeros] == [
        (2, round(math.pi / 2, 9), 9.0), (2, round(3 * math.pi / 2, 9), 1.0)]


def test_positive_minimum_above_the_rounding_floor():
    cl = classify(_cos2() + TrigPolynomial.constant(1e-12))
    assert cl.case is ZeroCase.STRICTLY_POSITIVE
    assert cl.min_value == pytest.approx(1e-12, rel=1e-3)


def test_symbols_at_the_rounding_floor_classify_consistently():
    # a zero of order 2 to 8 lifted by about the floor, where rounding
    # decides between a zero and a positive minimum: either answer is
    # whole, with even orders, positive leading coefficients and a
    # positive minimum
    rng = np.random.default_rng(11)
    for _ in range(1500):
        base = factor = planted_factor(float(rng.uniform(0.0, TWO_PI)))
        for _ in range(int(rng.integers(0, 4))):
            base = base * factor
        floor = ROUNDING_FLOOR * max(base.scale, base.max_abs())
        lift = floor * 10.0 ** rng.uniform(-1.5, 1.5)
        cl = classify(base + TrigPolynomial.constant(lift))
        assert all(z.order % 2 == 0 and z.leading > 0.0 for z in cl.zeros)
        assert cl.zeros or cl.min_value > 0.0


def test_exact_double_zeros_with_a_bump_at_the_rounding_floor():
    # Psi rises only about the floor between two exact double zeros: one
    # order-4 zero or two order-2 ones, never a positive minimum
    rng = np.random.default_rng(13)
    for _ in range(300):
        theta, amp = float(rng.uniform(0.0, TWO_PI)), 10.0 ** rng.uniform(-3.0, 3.0)
        near = planted_factor(theta) * planted_factor(theta + 1e-3) * amp
        bump = ROUNDING_FLOOR * max(near.scale, near.max_abs())
        gap = 4.0 * (bump * 10.0 ** rng.uniform(-0.3, 0.3) / amp) ** 0.25
        cl = classify(planted_factor(theta) * planted_factor(theta + gap) * amp)
        assert sum(z.order for z in cl.zeros) == 4


@pytest.mark.parametrize("power", [1, 2, 3])
def test_negative_lobe_within_tolerance_keeps_its_order(power):
    # sin^(2 power)((theta - 1)/2) - 1e-12: two sign changes round a lobe
    # that the sign check lets through, and the zero keeps its order
    psi = TrigPolynomial.constant(1.0)
    for _ in range(power):
        psi = psi * planted_factor(1.0)
    cl = classify(psi - TrigPolynomial.constant(1e-12))
    assert [z.order for z in cl.zeros] == [2 * power]
    assert abs(cl.zeros[0].theta - 1.0) < 1e-3
    assert cl.zeros[0].leading == pytest.approx(4.0 ** -power, rel=1e-3)


# ---------------------------------------------------------------------------
# null and sign conditions


def test_quadratic_null_condition():
    assert check_quadratic_null(
        NonlinearityCoefficients(B=np.diag([1.0, -1.0, -1.0]))
    )
    assert not check_quadratic_null(
        NonlinearityCoefficients(B=np.diag([1.0, 0.0, 0.0]))
    )
    assert check_quadratic_null(NonlinearityCoefficients())


def test_cubic_null_identity():
    # u_t (u_t^2 - |grad u|^2) restricts to zero on the circle
    C = np.zeros((3, 3, 3))
    C[0, 0, 0] = 1.0
    C[0, 1, 1] = -1.0
    C[0, 2, 2] = -1.0
    report = analyze(NonlinearityCoefficients(C=C))
    assert report.cubic_null
    assert report.prediction is None


def test_agemi_statuses():
    C = np.zeros((3, 3, 3))
    C[0, 0, 0] = -1.0   # F = -(u_t)^3, symbol identically one
    res = analyze(NonlinearityCoefficients(C=C)).agemi
    assert res.status is AgemiStatus.HOLDS_STRICTLY
    assert res.min_value == pytest.approx(1.0, rel=1e-9)

    C = np.zeros((3, 3, 3))
    C[1, 1, 0] = -1.0   # symbol cos^2, zeros on the circle
    assert analyze(NonlinearityCoefficients(C=C)).agemi.status is AgemiStatus.HOLDS

    C = np.zeros((3, 3, 3))
    C[0, 0, 0] = 1.0    # F = +(u_t)^3, symbol identically -1
    res = analyze(NonlinearityCoefficients(C=C)).agemi
    assert res.status is AgemiStatus.FAILS
    assert res.witness is not None


# ---------------------------------------------------------------------------
# decay prediction


def test_decay_exponents():
    pred = predict_decay(classify(_cos2()), delta=0.01)
    assert pred.nu == 1
    assert pred.lam == pytest.approx(0.25 - 0.01)
    assert pred.gamma_max == pytest.approx(0.5)
    assert 0.0 < pred.mu < 0.1

    pred = predict_decay(classify(_cos2_times_one_minus_sin()), delta=0.01)
    assert pred.nu == 2
    assert pred.lam == pytest.approx(0.125 - 0.01)

    pred = predict_decay(classify(_one_minus_sin_cubed()), delta=0.01)
    assert pred.nu == 3
    assert pred.lam == pytest.approx(1.0 / 12.0 - 0.01)


def test_decay_prediction_rejects_other_regimes():
    with pytest.raises(WrongRegime):
        predict_decay(classify(TrigPolynomial.constant(1.0)))
    with pytest.raises(ValueError):
        predict_decay(classify(_cos2()), delta=0.5)


def test_report_serialization_digits():
    C = np.zeros((3, 3, 3))
    C[1, 1, 0] = -1.0
    d = analyze(NonlinearityCoefficients(C=C)).to_dict()
    assert d["quadratic_null"] is True
    assert d["cubic_null"] is False
    zeros = sorted(d["classification"]["zeros"], key=lambda z: z["theta"])
    assert zeros[0]["theta"] == pytest.approx(math.pi / 2, abs=1e-9)
    assert d["prediction"]["nu"] == 1
    assert d["prediction"]["lambda"] == pytest.approx(0.24)


# ---------------------------------------------------------------------------
# quadrature of 1 / Psi^gamma


def _exact_cos2_integral(gamma: float) -> float:
    # int_0^{2pi} |cos|^{-2 gamma} = 4 * (sqrt(pi)/2) G((a+1)/2) / G(a/2+1), a = -2 gamma
    a = -2.0 * gamma
    return 4.0 * (math.sqrt(math.pi) / 2.0) * sp.gamma((a + 1) / 2) / sp.gamma(a / 2 + 1)


def _exact_one_minus_sin_cubed_integral(gamma: float) -> float:
    # int (1 - sin)^{-3 gamma} = 2^{2-a} (sqrt(pi)/2) G((1-2a)/2) / G(1-a), a = 3 gamma
    a = 3.0 * gamma
    return (
        2.0 ** (2.0 - a)
        * (math.sqrt(math.pi) / 2.0)
        * sp.gamma((1.0 - 2.0 * a) / 2.0)
        / sp.gamma(1.0 - a)
    )


@pytest.mark.parametrize("gamma", [0.1, 0.3, 0.45])
def test_quadrature_matches_beta_oracle_below_critical(gamma):
    rep = verify_integrability(_cos2(), gamma)
    assert rep.finite
    assert rep.value == pytest.approx(_exact_cos2_integral(gamma), rel=1e-6)


@pytest.mark.parametrize("gamma", [0.05, 0.1, 0.15])
def test_quadrature_high_order_zero_matches_oracle(gamma):
    rep = verify_integrability(_one_minus_sin_cubed(), gamma)
    assert rep.finite
    assert rep.value == pytest.approx(
        _exact_one_minus_sin_cubed_integral(gamma), rel=1e-6
    )


@pytest.mark.parametrize("gamma", [0.55, 0.7])
def test_quadrature_divergence_above_critical(gamma):
    rep = verify_integrability(_cos2(), gamma)
    assert not rep.finite
    assert rep.value is None
    ests = rep.estimates
    assert all(b > 1.1 * a for a, b in zip(ests[:5], ests[1:6]))


def test_quadrature_boundary_exponent_divergent():
    # order-6 zero: critical exponent gamma = 1/6
    rep = verify_integrability(_one_minus_sin_cubed(), 1.0 / 6.0)
    assert not rep.finite


@pytest.mark.parametrize("theta0", [0.1, 1.0, 3.0, 5.5])
def test_quadrature_single_planted_double_zero(theta0):
    # int_0^{2pi} sin^{-2g}((theta - theta0)/2) = 2 sqrt(pi) G(1/2 - g) / G(1 - g);
    # at theta0 = 0.1 the wrap-around neighbour of the only zero lands one
    # ulp off its angle
    gamma = 0.3
    rep = verify_integrability(planted_factor(theta0), gamma)
    exact = 2.0 * math.sqrt(math.pi) * sp.gamma(0.5 - gamma) / sp.gamma(1.0 - gamma)
    assert rep.finite
    assert rep.value == pytest.approx(exact, rel=1e-6)


def test_quadrature_stabilizes_on_planted_two_and_three_zero_symbols():
    rng = np.random.default_rng(20240817)
    firsts = {}
    while len(firsts) < 2:
        poly, expected = planted_polynomial(rng)
        if len(expected) in (2, 3):
            firsts.setdefault(len(expected), (poly, expected))
    for poly, expected in firsts.values():
        nu = max(order for _, order, _ in expected) // 2
        rep = verify_integrability(poly, 0.9 / (2 * nu))
        assert rep.finite
        assert rep.value is not None


def _planted_amplitude(expected):
    """A of A * prod_i sin^(o_i)((theta - theta_i)/2), from the first leading coefficient."""
    theta0, order0, lead0 = expected[0]
    amp = lead0 * 4.0 ** (order0 // 2)
    for theta, order, _ in expected[1:]:
        amp /= ((1.0 - math.cos(theta0 - theta)) / 2.0) ** (order // 2)
    return amp


def _mp_planted_integral(expected, gamma):
    """mpmath circle integral of (A prod_i sin^(o_i)((theta - theta_i)/2))^-gamma.

    Each flank of zero j, out to the midpoint of the gap to its neighbour,
    is integrated in d = w^m with m = 1 / (1 - gamma o_j), which makes the
    integrand smooth at w = 0.  Zero j's own factor is sin(d/2), and zeros
    are indexed by position, so the wrapped neighbour is no new zero.
    """
    with mp.workdps(20):
        amp = mp.mpf(_planted_amplitude(expected))
        th = [mp.mpf(theta) for theta, _, _ in expected]
        orders = [order for _, order, _ in expected]
        half_gaps = [(b - a) / 2 for a, b in zip(th, th[1:] + [th[0] + 2 * mp.pi])]
        total = mp.mpf(0)
        for j, (tj, oj) in enumerate(zip(th, orders)):
            m = 1 / (1 - mp.mpf(gamma) * oj)
            for side, extent in ((-1, half_gaps[j - 1]), (1, half_gaps[j])):

                def f(w):
                    d = w ** m
                    psi = amp
                    for i, (ti, oi) in enumerate(zip(th, orders)):
                        psi *= mp.sin(d / 2 if i == j else (tj + side * d - ti) / 2) ** oi
                    return psi ** -gamma * m * w ** (m - 1)

                total += mp.quad(f, [0, extent ** (1 / m)])
        return float(total)


def test_quadrature_matches_mpmath_oracle_on_multi_zero_planted_symbols():
    rng = np.random.default_rng(20240817)
    picked = {2: [], 3: []}
    while len(picked[2]) < 2 or len(picked[3]) < 2:
        poly, expected = planted_polynomial(rng)
        if len(expected) > 1:
            picked[len(expected)].append((poly, expected))
    for poly, expected in picked[2][:2] + picked[3][:2]:
        gamma = 0.9 / max(order for _, order, _ in expected)   # 0.9 * gamma_max
        rep = verify_integrability(poly, gamma)
        assert rep.value == pytest.approx(_mp_planted_integral(expected, gamma), rel=1e-6)


def test_quadrature_matches_closed_form_on_single_zero_planted_symbols():
    # int A^-g sin^(-2 nu g)((theta - theta0)/2) = A^-g 2 sqrt(pi) G(1/2 - nu g) / G(1 - nu g)
    rng = np.random.default_rng(20240817)
    singles = [s for s in (planted_polynomial(rng) for _ in range(60)) if len(s[1]) == 1]
    assert len(singles) > 10
    for poly, expected in singles:
        nu = expected[0][1] // 2
        gamma = 0.9 / (2 * nu)
        exact = (
            _planted_amplitude(expected) ** -gamma * 2.0 * math.sqrt(math.pi)
            * sp.gamma(0.5 - nu * gamma) / sp.gamma(1.0 - nu * gamma)
        )
        assert verify_integrability(poly, gamma).value == pytest.approx(exact, rel=1e-9)


def test_quadrature_rejects_a_classification_that_does_not_factor_psi():
    with pytest.raises(ValueError, match="do not factor"):
        verify_integrability(_cos2(), 0.3, classification=classify(planted_factor(1.0)))


def test_quadrature_requires_finite_zero_regime():
    with pytest.raises(WrongRegime):
        verify_integrability(TrigPolynomial.constant(2.0), 0.3)
    with pytest.raises(ValueError):
        verify_integrability(_cos2(), -0.1)
