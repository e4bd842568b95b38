"""Unit tests for the exact trigonometric-symbol algebra."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavedecay.trig import (
    Direction,
    InvalidDirectionError,
    NonlinearityCoefficients,
    TrigPolynomial,
    cubic_to_trig_poly,
    eval_cubic_symbol,
    eval_quadratic_symbol,
    quadratic_to_trig_poly,
)

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# directions


def test_direction_accepts_unit_vectors():
    d = Direction(0.6, 0.8)
    assert d.hat == (-1.0, 0.6, 0.8)


def test_direction_rejects_off_circle_points():
    with pytest.raises(InvalidDirectionError):
        Direction(0.5, 0.5)
    with pytest.raises(InvalidDirectionError):
        Direction(0.0, 0.0)


@given(st.floats(-10.0, 10.0))
def test_direction_from_angle_round_trip(theta):
    d = Direction.from_angle(theta)
    assert abs(d.omega1 - math.cos(theta)) < 1e-12
    assert abs(d.omega2 - math.sin(theta)) < 1e-12


# ---------------------------------------------------------------------------
# symbol evaluation against an independent triple-loop oracle


def _oracle_quadratic(B, w):
    total = 0.0
    for j in range(3):
        for k in range(3):
            total += B[j][k] * w[j] * w[k]
    return total


def _oracle_cubic(C, w):
    total = 0.0
    for j in range(3):
        for k in range(3):
            for l in range(3):
                total += C[j][k][l] * w[j] * w[k] * w[l]
    return total


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=50, deadline=None)
def test_symbols_match_loop_oracle(seed):
    rng = np.random.default_rng(seed)
    B = rng.normal(size=(3, 3))
    C = rng.normal(size=(3, 3, 3))
    coeffs = NonlinearityCoefficients(B=B, C=C)
    d = Direction.from_angle(float(rng.uniform(0, TWO_PI)))
    w = d.hat
    assert eval_quadratic_symbol(coeffs, d) == pytest.approx(
        _oracle_quadratic(B, w), rel=1e-12, abs=1e-12
    )
    assert eval_cubic_symbol(coeffs, d) == pytest.approx(
        _oracle_cubic(C, w), rel=1e-12, abs=1e-12
    )


def test_symbols_invariant_under_symmetrization():
    rng = np.random.default_rng(3)
    coeffs = NonlinearityCoefficients(
        B=rng.normal(size=(3, 3)), C=rng.normal(size=(3, 3, 3))
    )
    C_sym = sum(np.transpose(coeffs.C, perm) for perm in itertools.permutations(range(3)))
    sym = NonlinearityCoefficients(B=0.5 * (coeffs.B + coeffs.B.T), C=C_sym / 6.0)
    for theta in rng.uniform(0, TWO_PI, size=8):
        d = Direction.from_angle(float(theta))
        assert eval_quadratic_symbol(coeffs, d) == pytest.approx(
            eval_quadratic_symbol(sym, d), rel=1e-12, abs=1e-12
        )
        assert eval_cubic_symbol(coeffs, d) == pytest.approx(
            eval_cubic_symbol(sym, d), rel=1e-12, abs=1e-12
        )


def test_coefficient_round_trip_through_dict():
    rng = np.random.default_rng(5)
    coeffs = NonlinearityCoefficients(
        B=rng.normal(size=(3, 3)), C=rng.normal(size=(3, 3, 3))
    )
    # "B" row-major, "C" with the last index fastest
    back = NonlinearityCoefficients.from_dict(
        {"B": coeffs.B.ravel().tolist(), "C": coeffs.C.ravel().tolist()}
    )
    assert np.array_equal(back.B, coeffs.B)
    assert np.array_equal(back.C, coeffs.C)


def test_time_time_space_entry_signs():
    # C_{110} contributes (-1)^1 * cos^2(theta) = +cos^2 on the circle
    C = np.zeros((3, 3, 3))
    C[1, 1, 0] = -1.0
    psi = cubic_to_trig_poly(NonlinearityCoefficients(C=C))
    assert psi.terms == ((2, 0, 1.0),)
    # the all-time entry C_{000} contributes (-1)^3 * C
    C = np.zeros((3, 3, 3))
    C[0, 0, 0] = -1.0
    psi = cubic_to_trig_poly(NonlinearityCoefficients(C=C))
    assert psi.terms == ((0, 0, 1.0),)


def test_quadratic_null_form_restricts_to_zero():
    # B = diag(1, -1, -1): u_t^2 - |grad u|^2 vanishes on the circle
    psi = quadratic_to_trig_poly(
        NonlinearityCoefficients(B=np.diag([1.0, -1.0, -1.0]))
    )
    thetas = np.linspace(0, TWO_PI, 64)
    assert np.abs(psi(thetas)).max() < 1e-14


# ---------------------------------------------------------------------------
# trig polynomial algebra


def test_terms_canonicalized():
    p = TrigPolynomial(((1, 0, 2.0), (1, 0, -2.0), (0, 1, 1.0)))
    assert p.terms == ((0, 1, 1.0),)


def test_negative_exponents_rejected():
    with pytest.raises(ValueError):
        TrigPolynomial(((-1, 0, 1.0),))


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_fourier_form_agrees_with_monomial_form(seed):
    rng = np.random.default_rng(seed)
    terms = tuple(
        (int(rng.integers(0, 5)), int(rng.integers(0, 5)), float(rng.normal()))
        for _ in range(6)
    )
    p = TrigPolynomial(terms)
    thetas = rng.uniform(0, TWO_PI, size=32)
    scale = max(1.0, p.max_abs_coef)
    assert np.abs(p(thetas) - p.fourier(thetas)).max() < 1e-11 * scale


def _monomial_derivative(p: TrigPolynomial) -> TrigPolynomial:
    """Term-by-term derivative in theta: an oracle independent of the Fourier form."""
    new = []
    for p1, p2, c in p.terms:
        if p1 > 0:
            new.append((p1 - 1, p2 + 1, -p1 * c))
        if p2 > 0:
            new.append((p1 + 1, p2 - 1, p2 * c))
    return TrigPolynomial(tuple(new))


def _random_poly(rng, max_degree=8, n_terms=6):
    terms = []
    for _ in range(n_terms):
        p1 = int(rng.integers(0, max_degree + 1))
        terms.append((p1, int(rng.integers(0, max_degree - p1 + 1)), float(rng.normal())))
    return TrigPolynomial(tuple(terms))


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_derivative_matches_fourier_differentiation(seed):
    """Rotating Fourier coefficients == term-by-term differentiation, to order 2 * degree."""
    rng = np.random.default_rng(seed)
    terms = tuple(
        (int(rng.integers(0, 4)), int(rng.integers(0, 4)), float(rng.normal()))
        for _ in range(5)
    )
    p = TrigPolynomial(terms)
    series = p.fourier
    thetas = rng.uniform(0, TWO_PI, size=16)
    scale = max(1.0, p.max_abs_coef)
    for _ in range(2 * p.degree):
        p, series = _monomial_derivative(p), series.derivative()
        scale *= len(series.a)
        assert np.abs(series(thetas) - p(thetas)).max() < 1e-10 * scale


def test_product_rule():
    rng = np.random.default_rng(11)
    f = TrigPolynomial(((2, 0, 1.5), (0, 1, -0.5)))
    g = TrigPolynomial(((1, 1, 2.0), (0, 0, 1.0)))
    df, dg = (h.fourier.derivative() for h in (f, g))
    thetas = rng.uniform(0, TWO_PI, size=32)
    lhs = (f * g).fourier.derivative()(thetas)
    rhs = df(thetas) * g(thetas) + f(thetas) * dg(thetas)
    assert np.abs(lhs - rhs).max() < 1e-12


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_fourier_series_scalar_vector_and_grid_paths_agree(seed):
    rng = np.random.default_rng(seed)
    p = _random_poly(rng)
    series = p.fourier
    scale = max(1.0, p.max_abs_coef)
    thetas = rng.uniform(-TWO_PI, 2 * TWO_PI, size=32)
    vector = series(thetas)
    scalar = np.array([series(float(t)) for t in thetas])
    assert np.abs(scalar - vector).max() < 1e-12 * scale
    assert np.abs(vector - p(thetas)).max() < 1e-11 * scale
    assert np.abs(scalar - p(thetas)).max() < 1e-11 * scale
    n = int(rng.integers(2 * p.degree + 1, 300))
    grid = TWO_PI * np.arange(n) / n
    assert np.abs(series.grid(n) - series(grid)).max() < 1e-12 * scale


def test_arithmetic_evaluates_pointwise():
    f = TrigPolynomial(((2, 0, 1.0),))
    g = TrigPolynomial(((0, 2, 1.0),))
    thetas = np.linspace(0, TWO_PI, 17)
    np.testing.assert_allclose((f + g)(thetas), 1.0, atol=1e-14)
    np.testing.assert_allclose(
        (f - g)(thetas), np.cos(2 * thetas), atol=1e-13
    )
    np.testing.assert_allclose(
        (2.0 * f)(thetas), 2.0 * np.cos(thetas) ** 2, atol=1e-13
    )
    np.testing.assert_allclose(
        (-f)(thetas), -np.cos(thetas) ** 2, atol=1e-13
    )


def test_restriction_matches_symbol_pointwise():
    rng = np.random.default_rng(13)
    for _ in range(10):
        coeffs = NonlinearityCoefficients(
            B=rng.normal(size=(3, 3)), C=rng.normal(size=(3, 3, 3))
        )
        pq = quadratic_to_trig_poly(coeffs)
        pc = cubic_to_trig_poly(coeffs)
        for theta in rng.uniform(0, TWO_PI, size=4):
            d = Direction.from_angle(float(theta))
            assert pq(float(theta)) == pytest.approx(
                eval_quadratic_symbol(coeffs, d), rel=1e-10, abs=1e-10
            )
            assert pc(float(theta)) == pytest.approx(
                eval_cubic_symbol(coeffs, d), rel=1e-10, abs=1e-10
            )


def test_degree_and_constant_helpers():
    assert TrigPolynomial().degree == 0
    assert TrigPolynomial.constant(3.0)(1.234) == pytest.approx(3.0)
    p = TrigPolynomial(((3, 2, 1.0),))
    assert p.degree == 5
