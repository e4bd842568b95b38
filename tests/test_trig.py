"""Unit tests for the exact trigonometric-symbol algebra."""

import itertools
import math
from fractions import Fraction

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
    with pytest.raises(InvalidDirectionError):      # 1e200 ** 2 overflows; 1e200 * 1e200 is inf
        Direction(1e200, 0.0)


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
    thetas = np.linspace(0, TWO_PI, 13)
    psi = cubic_to_trig_poly(NonlinearityCoefficients(C=C))
    np.testing.assert_allclose(psi(thetas), np.cos(thetas) ** 2, atol=1e-15)
    # the all-time entry C_{000} contributes (-1)^3 * C
    C = np.zeros((3, 3, 3))
    C[0, 0, 0] = -1.0
    psi = cubic_to_trig_poly(NonlinearityCoefficients(C=C))
    assert psi.degree == 0 and psi(thetas).tolist() == [1.0] * 13


def test_quadratic_null_form_restricts_to_zero():
    # B = diag(1, -1, -1): u_t^2 - |grad u|^2 vanishes on the circle
    psi = quadratic_to_trig_poly(
        NonlinearityCoefficients(B=np.diag([1.0, -1.0, -1.0]))
    )
    thetas = np.linspace(0, TWO_PI, 64)
    assert np.abs(psi(thetas)).max() < 1e-14


# ---------------------------------------------------------------------------
# trig polynomial algebra, against the monomial sum evaluated directly


def _oracle(terms, thetas):
    """sum c * cos^p1 * sin^p2 over the monomials (p1, p2, c)."""
    return sum(c * np.cos(thetas) ** p1 * np.sin(thetas) ** p2 for p1, p2, c in terms)


def _oracle_derivative(terms):
    """Term-by-term derivative in theta of a monomial list."""
    new = []
    for p1, p2, c in terms:
        if p1 > 0:
            new.append((p1 - 1, p2 + 1, -p1 * c))
        if p2 > 0:
            new.append((p1 + 1, p2 - 1, p2 * c))
    return new


def _random_terms(rng, max_degree=8, n_terms=6):
    terms = []
    for _ in range(n_terms):
        p1 = int(rng.integers(0, max_degree + 1))
        terms.append((p1, int(rng.integers(0, max_degree - p1 + 1)), float(rng.normal())))
    return terms


def _binomial_expansion(p1, p2):
    """Fourier coefficients (a, b) of cos^p1 sin^p2 as Fractions, from
    (z + 1/z)^p1 (z - 1/z)^p2 / (2^(p1 + p2) i^p2) in z = e^(i theta)."""
    d = p1 + p2
    g = [0] * (2 * d + 1)                   # integer coefficients of z^-d..z^d
    for j, l in itertools.product(range(p1 + 1), range(p2 + 1)):
        g[2 * (j + l)] += math.comb(p1, j) * math.comb(p2, l) * (-1) ** (p2 - l)
    re, im = [(1, 0), (0, -1), (-1, 0), (0, 1)][p2 % 4]      # (-i)^p2 = 1 / i^p2
    a, b = [Fraction(0)] * (d + 1), [Fraction(0)] * (d + 1)
    for k in range(d + 1):
        gk = Fraction(g[d + k], 2 ** d)     # g_k = (a_k - i b_k) / 2, g_0 = a_0
        a[k], b[k] = (gk * re, -gk * im) if k == 0 else (2 * gk * re, -2 * gk * im)
    return a, b


@pytest.mark.parametrize("p1, p2", [(p1, n - p1) for n in range(9) for p1 in range(n + 1)])
def test_monomial_coefficients_are_the_exact_binomial_expansion(p1, p2):
    p = TrigPolynomial(((p1, p2, 1.0),))
    a, b = _binomial_expansion(p1, p2)
    assert p.a.tolist() == [float(x) for x in a]
    assert p.b.tolist() == [float(x) for x in b]


def test_cancelling_monomials_expand_exactly():
    # 1e-3 cos^2 written as -1e6 + (1e6 + 1e-3) cos^2 + 1e6 sin^2: the sin
    # terms cancel exactly, so a_1, b_1 and b_2 are 0, not rounding noise
    C = np.zeros((3, 3, 3))
    C[0, 0, 0], C[1, 1, 0], C[2, 2, 0] = 1e6, -1e6 - 1e-3, -1e6
    p = cubic_to_trig_poly(NonlinearityCoefficients(C=C))
    assert p.a[1] == p.b[1] == p.b[2] == 0.0
    assert p.a[0] == p.a[2] == pytest.approx(5e-4, rel=1e-6)


def test_negative_exponents_rejected():
    with pytest.raises(ValueError):
        TrigPolynomial(((-1, 0, 1.0),))


def test_scale_is_the_largest_merged_monomial():
    # (1, 0) merges to 2 - 5 = -3, above the single 2.5; (0, 1) cancels to 0
    p = TrigPolynomial(((1, 0, 2.0), (0, 2, 2.5), (1, 0, -5.0), (0, 1, 1e9), (0, 1, -1e9)))
    assert p.scale == 3.0
    assert TrigPolynomial().scale == 0.0
    assert (-2.0 * p).scale == 6.0
    assert (p + TrigPolynomial.constant(4.0)).scale == 4.0


def test_product_scale_carries_the_rounding_level():
    # K (cos^2 + sin^2 - 1) is zero but rounded at K = 1e6; times cos theta
    # (scale 1, Laurent coefficients 1/2, 1/2) it is still rounded at K
    zero = TrigPolynomial(((2, 0, 1e6), (0, 2, 1e6), (0, 0, -1e6)))
    g = TrigPolynomial(((1, 0, 1.0),))
    assert (zero * g).scale == pytest.approx(1e6, rel=1e-12)
    assert (g * zero).scale == pytest.approx(1e6, rel=1e-12)
    # 1 + cos 2 theta: scale 2, Laurent 1/2, 1, 1/2; times 3 cos theta
    f = TrigPolynomial(((2, 0, 2.0),))
    assert (f * (3.0 * g)).scale == pytest.approx(6.0, rel=1e-12)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_fourier_form_agrees_with_monomial_form(seed):
    rng = np.random.default_rng(seed)
    terms = _random_terms(rng, max_degree=8)
    p = TrigPolynomial(terms)
    thetas = rng.uniform(0, TWO_PI, size=32)
    scale = max(1.0, p.scale)
    assert np.abs(p(thetas) - _oracle(terms, thetas)).max() < 1e-11 * scale


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_derivative_matches_fourier_differentiation(seed):
    """Rotating Fourier coefficients == term-by-term differentiation, to order 2 * degree."""
    rng = np.random.default_rng(seed)
    terms = _random_terms(rng, max_degree=6, n_terms=5)
    p = TrigPolynomial(terms)
    thetas = rng.uniform(0, TWO_PI, size=16)
    scale = max(1.0, p.scale)
    for _ in range(2 * p.degree):
        terms, p = _oracle_derivative(terms), p.derivative()
        scale *= len(p.a)
        assert np.abs(p(thetas) - _oracle(terms, thetas)).max() < 1e-10 * scale


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_sum_and_product_match_monomial_oracle(seed):
    rng = np.random.default_rng(seed)
    f_terms, g_terms = _random_terms(rng, 5, 4), _random_terms(rng, 4, 4)
    f, g = TrigPolynomial(f_terms), TrigPolynomial(g_terms)
    thetas = rng.uniform(0, TWO_PI, size=32)
    fv, gv = _oracle(f_terms, thetas), _oracle(g_terms, thetas)
    scale = max(1.0, f.scale) * max(1.0, g.scale)
    assert (f * g).degree == f.degree + g.degree
    assert np.abs((f * g)(thetas) - fv * gv).max() < 1e-11 * scale
    assert np.abs((f + g)(thetas) - (fv + gv)).max() < 1e-11 * scale
    assert np.abs((f - 2.0 * g)(thetas) - (fv - 2.0 * gv)).max() < 1e-11 * scale


def test_product_rule():
    rng = np.random.default_rng(11)
    f = TrigPolynomial(((2, 0, 1.5), (0, 1, -0.5)))
    g = TrigPolynomial(((1, 1, 2.0), (0, 0, 1.0)))
    df, dg = f.derivative(), g.derivative()
    thetas = rng.uniform(0, TWO_PI, size=32)
    lhs = (f * g).derivative()(thetas)
    rhs = df(thetas) * g(thetas) + f(thetas) * dg(thetas)
    assert np.abs(lhs - rhs).max() < 1e-12


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_fourier_series_scalar_vector_and_grid_paths_agree(seed):
    rng = np.random.default_rng(seed)
    terms = _random_terms(rng)
    p = TrigPolynomial(terms)
    scale = max(1.0, p.scale)
    thetas = rng.uniform(-TWO_PI, 2 * TWO_PI, size=32)
    vector = p(thetas)
    scalar = np.array([p(float(t)) for t in thetas])
    assert all(type(p(float(t))) is float for t in thetas)
    assert np.abs(scalar - vector).max() < 1e-12 * scale
    assert np.abs(vector - _oracle(terms, thetas)).max() < 1e-11 * scale
    assert np.abs(scalar - _oracle(terms, thetas)).max() < 1e-11 * scale
    n = int(rng.integers(2 * p.degree + 1, 300))
    grid = TWO_PI * np.arange(n) / n
    assert np.abs(p.grid(n) - _oracle(terms, grid)).max() < 1e-11 * scale


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


@pytest.mark.parametrize("scalar", [np.int64(2), np.float32(2.0), np.int32(2), 2, 2.0])
def test_numpy_scalars_scale_like_python_numbers(scalar):
    psi = cubic_to_trig_poly(NonlinearityCoefficients(C=np.arange(27.0).reshape(3, 3, 3)))
    thetas = np.linspace(0, TWO_PI, 17)
    want = 2 * psi
    for got in (psi * scalar, scalar * psi):
        assert got.scale == want.scale
        assert got(thetas).tobytes() == want(thetas).tobytes()
        assert got(1.234) == want(1.234)


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
