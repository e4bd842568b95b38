"""Construction of nonnegative trig polynomials with planted zeros.

Each factor ((1 - cos(theta - theta_j)) / 2) ** k_j equals
sin^(2 k_j)((theta - theta_j)/2), so it is nonnegative with a single zero
of order 2 k_j at theta_j and local expansion 4^(-k_j) s^(2 k_j).  A
product of such factors (times a positive amplitude) therefore has known
zeros, orders, and leading coefficients:

    c_j = A * 4^(-k_j) * prod_{i != j} ((1 - cos(theta_j - theta_i)) / 2)^(k_i)
"""

import math

import numpy as np

from wavedecay.trig import TrigPolynomial

TWO_PI = 2.0 * math.pi


def planted_factor(theta0: float) -> TrigPolynomial:
    """(1 - cos(theta - theta0)) / 2 in the monomial basis."""
    return TrigPolynomial(
        (
            (0, 0, 0.5),
            (1, 0, -0.5 * math.cos(theta0)),
            (0, 1, -0.5 * math.sin(theta0)),
        )
    )


def planted_polynomial(rng: np.random.Generator, max_order: int = 8):
    """Random planted polynomial; returns (poly, [(theta, order, leading)]).

    Zeros are separated by at least 1 radian so classification candidates
    cannot merge; orders are even and at most `max_order`.
    """
    m = int(rng.integers(1, 4))
    while True:
        angles = np.sort(rng.uniform(0.0, TWO_PI, size=m))
        gaps = np.diff(np.concatenate([angles, [angles[0] + TWO_PI]]))
        if m == 1 or gaps.min() >= 1.0:
            break
    orders = 2 * rng.integers(1, max_order // 2 + 1, size=m)
    amp = float(rng.uniform(0.5, 4.0))

    poly = TrigPolynomial.constant(amp)
    for theta0, order in zip(angles, orders):
        factor = planted_factor(float(theta0))
        for _ in range(order // 2):
            poly = poly * factor

    expected = []
    for j in range(m):
        lead = amp * 4.0 ** (-(orders[j] // 2))
        for i in range(m):
            if i != j:
                lead *= ((1.0 - math.cos(angles[j] - angles[i])) / 2.0) ** (
                    orders[i] // 2
                )
        expected.append((float(angles[j]), int(orders[j]), float(lead)))
    return poly, expected


def cancelling_polynomial(rng: np.random.Generator, K: float):
    """Planted polynomial written with the added zero K (cos^2 + sin^2 - 1).

    One or two zeros of order 2 or 4, at least 0.5 apart, and an amplitude
    between 1e-4 and 1e2; returns (poly, [(theta, order)]) sorted by theta.
    For large K the monomials are far larger than Psi and cancel.
    """
    m = int(rng.integers(1, 3))
    while True:
        angles = np.sort(rng.uniform(0.0, TWO_PI, size=m))
        if m == 1 or min(angles[1] - angles[0], TWO_PI - angles[1] + angles[0]) >= 0.5:
            break
    orders = 2 * rng.integers(1, 3, size=m)
    poly = TrigPolynomial.constant(10.0 ** rng.uniform(-4.0, 2.0))
    for theta0, order in zip(angles, orders):
        for _ in range(order // 2):
            poly = poly * planted_factor(float(theta0))
    poly = poly + TrigPolynomial(((2, 0, K), (0, 2, K), (0, 0, -K)))
    return poly, [(float(a), int(o)) for a, o in zip(angles, orders)]
