"""Structural conditions and decay-rate prediction.

Given the cubic symbol restricted to the circle, Psi(theta), this module
decides whether the symbol vanishes identically, is strictly positive, or
has finitely many zeros of even order; extracts zero locations, orders and
leading coefficients; certifies integrability of 1/Psi^gamma; and turns
the maximal vanishing order into the predicted energy-decay exponent.
Psi and its derivatives are trig.TrigPolynomial, read in Fourier form.

Psi is a Laurent polynomial of degree d in z = e^(i theta), so its zeros
on the circle and their orders are clusters of unit-circle roots of the
degree-2d polynomial z^d * Psi (Boyd, J. Eng. Math. 56, 2006).  classify
takes those roots, and the roots of z^d * Psi' for the minimum, from one
companion-matrix eigenvalue solve each (numpy.roots).  A cluster's mean
is well conditioned where its members are not (Zeng, Math. Comp. 74,
2005), and every threshold is the rounding level of Psi's coefficients,
so a small Psi written with large cancelling monomials keeps its zeros.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .trig import (
    TWO_PI,
    NonlinearityCoefficients,
    TrigPolynomial,
    cubic_to_trig_poly,
    quadratic_to_trig_poly,
)

# tolerances, relative to psi.scale in classify, else to max(1, psi.scale);
# classify's rounding floor is relative to psi.scale or the largest Fourier coefficient
FOURIER_NULL_TOL = 1e-12
NEGATIVITY_TOL = 1e-10
ROUNDING_FLOOR = 64 * 2.0 ** -53    # 64 unit roundoffs
# verify_integrability excludes min(QUAD_R0, smallest zero gap / 4) * QUAD_SHRINK**level
# round every zero and integrates in s = log(distance), one 32-node
# Gauss-Legendre panel (nodes and weights on [0, 1]) per unit of s
QUAD_LEVELS = 6
QUAD_R0 = 0.05
QUAD_SHRINK = 1.0 / 16.0
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)
_GL_NODES, _GL_WEIGHTS = 0.5 * (_GL_NODES + 1.0), 0.5 * _GL_WEIGHTS
# it fits Psi / prod sin^o on grid points min(FIT_EXCLUSION, smallest zero
# gap / 4) or more from every zero, and allows a misfit of FIT_TOL * scale
FIT_EXCLUSION = 0.3
FIT_TOL = 1e-8


class NegativityDetected(ValueError):
    """Psi takes a value below -NEGATIVITY_TOL times its scale: the
    nonnegativity hypothesis fails."""

    def __init__(self, theta: float, value: float):
        super().__init__(f"Psi({theta}) = {value} < 0")
        self.theta = theta
        self.value = value


class WrongRegime(ValueError):
    """Operation outside its regime: a symbol without finitely many zeros,
    or a ray direction where P is not positive."""


class ZeroCase(enum.Enum):
    IDENTICALLY_ZERO = "identically_zero"
    STRICTLY_POSITIVE = "strictly_positive"
    FINITE_ZEROS = "finite_zeros"


@dataclass(frozen=True)
class ZeroInfo:
    theta: float          # in [0, 2*pi)
    order: int            # even positive integer
    leading: float        # strictly positive


@dataclass(frozen=True)
class ZeroClassification:
    case: ZeroCase
    min_value: Optional[float] = None          # strictly-positive case
    zeros: tuple[ZeroInfo, ...] = ()

    @property
    def nu(self) -> int:
        if self.case is not ZeroCase.FINITE_ZEROS:
            raise WrongRegime("nu is defined only in the finite-zeros case")
        return max(z.order for z in self.zeros) // 2


class AgemiStatus(enum.Enum):
    FAILS = "fails"
    HOLDS = "holds"
    HOLDS_STRICTLY = "holds_strictly"


@dataclass(frozen=True)
class AgemiResult:
    status: AgemiStatus
    witness: Optional[float] = None       # angle where Psi < 0
    min_value: Optional[float] = None     # strict case


@dataclass(frozen=True)
class DecayPrediction:
    nu: int
    delta: float
    lam: float = field(init=False)
    gamma_max: float = field(init=False)
    mu: float = field(init=False)

    def __post_init__(self):
        if self.nu < 1:
            raise ValueError("nu must be a positive integer")
        if not 0.0 < self.delta < 1.0 / (4 * self.nu):
            raise ValueError("delta must lie in (0, 1/(4 nu))")
        lam = 1.0 / (4 * self.nu) - self.delta
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "gamma_max", 1.0 / (2 * self.nu))
        object.__setattr__(
            self, "mu", 0.9 * min(0.1, (1 - 4 * lam) / (2 - 4 * lam))
        )


@dataclass(frozen=True)
class ConditionReport:
    quadratic_null: bool
    cubic_null: bool
    agemi: AgemiResult
    classification: Optional[ZeroClassification]
    prediction: Optional[DecayPrediction]

    def to_dict(self) -> dict:
        d: dict = {
            "quadratic_null": self.quadratic_null,
            "cubic_null": self.cubic_null,
            "agemi": {"status": self.agemi.status.value},
        }
        if self.agemi.witness is not None:
            d["agemi"]["witness"] = float(f"{self.agemi.witness:.12g}")
        if self.agemi.min_value is not None:
            d["agemi"]["min_value"] = float(f"{self.agemi.min_value:.12g}")
        if self.classification is not None:
            cd: dict = {"case": self.classification.case.value}
            if self.classification.min_value is not None:
                cd["min_value"] = float(f"{self.classification.min_value:.12g}")
            if self.classification.zeros:
                cd["zeros"] = [
                    {"theta": float(f"{z.theta:.12g}"), "order": z.order,
                     "leading": float(f"{z.leading:.12g}")}
                    for z in self.classification.zeros
                ]
            d["classification"] = cd
        if self.prediction is not None:
            p = self.prediction
            d["prediction"] = {"nu": p.nu, "delta": p.delta, "lambda": p.lam,
                               "gamma_max": p.gamma_max, "mu": p.mu}
        return d


def _vanishes(poly: TrigPolynomial) -> bool:
    """All Fourier coefficients of poly are below tolerance: zero on the circle."""
    return poly.max_abs() < FOURIER_NULL_TOL * max(1.0, poly.scale)


def check_quadratic_null(coeffs: NonlinearityCoefficients) -> bool:
    """True iff the quadratic symbol vanishes identically on the circle."""
    return _vanishes(quadratic_to_trig_poly(coeffs))


def _roots(laurent: np.ndarray, floor: float) -> np.ndarray:
    """Roots of z^d times a Laurent polynomial, its outermost coefficients
    within the floor dropped."""
    big = np.flatnonzero(np.abs(laurent) > floor)
    return np.roots(laurent[big[0]:big[-1] + 1][::-1]) if big.size else np.zeros(0)


def _zeros(derivs: list[TrigPolynomial], floor: float, lowest: float) -> list[ZeroInfo]:
    """The zeros of Psi = derivs[0] as valleys of roots of z^d * Psi; see
    classify.  derivs[k] is Psi^(k); the list grows to the highest order."""
    psi = derivs[0]
    laurent = psi.laurent()
    roots = _roots(laurent, floor)
    phi = np.angle(roots) % TWO_PI
    half = roots / np.sqrt(np.abs(roots))       # halfway from the root to the circle
    psi_half = np.polynomial.polynomial.polyval(half, laurent) / half ** (len(laurent) // 2)
    on_circle = np.abs(psi_half - psi(phi)) <= floor + max(-lowest, 0.0)
    by_angle = np.argsort(phi[on_circle])
    roots, phi = roots[on_circle][by_angle], phi[on_circle][by_angle]
    ends = psi(phi)
    mid = phi + 0.5 * ((np.roll(phi, -1) - phi) % TWO_PI)
    apart = psi(mid) > np.maximum(ends, np.roll(ends, -1)) + floor
    # a valley after each barrier; the last one runs on round the circle
    # into the first unless a barrier closes it
    label = np.cumsum(np.roll(apart, 1)) % max(1, apart.sum())
    zeros = []
    for valley in (np.flatnonzero(label == v) for v in np.unique(label)):
        if ends[valley].min() > floor:
            continue
        order, theta = len(valley), float(np.angle(roots[valley].mean()) % TWO_PI)
        while len(derivs) <= order:
            derivs.append(derivs[-1].derivative())
        odd, top = derivs[order - 1], derivs[order]
        theta = (theta - odd(theta) / top(theta)) % TWO_PI     # Newton on Psi^(order-1)
        if TWO_PI - theta <= ROUNDING_FLOOR * TWO_PI:   # 2 pi to the floor: theta = 0
            theta = 0.0
        zeros.append(ZeroInfo(theta, order, top(theta) / math.factorial(order)))
    return zeros


def classify(psi: TrigPolynomial) -> ZeroClassification:
    """Trichotomy of a nonnegative trigonometric polynomial, from the roots
    of the degree-2d polynomials z^d * Psi' and z^d * Psi, z = e^(i theta).

    Psi is identically zero when its Fourier coefficients are below
    tolerance.  Its global minimum on the circle is the least value of Psi
    at the angles of the roots of z^d * Psi'.  Below -NEGATIVITY_TOL * scale
    the sign condition fails (NegativityDetected, with that angle as the
    witness).  Otherwise the zeros are valleys of roots of z^d * Psi:
    - a root e^(i (phi + i rho)) counts when Psi is flat between it and
      the circle, |Psi(phi + i rho/2) - Psi(phi)| within the floor (widened
      by the depth of a negative lobe the sign check let through); a root
      of another factor of Psi that merely shares a zero's angle does not;
    - neighbours in angle are apart where Psi, at the midpoint of the arc
      between them, rises by more than the floor above its value at both;
    - a valley with a root at whose angle Psi is within the floor is a
      zero.  Its size is the order, its angle the argument of the roots'
      mean (well conditioned where the roots are not) after one Newton
      step on Psi^(order-1), and Psi^(order) / order! there is the
      leading coefficient.
    With no zero, Psi is strictly positive and its minimum is reported.
    The floor, ROUNDING_FLOOR times psi.scale or the largest Fourier
    coefficient, is the level to which rounding lets Psi be known.
    """
    if _vanishes(psi):
        return ZeroClassification(case=ZeroCase.IDENTICALLY_ZERO)
    scale = psi.scale  # positive, since Psi does not vanish
    floor = ROUNDING_FLOOR * max(scale, psi.max_abs())
    # theta = 0 stands in for the critical points of a constant Psi
    derivs = [psi, psi.derivative()]
    crit = np.append(np.angle(_roots(derivs[1].laurent(), floor)), 0.0) % TWO_PI
    vals = psi(crit)
    lowest = float(vals.min())
    if lowest < -NEGATIVITY_TOL * scale:
        raise NegativityDetected(float(crit[vals.argmin()]), lowest)
    zeros = _zeros(derivs, floor, lowest) if lowest <= floor else []
    if not zeros:
        return ZeroClassification(ZeroCase.STRICTLY_POSITIVE, min_value=lowest)
    zeros.sort(key=lambda z: z.theta)
    return ZeroClassification(case=ZeroCase.FINITE_ZEROS, zeros=tuple(zeros))


def _sign_condition(
    coeffs: NonlinearityCoefficients,
) -> tuple[AgemiResult, Optional[ZeroClassification]]:
    """Sign condition of the cubic symbol, with its zero classification
    (None when the symbol takes negative values)."""
    try:
        cl = classify(cubic_to_trig_poly(coeffs))
    except NegativityDetected as exc:
        return AgemiResult(status=AgemiStatus.FAILS, witness=exc.theta), None
    if cl.case is ZeroCase.STRICTLY_POSITIVE:
        return AgemiResult(status=AgemiStatus.HOLDS_STRICTLY, min_value=cl.min_value), cl
    return AgemiResult(status=AgemiStatus.HOLDS), cl


def predict_decay(classification: ZeroClassification, delta: float = 0.01) -> DecayPrediction:
    """Decay exponent from the maximal vanishing order: lambda = 1/(4 nu) - delta."""
    if classification.case is not ZeroCase.FINITE_ZEROS:
        raise WrongRegime(
            "decay prediction requires the finite-zeros case, got "
            f"{classification.case.value}"
        )
    return DecayPrediction(nu=classification.nu, delta=delta)


@dataclass(frozen=True)
class IntegrabilityReport:
    finite: bool
    gamma: float
    estimates: tuple[float, ...]
    value: Optional[float] = None     # stabilized estimate, finite case


def _quad(f, a, b):
    """Integrals of f over the intervals [a[i], b[i]], in one batch: each
    interval is cut into ceil(b - a) equal 32-node Gauss-Legendre panels,
    and f(x, i) is called once with every node x and its interval i."""
    n = np.maximum(np.ceil(b - a), 1.0).astype(int)
    panel = np.repeat(np.arange(len(a)), n)                 # interval of each panel
    h = ((b - a) / n)[panel]
    left = a[panel] + h * (np.arange(len(panel)) - np.repeat(np.cumsum(n) - n, n))
    x = (left[:, None] + h[:, None] * _GL_NODES).ravel()
    vals = f(x, np.repeat(panel, len(_GL_NODES))).reshape(len(panel), -1)
    return np.bincount(panel, weights=h * (vals @ _GL_WEIGHTS), minlength=len(a))


def verify_integrability(
    psi: TrigPolynomial,
    gamma: float,
    classification: Optional[ZeroClassification] = None,
) -> IntegrabilityReport:
    """Certify (non-)convergence of the circle integral of 1/Psi^gamma.

    Psi is factored as q(theta) * prod_j sin^(o_j)((theta - theta_j)/2)
    over the classified zeros, q being fitted by least squares away from
    them (ValueError if the product misses Psi by over FIT_TOL * scale or
    q is not positive).  Zero j's own factor is evaluated as sin(d/2) at
    distance d, so the integrand stays accurate up to the zero.

    Each refinement level excludes a shrinking neighborhood of every zero.
    Level 0 integrates each flank of a zero from its excluded radius out to
    the midpoint of the gap to the next zero; every later level adds the
    shell it uncovers to the running total (one _quad batch, in s = log d).
    Where the local exponent 2 nu_j gamma is below 1, the near zone is
    restored from the model c_j (theta - theta_j)^(2 nu_j), so estimates
    stabilize; at an exponent >= 1 that integral is infinite and they grow.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if classification is None:
        classification = classify(psi)
    if classification.case is not ZeroCase.FINITE_ZEROS:
        raise WrongRegime("integrability check requires the finite-zeros case")

    zeros = sorted(classification.zeros, key=lambda z: z.theta)
    th = np.array([z.theta for z in zeros])
    order = np.array([float(z.order) for z in zeros])
    lead = np.array([z.leading for z in zeros])
    # half the gap from each zero to the next one round the circle
    half_gaps = 0.5 * np.diff(np.append(th, th[0] + TWO_PI))

    deg = psi.degree - sum(z.order for z in zeros) // 2
    if deg < 0:
        raise ValueError("the classified zero orders exceed twice the degree of psi")
    # more than 2 * degree points, so a product that matches Psi on the grid matches it
    grid = TWO_PI * np.arange(256 + 4 * psi.degree) / (256 + 4 * psi.degree)
    psi_grid = psi.grid(len(grid))
    sines = np.prod(np.abs(np.sin(0.5 * (grid[:, None] - th))) ** order, axis=1)
    dist = np.abs((grid[:, None] - th + math.pi) % TWO_PI - math.pi).min(axis=1)
    fit = dist >= min(FIT_EXCLUSION, half_gaps.min() / 2.0)
    powers = np.polynomial.polynomial.polyvander(np.exp(1j * grid[fit]), deg)
    basis = np.hstack([powers.real, powers.imag[:, 1:]])      # cos k theta, sin k theta
    coef = np.linalg.lstsq(basis, psi_grid[fit] / sines[fit], rcond=None)[0]
    q = TrigPolynomial.from_fourier(coef[: deg + 1], np.append(0.0, coef[deg + 1:]), psi.scale)
    q_grid = q(grid)
    misfit = np.abs(q_grid * sines - psi_grid).max()
    if misfit > FIT_TOL * max(1.0, psi.scale) or q_grid.min() <= 0.0:
        raise ValueError(f"classified zeros do not factor psi (misfit {misfit:.3g})")

    # shell l of a flank runs in s from log r_l out to log r_(l-1), or at
    # level 0 out to the flank's half-gap; flank 2j is zero j's left one
    radii = min(QUAD_R0, half_gaps.min() / 2.0) * QUAD_SHRINK ** np.arange(QUAD_LEVELS)
    extents = np.stack([np.roll(half_gaps, 1), half_gaps], axis=1).ravel()
    edges = np.log(np.column_stack([extents, np.tile(radii, (len(extents), 1))]))
    flank = np.repeat(np.arange(len(extents)), QUAD_LEVELS)

    def integrand(s, i):
        """Psi^-gamma * d at theta = theta_j -+ d, with d = e^s."""
        d, j = np.exp(s), flank[i] // 2
        theta = th[j] + (2.0 * (flank[i] % 2) - 1.0) * d
        arg = np.where(j[:, None] == np.arange(len(th)), d[:, None], theta[:, None] - th)
        log_psi = np.log(q(theta)) + np.log(np.abs(np.sin(0.5 * arg))) @ order
        return np.exp(s - gamma * log_psi)

    shells = _quad(integrand, edges[:, 1:].ravel(), edges[:, :-1].ravel())
    # analytic integral of the local models over the excluded zones
    conv = gamma * order < 1.0
    near = 2.0 * lead[conv] ** -gamma * radii[:, None] ** (1.0 - gamma * order[conv])
    near = (near / (1.0 - gamma * order[conv])).sum(axis=1)
    estimates = tuple(map(float, np.cumsum(shells.reshape(-1, QUAD_LEVELS).sum(0)) + near))

    finite = bool(conv.all())
    stabilized = abs(estimates[-1] - estimates[-2]) < 1e-4 * abs(estimates[-1])
    value = estimates[-1] if finite and stabilized else None
    return IntegrabilityReport(finite=finite, gamma=gamma, estimates=estimates, value=value)


def analyze(coeffs: NonlinearityCoefficients, delta: float = 0.01) -> ConditionReport:
    """Full structural report: null conditions, sign condition, prediction."""
    qnull = check_quadratic_null(coeffs)
    agemi, cl = _sign_condition(coeffs)
    case = cl.case if cl is not None else None
    prediction = None
    if case is ZeroCase.FINITE_ZEROS:
        prediction = predict_decay(cl, delta)
    return ConditionReport(
        quadratic_null=qnull, cubic_null=case is ZeroCase.IDENTICALLY_ZERO,
        agemi=agemi, classification=cl, prediction=prediction,
    )
