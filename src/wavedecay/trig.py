"""Exact algebra for cubic/quadratic derivative-nonlinearity symbols.

A nonlinearity ``F = F_q + F_c`` built from first derivatives of u is
described by a 3x3 coefficient tensor B (quadratic part) and a 3x3x3
tensor C (cubic part), with index 0 denoting the time derivative.
Restricting the symbols to the unit circle, with the convention that the
time slot carries -1, produces trigonometric polynomials in the monomial
basis ``cos^p1(theta) * sin^p2(theta)``, where the algebra is exact
term by term.  ``FourierSeries`` evaluates the same polynomial and its
derivatives from the Fourier coefficients, which is how Psi is read.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * math.pi


class InvalidDirectionError(ValueError):
    """Raised when a direction fails the unit-circle constraint."""


@dataclass(frozen=True)
class Direction:
    """A point omega on the unit circle, extended by omega_0 = -1."""

    omega1: float
    omega2: float

    def __post_init__(self):
        norm2 = self.omega1 ** 2 + self.omega2 ** 2
        if not abs(norm2 - 1.0) <= 1e-10:
            raise InvalidDirectionError(
                f"({self.omega1}, {self.omega2}) is not on the unit circle"
            )

    @classmethod
    def from_angle(cls, theta: float) -> "Direction":
        return cls(math.cos(theta), math.sin(theta))

    @property
    def hat(self) -> tuple[float, float, float]:
        return (-1.0, self.omega1, self.omega2)


def _as_tensor(arr, shape, name):
    out = np.asarray(arr, dtype=float).reshape(shape)
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name} coefficients must be finite")
    out = out.copy()
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class NonlinearityCoefficients:
    """Coefficient tensors of the quadratic (B) and cubic (C) parts.

    Stored exactly as given; evaluations sum over all index orderings, so
    they are invariant under symmetrization of the tensors.
    """

    B: np.ndarray = field(default_factory=lambda: np.zeros((3, 3)))
    C: np.ndarray = field(default_factory=lambda: np.zeros((3, 3, 3)))

    def __post_init__(self):
        object.__setattr__(self, "B", _as_tensor(self.B, (3, 3), "B"))
        object.__setattr__(self, "C", _as_tensor(self.C, (3, 3, 3), "C"))

    @classmethod
    def from_dict(cls, d: dict) -> "NonlinearityCoefficients":
        """Build from the shared config format: "B" row-major 9 reals,
        "C" 27 reals with the last index fastest."""
        B = np.zeros((3, 3))
        C = np.zeros((3, 3, 3))
        if "B" in d and d["B"] is not None:
            B = np.asarray(d["B"], dtype=float).reshape(3, 3)
        if "C" in d and d["C"] is not None:
            C = np.asarray(d["C"], dtype=float).reshape(3, 3, 3)
        return cls(B=B, C=C)


def eval_quadratic_symbol(coeffs: NonlinearityCoefficients, direction: Direction) -> float:
    """Quadratic symbol sum_{jk} B_jk w_j w_k with w = (-1, omega1, omega2)."""
    w = np.array(direction.hat)
    return float(np.einsum("jk,j,k->", coeffs.B, w, w))


def eval_cubic_symbol(coeffs: NonlinearityCoefficients, direction: Direction) -> float:
    """Cubic symbol P(omega) = sum_{jkl} C_jkl w_j w_k w_l with w = (-1, omega)."""
    w = np.array(direction.hat)
    return float(np.einsum("jkl,j,k,l->", coeffs.C, w, w, w))


@dataclass(frozen=True)
class TrigPolynomial:
    """Finite sum of monomials coef * cos^p1(theta) * sin^p2(theta).

    The term list is canonicalized (merged, sorted) on construction, so
    equal-looking polynomials compare equal term-by-term.  Note that the
    monomial basis is not linearly independent (cos^2 + sin^2 = 1); use
    the Fourier form for semantic equality checks.
    """

    terms: tuple[tuple[int, int, float], ...] = ()

    def __post_init__(self):
        merged: dict[tuple[int, int], float] = {}
        for p1, p2, c in self.terms:
            if p1 < 0 or p2 < 0:
                raise ValueError("monomial exponents must be nonnegative")
            key = (int(p1), int(p2))
            merged[key] = merged.get(key, 0.0) + float(c)
        canon = tuple(
            (p1, p2, c) for (p1, p2), c in sorted(merged.items()) if c != 0.0
        )
        object.__setattr__(self, "terms", canon)

    @classmethod
    def constant(cls, c: float) -> "TrigPolynomial":
        return cls(((0, 0, c),))

    @property
    def degree(self) -> int:
        if not self.terms:
            return 0
        return max(p1 + p2 for p1, p2, _ in self.terms)

    @property
    def max_abs_coef(self) -> float:
        if not self.terms:
            return 0.0
        return max(abs(c) for _, _, c in self.terms)

    def __call__(self, theta):
        theta = np.asarray(theta, dtype=float)
        ct, st = np.cos(theta), np.sin(theta)
        out = np.zeros_like(theta)
        for p1, p2, c in self.terms:
            out = out + c * ct ** p1 * st ** p2
        if out.ndim == 0:
            return float(out)
        return out

    def __add__(self, other: "TrigPolynomial") -> "TrigPolynomial":
        return TrigPolynomial(self.terms + other.terms)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return TrigPolynomial(tuple((p1, p2, c * other) for p1, p2, c in self.terms))
        new = []
        for a1, a2, ca in self.terms:
            for b1, b2, cb in other.terms:
                new.append((a1 + b1, a2 + b2, ca * cb))
        return TrigPolynomial(tuple(new))

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)

    def __sub__(self, other):
        return self + (-other)

    @functools.cached_property
    def fourier(self) -> "FourierSeries":
        """Psi = a_0 + sum a_k cos k th + b_k sin k th, built once per polynomial.

        Computed by FFT on a uniform grid dense enough that the transform
        of a degree-d trigonometric polynomial is exact.
        """
        d = self.degree
        n = 2 * d + 2  # strictly above Nyquist for degree d
        thetas = TWO_PI * np.arange(n) / n
        coef = np.fft.rfft(self(thetas))[: d + 1] / n
        a, b = 2.0 * coef.real, -2.0 * coef.imag
        a[0], b[0] = coef[0].real, 0.0
        a.flags.writeable = b.flags.writeable = False   # shared by every reader
        return FourierSeries(a, b)


class FourierSeries:
    """a_0 + sum_k a_k cos k theta + b_k sin k theta, evaluated in that form.

    A float theta is evaluated by Clenshaw's recurrence in Python floats,
    any other theta as an array; grid(n) gives the values at 2 pi j / n
    from one inverse FFT.
    """

    def __init__(self, a, b):
        self.a, self.b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        self._a0 = float(self.a[0])
        self._pairs = list(zip(self.a[:0:-1].tolist(), self.b[:0:-1].tolist()))  # k = d..1

    def __call__(self, theta):
        if isinstance(theta, float):
            c2 = 2.0 * math.cos(theta)
            u = u2 = v = v2 = 0.0
            for ak, bk in self._pairs:
                u, u2 = ak + c2 * u - u2, u
                v, v2 = bk + c2 * v - v2, v
            return self._a0 + 0.5 * c2 * u - u2 + math.sin(theta) * v
        kt = np.multiply.outer(np.asarray(theta, dtype=float), np.arange(len(self.a)))
        out = np.cos(kt) @ self.a + np.sin(kt) @ self.b
        return float(out) if out.ndim == 0 else out

    def max_abs(self) -> float:
        """Largest Fourier coefficient in absolute value."""
        return float(max(np.abs(self.a).max(), np.abs(self.b).max()))

    def derivative(self) -> "FourierSeries":
        """Exact derivative in theta: (a_k, b_k) -> (k b_k, -k a_k)."""
        k = np.arange(len(self.a))
        return FourierSeries(k * self.b, -k * self.a)

    def grid(self, n: int) -> np.ndarray:
        """Values at theta = 2 pi j / n, j = 0..n-1; n must exceed twice the degree."""
        c = np.zeros(n // 2 + 1, dtype=complex)
        c[: len(self.a)] = 0.5 * n * (self.a - 1j * self.b)
        c[0] = n * self._a0
        return np.fft.irfft(c, n)


def _restrict(tensor: np.ndarray) -> TrigPolynomial:
    """Sum of c_J * hat omega_J over the entries of a coefficient tensor,
    with hat omega = (-1, cos theta, sin theta); entries in C order."""
    terms = []
    for idx, c in np.ndenumerate(tensor):
        if c != 0.0:
            terms.append((idx.count(1), idx.count(2), (-1.0) ** idx.count(0) * c))
    return TrigPolynomial(tuple(terms))


def quadratic_to_trig_poly(coeffs: NonlinearityCoefficients) -> TrigPolynomial:
    """F_q(hat omega(theta)) as a degree-2 trigonometric polynomial."""
    return _restrict(coeffs.B)


def cubic_to_trig_poly(coeffs: NonlinearityCoefficients) -> TrigPolynomial:
    """Psi(theta) = P(cos theta, sin theta) for the cubic symbol."""
    return _restrict(coeffs.C)
