"""Exact algebra for cubic/quadratic derivative-nonlinearity symbols.

A nonlinearity ``F = F_q + F_c`` built from first derivatives of u is
described by a 3x3 coefficient tensor B (quadratic part) and a 3x3x3
tensor C (cubic part), with index 0 denoting the time derivative.
Restricting the symbols to the unit circle, with the convention that the
time slot carries -1, produces a sum of monomials
``c * cos^p1(theta) * sin^p2(theta)``.  ``TrigPolynomial`` holds such a
sum by its Fourier coefficients, the one form Psi is evaluated,
differentiated, added and multiplied in; they are the monomials' exact
expansion in z = e^(i theta), rounded only where c scales it and in the sum.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * math.pi
# cos theta and sin theta as Laurent coefficients of z^-1, 1, z in z = e^(i theta)
_COS, _SIN = np.array([0.5, 0.0, 0.5]), np.array([0.5j, 0.0, -0.5j])


class InvalidDirectionError(ValueError):
    """Raised when a direction fails the unit-circle constraint."""


@dataclass(frozen=True)
class Direction:
    """A point omega on the unit circle, extended by omega_0 = -1."""

    omega1: float
    omega2: float

    def __post_init__(self):
        norm2 = self.omega1 * self.omega1 + self.omega2 * self.omega2
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
        "C" 27 reals with the last index fastest; a missing or null one is zero."""
        return cls(**{name: d[name] for name in ("B", "C") if d.get(name) is not None})


def eval_quadratic_symbol(coeffs: NonlinearityCoefficients, direction: Direction) -> float:
    """Quadratic symbol sum_{jk} B_jk w_j w_k with w = (-1, omega1, omega2)."""
    w = np.array(direction.hat)
    return float(np.einsum("jk,j,k->", coeffs.B, w, w))


def eval_cubic_symbol(coeffs: NonlinearityCoefficients, direction: Direction) -> float:
    """Cubic symbol P(omega) = sum_{jkl} C_jkl w_j w_k w_l with w = (-1, omega)."""
    w = np.array(direction.hat)
    return float(np.einsum("jkl,j,k,l->", coeffs.C, w, w, w))


def _from_laurent(g):
    """(a_k, b_k), k = 0..d, from the Laurent half g_k = (a_k - i b_k) / 2, g_0 = a_0."""
    a, b = 2.0 * g.real, -2.0 * g.imag
    a[0], b[0] = g[0].real, 0.0
    return a, b


class TrigPolynomial:
    """Psi(theta) = a_0 + sum_k a_k cos k theta + b_k sin k theta.

    Built from monomials (p1, p2, c), c * cos^p1 * sin^p2, merged by exponent
    and expanded exactly in z = e^(i theta): cos = (z + 1/z)/2, sin = (z - 1/z)/2i.
    scale is the size of the numbers Psi was computed from, the level its
    coefficients are rounded at: the largest merged monomial, the larger
    scale of a sum, and max(scale_f |g|_1, |f|_1 scale_g) over the Laurent
    coefficients of a product f g.  A coefficient or scale that is not
    finite (an overflow) is refused with ValueError.
    """

    def __init__(self, terms=()):
        merged: dict[tuple[int, int], float] = {}
        for p1, p2, c in terms:
            if p1 < 0 or p2 < 0:
                raise ValueError("monomial exponents must be nonnegative")
            key = (int(p1), int(p2))
            merged[key] = merged.get(key, 0.0) + float(c)
        merged = {key: c for key, c in sorted(merged.items()) if c != 0.0}
        d = max((p1 + p2 for p1, p2 in merged), default=0)
        g = np.zeros(2 * d + 1, dtype=complex)          # g_-d..g_d
        for (p1, p2), c in merged.items():
            m = functools.reduce(np.convolve, [_COS] * p1 + [_SIN] * p2, np.ones(1))
            g[d - p1 - p2: d + p1 + p2 + 1] += c * m
        self._set(*_from_laurent(g[d:]), max(map(abs, merged.values()), default=0.0))

    def _set(self, a, b, scale: float) -> "TrigPolynomial":
        if not (math.isfinite(scale) and np.isfinite(a).all() and np.isfinite(b).all()):
            raise ValueError("TrigPolynomial overflows: a coefficient or its scale is not finite")
        a.flags.writeable = b.flags.writeable = False   # shared by every reader
        self.a, self.b, self.scale = a, b, float(scale)
        return self

    @classmethod
    def from_fourier(cls, a, b, scale: float) -> "TrigPolynomial":
        """Psi from its coefficients a_k, b_k, k = 0..d (b_0 = 0), rounded at scale."""
        return cls.__new__(cls)._set(a, b, scale)

    @classmethod
    def constant(cls, c: float) -> "TrigPolynomial":
        return cls(((0, 0, c),))

    @property
    def degree(self) -> int:
        return len(self.a) - 1

    def __call__(self, theta):
        """Values at theta, an array of any shape; a Python float for a scalar."""
        kt = np.multiply.outer(np.asarray(theta, dtype=float), np.arange(len(self.a)))
        out = np.cos(kt) @ self.a + np.sin(kt) @ self.b
        return float(out) if out.ndim == 0 else out

    def __add__(self, other: "TrigPolynomial") -> "TrigPolynomial":
        a, b = (np.zeros(max(len(self.a), len(other.a))) for _ in range(2))
        for p in (self, other):
            a[: len(p.a)] += p.a
            b[: len(p.b)] += p.b
        return TrigPolynomial.from_fourier(a, b, max(self.scale, other.scale))

    def __mul__(self, other):
        if isinstance(other, numbers.Real):       # numpy scalars included
            return TrigPolynomial.from_fourier(
                self.a * other, self.b * other, self.scale * abs(other))
        f, g = self.laurent(), other.laurent()
        h = np.convolve(f, g)
        scale = max(self.scale * np.abs(g).sum(), np.abs(f).sum() * other.scale)
        return TrigPolynomial.from_fourier(*_from_laurent(h[len(h) // 2:]), scale)

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)

    def __sub__(self, other):
        return self + (-other)

    def laurent(self) -> np.ndarray:
        """Coefficients g_-d..g_d of Psi = sum_k g_k z^k in z = e^(i theta):
        g_0 = a_0, g_(+-k) = (a_k -+ i b_k) / 2."""
        g = 0.5 * (self.a - 1j * self.b)
        g[0] = self.a[0]
        return np.concatenate([np.conj(g[:0:-1]), g])

    def max_abs(self) -> float:
        """Largest Fourier coefficient in absolute value."""
        return float(max(np.abs(self.a).max(), np.abs(self.b).max()))

    def derivative(self) -> "TrigPolynomial":
        """Exact derivative in theta: (a_k, b_k) -> (k b_k, -k a_k); scale grows by d."""
        k = np.arange(len(self.a))
        return TrigPolynomial.from_fourier(k * self.b, -k * self.a, self.degree * self.scale)

    def grid(self, n: int) -> np.ndarray:
        """Values at theta = 2 pi j / n, j = 0..n-1; n must exceed twice the degree."""
        c = np.zeros(n // 2 + 1, dtype=complex)
        c[: len(self.a)] = 0.5 * n * (self.a - 1j * self.b)
        c[0] = n * self.a[0]
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
