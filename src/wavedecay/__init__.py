"""Numerical laboratory for weakly dissipative 2D semilinear wave equations."""

__version__ = "0.1.0"
