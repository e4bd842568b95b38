#!/usr/bin/env python3
"""Structural analysis of the three model nonlinearities.

For each model cubic nonlinearity this prints the zero set of its
restricted symbol (location, vanishing order, leading coefficient), the
predicted energy decay exponent, and the integrability estimates of
1/Psi^gamma on both sides of the critical exponent.
"""

import argparse

import numpy as np

from wavedecay.trig import NonlinearityCoefficients, cubic_to_trig_poly
from wavedecay.structure import classify, predict_decay, verify_integrability


def golden_cases():
    C1 = np.zeros((3, 3, 3))
    C1[1, 1, 0] = -1.0
    C2 = np.zeros((3, 3, 3))
    C2[1, 1, 0] = -1.0
    C2[1, 1, 2] = -1.0
    C3 = np.zeros((3, 3, 3))
    for j in (0, 2):
        for k in (0, 2):
            for l in (0, 2):
                C3[j, k, l] = -1.0
    return [
        ("F = -(d1 u)^2 dt u            (symbol cos^2)", C1),
        ("F = -(d1 u)^2 (dt u + d2 u)   (symbol cos^2 (1 - sin))", C2),
        ("F = -(dt u + d2 u)^3          (symbol (1 - sin)^3)", C3),
    ]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--delta", type=float, default=0.01,
                        help="slack in the decay exponent (default 0.01)")
    args = parser.parse_args()

    for title, C in golden_cases():
        print(f"\n=== {title} ===")
        psi = cubic_to_trig_poly(NonlinearityCoefficients(C=C))
        cl = classify(psi)
        for z in cl.zeros:
            print(f"  zero at theta = {z.theta:.12f}  order {z.order}"
                  f"  leading {z.leading:.12g}")
        pred = predict_decay(cl, delta=args.delta)
        print(f"  nu = {pred.nu},  energy decay (log t)^(-{pred.lam:.4f})")
        gamma_c = 1.0 / (2 * pred.nu)
        for gamma in (0.6 * gamma_c, 0.9 * gamma_c, 1.1 * gamma_c):
            rep = verify_integrability(psi, gamma)
            if not rep.finite:
                tag = "divergent"
            elif rep.value is None:
                tag = "finite, not stabilised"
            else:
                tag = f"finite ~ {rep.value:.6g}"
            print(f"  integral of Psi^(-{gamma:.4f}): {tag}")


if __name__ == "__main__":
    main()
