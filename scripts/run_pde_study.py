#!/usr/bin/env python3
"""Grid-refinement study of the 2D leapfrog solver and the ray reduction.

Part 1 measures the relative drift of the discrete energy on a linear run
across a sequence of halved grid spacings (expected O(h^2)).

Part 2 extracts the outgoing ray profile V from a weakly dissipative run,
measures the residual forcing H of the reduced ODE, re-integrates the ODE
with that forcing, and reports the reproduction error and the fitted
residual-envelope constant on two grids.
"""

import argparse

import numpy as np

from wavedecay.trig import Direction, NonlinearityCoefficients
from wavedecay.profile_ode import (
    RayConfig,
    TabulatedForcing,
    integrate_profile,
    residual_forcing,
)
from wavedecay.wave import InitialData, RayTap, SolverConfig, run, stream


def conservation_study(spacings):
    print("=== linear energy conservation ===")
    data = InitialData(kind="smooth_bump", R=2.0, eps=0.1)
    prev = None
    for h in spacings:
        cfg = SolverConfig(h=h, L=10.0, T=5.0, checkpoint_interval=1e-9)
        E = np.array([c.E for c in stream(cfg, data)])
        drift = float(np.abs(E - E[0]).max() / E[0])
        ratio = "" if prev is None else f"  ratio vs previous = {prev / drift:.3f}"
        print(f"  h = {h:<7g} relative drift = {drift:.3e}"
              f"  drift/h^2 = {drift / h ** 2:.4f}{ratio}")
        prev = drift


def reduction_study(spacings):
    print("\n=== ray extraction vs reduced ODE ===")
    C = np.zeros((3, 3, 3))
    C[1, 1, 0] = -1.0
    coeffs = NonlinearityCoefficients(C=C)
    data = InitialData(kind="smooth_bump", R=4.0, eps=0.1)
    omega = Direction(1.0, 0.0)
    for h in spacings:
        cfg = SolverConfig(h=h, L=26.0, T=20.0, nonlinearity=coeffs)
        res = run(cfg, data, rays=[RayTap(sigma=0.0, omega=omega)])
        series = res.profiles[0]
        rep = residual_forcing(series, 1.0, eps=data.eps, mu=0.05)
        ray = RayConfig(sigma=0.0, omega=omega, eps=data.eps, mu=0.05,
                        t_end=float(series.times[-1]), support_radius=data.R)
        v0 = float(np.interp(ray.t_start, series.times, series.V))
        replay = integrate_profile(
            1.0, ray, TabulatedForcing(times=rep.times, values=rep.H), v0=v0
        )
        v_ext = np.interp(replay.times, series.times, series.V)
        err = float(np.max(np.abs(replay.V - v_ext)) / np.max(np.abs(v_ext)))
        print(f"  h = {h:<7g} reintegration error = {err:.4%}"
              f"  envelope constant = {rep.envelope_constant:.5f}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fine", action="store_true",
                        help="include the finest (slowest) grids")
    args = parser.parse_args()

    cons = [0.2, 0.1, 0.05] + ([0.025] if args.fine else [])
    red = [0.25, 0.125] + ([0.0625] if args.fine else [])
    conservation_study(cons)
    reduction_study(red)


if __name__ == "__main__":
    main()
