"""Acceptance suite: one printed PASS/FAIL line per criterion.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines; the
pytest PASSED/FAILED verdicts carry the same information.  Regression
constants (frozen after calibration): K_CONSERVATION below.
"""

import json
import math
import time

import numpy as np
import pytest

from planted import planted_polynomial
from wavedecay.trig import Direction, NonlinearityCoefficients, cubic_to_trig_poly
from wavedecay.structure import (
    ZeroCase,
    classify,
    predict_decay,
    verify_integrability,
)
from wavedecay.profile_ode import (
    EnvelopeForcing,
    MatsumuraParams,
    RayConfig,
    TabulatedForcing,
    ZeroForcing,
    check_matsumura_bound,
    integrate_profile,
    residual_forcing,
)
from wavedecay.wave import InitialData, RayTap, SolverConfig, run, stream
from wavedecay.cli import main as cli_main

# frozen regression bound for the relative linear-energy drift <= K h^2
# (calibrated on the smooth bump with support radius 2; drift/h^2 observed
# <= 0.107 for h in [0.025, 0.4])
K_CONSERVATION = 0.15


def _verdict(num: str, name: str, ok: bool) -> bool:
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}", flush=True)
    return ok


# ---------------------------------------------------------------------------
# criterion 1: golden structural values for the three model nonlinearities


def _golden_tensors():
    # symbol cos^2(theta):            F = -(d1 u)^2 (dt u)
    C1 = np.zeros((3, 3, 3))
    C1[1, 1, 0] = -1.0
    # symbol cos^2 (1 - sin):         F = -(d1 u)^2 (dt u) - (d1 u)^2 (d2 u)
    C2 = np.zeros((3, 3, 3))
    C2[1, 1, 0] = -1.0
    C2[1, 1, 2] = -1.0
    # symbol (1 - sin)^3:             F = -(dt u + d2 u)^3
    C3 = np.zeros((3, 3, 3))
    for j in (0, 2):
        for k in (0, 2):
            for l in (0, 2):
                C3[j, k, l] = -1.0
    return C1, C2, C3


def test_criterion_1_golden_reproduction():
    t0 = time.monotonic()
    C1, C2, C3 = _golden_tensors()
    expected = [
        ([(math.pi / 2, 2, 1.0), (3 * math.pi / 2, 2, 1.0)], 1),
        ([(math.pi / 2, 4, 0.5), (3 * math.pi / 2, 2, 2.0)], 2),
        ([(math.pi / 2, 6, 0.125)], 3),
    ]
    ok = True
    for C, (zeros_exp, nu_exp) in zip((C1, C2, C3), expected):
        psi = cubic_to_trig_poly(NonlinearityCoefficients(C=C))
        cl = classify(psi)
        got = sorted(cl.zeros, key=lambda z: z.theta)
        if len(got) != len(zeros_exp):
            ok = False
            continue
        for z, (theta, order, lead) in zip(got, sorted(zeros_exp)):
            ok &= abs(z.theta - theta) < 1e-9
            ok &= z.order == order
            ok &= abs(z.leading - lead) <= 1e-9 * lead
        pred = predict_decay(cl, delta=0.01)
        ok &= pred.nu == nu_exp
        ok &= abs(pred.lam - (1.0 / (4 * nu_exp) - 0.01)) < 1e-15
    elapsed = time.monotonic() - t0
    ok &= elapsed < 1.0
    assert _verdict("1", "golden structural reproduction", ok), f"elapsed={elapsed:.2f}s"


# ---------------------------------------------------------------------------
# criterion 2: trichotomy property suite on 200 planted polynomials


def test_criterion_2_planted_trichotomy():
    t0 = time.monotonic()
    rng = np.random.default_rng(20240817)
    ok = True
    for _ in range(200):
        poly, expected = planted_polynomial(rng, max_order=8)
        cl = classify(poly)
        if cl.case is not ZeroCase.FINITE_ZEROS:
            ok = False
            continue
        got = sorted(cl.zeros, key=lambda z: z.theta)
        exp = sorted(expected)
        if len(got) != len(exp):
            ok = False
            continue
        for z, (theta, order, _) in zip(got, exp):
            ok &= z.order == order          # exact even order, never odd
            ok &= z.order % 2 == 0
    elapsed = time.monotonic() - t0
    ok &= elapsed < 30.0
    assert _verdict("2", "planted-zero trichotomy", ok), f"elapsed={elapsed:.2f}s"


# ---------------------------------------------------------------------------
# criterion 3: quadrature convergence / divergence for the cos^2 symbol


def test_criterion_3_quadrature():
    t0 = time.monotonic()
    psi = cubic_to_trig_poly(NonlinearityCoefficients(C=_golden_tensors()[0]))
    ok = True
    for gamma in (0.1, 0.3, 0.45):
        rep = verify_integrability(psi, gamma)
        ests = rep.estimates
        ok &= rep.finite
        ok &= abs(ests[-1] - ests[-2]) < 1e-4 * abs(ests[-1])
    for gamma in (0.55, 0.7):
        rep = verify_integrability(psi, gamma)
        ok &= not rep.finite
        ests = rep.estimates[:6]
        ok &= all(b > 1.1 * a for a, b in zip(ests[:5], ests[1:]))
    elapsed = time.monotonic() - t0
    ok &= elapsed < 10.0
    assert _verdict("3", "singular quadrature trichotomy", ok), f"elapsed={elapsed:.2f}s"


# ---------------------------------------------------------------------------
# criterion 4: logarithmic decay lemma with the explicit constant


def test_criterion_4_log_decay_lemma():
    t0 = time.monotonic()
    rng = np.random.default_rng(63)
    ok = True
    for _ in range(50):
        params = MatsumuraParams(
            c0=float(rng.uniform(0.1, 5.0)),
            c1=float(rng.uniform(0.0, 2.0)),
            p=float(rng.uniform(1.2, 4.0)),
            q=float(rng.uniform(1.1, 3.0)),
            t0=float(rng.uniform(2.0, 10.0)),
            phi0=float(rng.uniform(0.01, 5.0)),
        )
        chk = check_matsumura_bound(params, t_end=1e6, slack=1e-7)
        ok &= chk.holds

    # closed form: c1 = 0, p = 2 gives Phi = phi0 / (1 + c0 phi0 log(t/t0))
    params = MatsumuraParams(c0=1.3, c1=0.0, p=2.0, q=1.5, t0=2.0, phi0=0.8)
    chk = check_matsumura_bound(params, t_end=1e6)
    exact = params.phi0 / (1.0 + params.c0 * params.phi0 * np.log(chk.times / params.t0))
    ok &= float(np.max(np.abs(chk.phi - exact) / exact)) < 1e-8

    elapsed = time.monotonic() - t0
    ok &= elapsed < 60.0
    assert _verdict("4", "logarithmic decay lemma", ok), f"elapsed={elapsed:.2f}s"


# ---------------------------------------------------------------------------
# criterion 5: profile decay (ODE-level stand-in for the PDE theorem)


def test_criterion_5_profile_decay():
    t0 = time.monotonic()
    rng = np.random.default_rng(5150)
    ray = RayConfig(sigma=0.0, omega=Direction(1.0, 0.0), eps=0.1, mu=0.05, t_end=1e8)
    ok = True
    for _ in range(20):
        P = float(rng.uniform(1.0, 10.0))
        v0 = math.sqrt(rng.uniform(1.5, 5.0) / P)
        series = integrate_profile(P, ray, ZeroForcing(), v0=v0)
        end_product = abs(series.V[-1]) * math.sqrt(P * math.log(series.times[-1]))
        ok &= abs(end_product - 1.0) < 0.02

        forced = integrate_profile(
            P, ray, EnvelopeForcing(amplitude=0.5, mu=0.05), v0=v0
        )
        prod = np.abs(forced.V) * np.sqrt(P * np.log(forced.times))
        sup_all = float(prod.max())
        sup_mid = float(prod[forced.times <= 1e6].max())
        ok &= np.isfinite(sup_all)
        ok &= sup_all <= 1.001 * sup_mid      # sup stabilizes before t = 1e6
    elapsed = time.monotonic() - t0
    ok &= elapsed < 60.0
    assert _verdict("5", "sqrt-log profile decay", ok), f"elapsed={elapsed:.2f}s"


# ---------------------------------------------------------------------------
# criterion 6: PDE structural checks on the 400^2 grid


@pytest.fixture(scope="module")
def damped_run_400():
    C = np.zeros((3, 3, 3))
    C[0, 0, 0] = -1.0   # F = -(dt u)^3
    cfg = SolverConfig(
        h=0.21, L=42.0, T=40.0,
        nonlinearity=NonlinearityCoefficients(C=C),
        checkpoint_interval=2.0,
    )
    # eps = 0.3: cubic dissipation (~eps^3 per unit time) dominates the
    # O(h^2) oscillation of the discrete energy functional
    data = InitialData(kind="smooth_bump", R=1.0, eps=0.3)
    # E and the leak of every checkpoint; the fields are not kept
    return [(c.E, c.leak) for c in stream(cfg, data)]


def test_criterion_6a_conservation_and_convergence():
    t0 = time.monotonic()
    data = InitialData(kind="smooth_bump", R=2.0, eps=0.1)
    drift = {}
    for h in (0.05, 0.025):
        cfg = SolverConfig(h=h, L=10.0, T=5.0, checkpoint_interval=1e-9)
        E = np.array([c.E for c in stream(cfg, data)])
        drift[h] = float(np.abs(E - E[0]).max() / E[0])
    ok = all(drift[h] <= K_CONSERVATION * h ** 2 for h in drift)
    ratio = drift[0.05] / drift[0.025]
    ok &= 3.5 <= ratio <= 4.5
    elapsed = time.monotonic() - t0
    assert _verdict("6a", "linear conservation, order-2 convergence", ok), (
        f"drift={drift} ratio={ratio:.3f} elapsed={elapsed:.1f}s"
    )


def test_criterion_6b_damping_monotone(damped_run_400):
    dE = np.diff([E for E, _ in damped_run_400])
    ok = bool(np.all(dE <= 1e-6))
    assert _verdict("6b", "dissipative energy monotone", ok), f"max dE={dE.max():.3e}"


def test_criterion_6c_finite_propagation(damped_run_400):
    leak = max(leak for _, leak in damped_run_400)
    ok = leak < 1e-10
    assert _verdict("6c", "finite propagation outside slack cone", ok), (
        f"max |u| beyond the slack cone = {leak:.3e} (dispersive front width "
        f"~ (t h^2)^(1/3) exceeds the 4h slack at this resolution)"
    )


# ---------------------------------------------------------------------------
# criterion 7: PDE-to-ODE reduction cross-validation


def test_criterion_7_reduction_cross_validation():
    t0 = time.monotonic()
    C = np.zeros((3, 3, 3))
    C[1, 1, 0] = -1.0       # symbol cos^2; P = 1 in the (1, 0) direction
    coeffs = NonlinearityCoefficients(C=C)
    # support radius 4 keeps the data's spectral content resolved on both
    # grids, so the extraction error decreases under refinement
    data = InitialData(kind="smooth_bump", R=4.0, eps=0.1)
    omega = Direction(1.0, 0.0)

    env_constants = {}
    reint_errors = {}
    for h in (0.25, 0.125):
        cfg = SolverConfig(h=h, L=26.0, T=20.0, nonlinearity=coeffs)
        res = run(cfg, data, rays=[RayTap(sigma=0.0, omega=omega)])
        series = res.profiles[0]
        rep = residual_forcing(series, 1.0, eps=data.eps, mu=0.05)
        env_constants[h] = rep.envelope_constant

        forcing = TabulatedForcing(times=rep.times, values=rep.H)
        ray = RayConfig(
            sigma=0.0, omega=omega, eps=data.eps, mu=0.05,
            t_end=float(series.times[-1]), support_radius=data.R,
        )
        v0 = float(np.interp(ray.t_start, series.times, series.V))
        replay = integrate_profile(1.0, ray, forcing, v0=v0)
        v_ext = np.interp(replay.times, series.times, series.V)
        reint_errors[h] = float(
            np.max(np.abs(replay.V - v_ext)) / np.max(np.abs(v_ext))
        )

    # the 2% reproduction is required of the configuration's extraction;
    # the coarse grid serves only as the refinement baseline for the
    # envelope constant
    ok = reint_errors[0.125] < 0.02
    ok &= env_constants[0.125] < env_constants[0.25]
    elapsed = time.monotonic() - t0
    assert _verdict("7", "reduction cross-validation", ok), (
        f"reintegration errors={reint_errors} envelope constants="
        f"{env_constants} elapsed={elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# criterion 8: byte-identical outputs under repetition


def test_criterion_8_determinism(tmp_path):
    sim_cfg = {
        "C": [0.0] * 12 + [-1.0] + [0.0] * 14,
        "data": {"kind": "smooth_bump", "R": 1.0, "eps": 0.1},
        "grid": {"h": 0.25, "T": 4.0, "L": 7.0},
        "rays": [{"sigma": 0.0, "omega": [1.0, 0.0]}],
        "ray": {
            "sigma": 0.0, "omega": [1.0, 0.0], "eps": 0.1, "mu": 0.05,
            "t_end": 1e5, "v0": 0.4,
        },
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(sim_cfg))

    sim_bodies, prof_bodies = [], []
    for tag in ("a", "b"):
        out = tmp_path / f"sim_{tag}"
        assert cli_main(["simulate", str(cfg_path), "--out", str(out)]) == 0
        sim_bodies.append(
            (out / "energy.csv").read_bytes()
            + (out / "profile_ray0.csv").read_bytes()
        )
        out = tmp_path / f"prof_{tag}"
        assert cli_main(["profile", str(cfg_path), "--out", str(out)]) == 0
        prof_bodies.append((out / "profile.csv").read_bytes())

    ok = sim_bodies[0] == sim_bodies[1] and prof_bodies[0] == prof_bodies[1]
    assert _verdict("8", "byte-identical repeated runs", ok)
