"""The four benchmark workloads: inputs, one operation, and its check.

Each workload builds its inputs in ``__init__`` (this is the measured
set-up), runs one operation in ``run(i)`` (this is timed) and checks the
result in ``check(i, result)`` (not timed).  ``check`` returns the units
of work the operation completed, raises ``Failed`` when the program
reported an error, and ``Wrong`` when it returned a wrong result.  Any
exception escaping ``run`` is a failed operation too.

Why each workload exists, and which layer it stresses or bypasses, is in
README.md next to this file.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import shutil
import tracemalloc
from pathlib import Path

import numpy as np

from wavedecay import cli, profile_ode, structure, wave
from wavedecay.trig import (
    Direction,
    NonlinearityCoefficients,
    TrigPolynomial,
    eval_cubic_symbol,
)

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
REFS = Path(__file__).resolve().parent / "refs"
TWO_PI = 2.0 * math.pi


class Failed(Exception):
    """The program reported an error instead of a result."""


class Wrong(Exception):
    """The program returned a result that fails its check."""


def cubic(**entries) -> NonlinearityCoefficients:
    """C tensor with the given entries, e.g. cubic(c000=-1.0)."""
    C = np.zeros((3, 3, 3))
    for key, value in entries.items():
        C[tuple(int(ch) for ch in key[1:])] = value
    return NonlinearityCoefficients(C=C)


def _read_csv(path: Path) -> dict[str, np.ndarray]:
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    return {k: np.array([float(r[k]) for r in rows]) for k in rows[0]}


def _alloc_peak_per_step(solver, steps: int = 3) -> int:
    """Largest tracemalloc peak above the live set during one advance()."""
    solver.advance()                      # leave the first-step state behind
    peaks = []
    tracemalloc.start()
    try:
        for _ in range(steps):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            solver.advance()
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    return max(peaks)


class Workload:
    name = ""
    goodput_unit = ""      # what check() counts as one unit of work
    cells = 0              # grid points per field, PDE workloads only
    pass_ops = 1           # operations in one pass over the inputs

    def __init__(self, seed: int):
        self.facts: dict[str, float] = {}

    def warm_up(self) -> None:
        raise NotImplementedError

    def run(self, i: int):
        raise NotImplementedError

    def check(self, i: int, result) -> float:
        raise NotImplementedError

    def alloc_peak_per_step(self) -> int:
        return 0


# ---------------------------------------------------------------------------
# pde-damped: `simulate` through cli.main on the acceptance 6b/6c fixture


DAMPED_CONFIG = {
    "C": cubic(c000=-1.0).C.ravel().tolist(),        # F = -(u_t)^3
    "data": {"kind": "smooth_bump", "R": 1.0, "eps": 0.3},
    "grid": {"h": 0.21, "L": 42.0, "T": 40.0, "checkpoint_interval": 2.0},
    "rays": [{"sigma": 0.0, "omega": [1.0, 0.0]}],
}
# tolerance against the committed reference: loose enough for a kernel
# that reorders the same floating-point operations, tight enough to catch
# a changed scheme (iterating the fixed point to convergence instead of
# two sweeps moves a step by up to 3.6e-5 relative)
REF_RTOL = 1e-7


def damped_solver_config() -> tuple[wave.SolverConfig, wave.InitialData]:
    g, d = DAMPED_CONFIG["grid"], DAMPED_CONFIG["data"]
    cfg = wave.SolverConfig(
        h=g["h"], L=g["L"], T=g["T"], nonlinearity=cubic(c000=-1.0),
        checkpoint_interval=g["checkpoint_interval"],
    )
    return cfg, wave.InitialData(kind=d["kind"], R=d["R"], eps=d["eps"])


def simulate(config: dict, outdir: Path) -> int:
    """Run `wavedecay simulate` in-process, its stdout swallowed."""
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "config.json"
    path.write_text(json.dumps(config))
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(["simulate", str(path), "--out", str(outdir)])


class PdeDamped(Workload):
    name = "pde-damped"
    goodput_unit = "cell updates"

    def __init__(self, seed: int):
        super().__init__(seed)
        # the fixture is fixed by acceptance 6b/6c: the seed does not enter
        cfg, data = damped_solver_config()
        self.cells = cfg.n ** 2
        self.steps = int(round(cfg.T / cfg.dt))
        wave.LeapfrogSolver(cfg, data)     # solver build, as simulate does it
        with open(REFS / "pde_damped.json") as fh:
            self.ref = {k: np.array(v) for k, v in json.load(fh).items()}
        self.out = WORK / f"simulate-{os.getpid()}"

    def warm_up(self) -> None:
        short = json.loads(json.dumps(DAMPED_CONFIG))
        short["grid"]["T"] = 4.0
        simulate(short, self.out)
        shutil.rmtree(self.out)

    def run(self, i: int):
        return simulate(DAMPED_CONFIG, self.out)

    def check(self, i: int, result) -> float:
        try:
            if result != 0:
                raise Failed(f"simulate exited with {result}")
            energy = _read_csv(self.out / "energy.csv")
            ray = _read_csv(self.out / "profile_ray0.csv")
            ckpts = sorted(self.out.glob("checkpoint_*"))
            self.facts["checkpoint_bytes"] = (
                sum(p.stat().st_size for p in ckpts) / max(1, len(ckpts) // 2)
            )
        finally:
            shutil.rmtree(self.out, ignore_errors=True)
        if np.any(np.diff(energy["E"]) > 1e-6):
            raise Wrong("energy of the damped run increased (acceptance 6b)")
        for label, got_t, got, ref_t, ref in (
            ("energy", energy["t"], energy["E"], self.ref["energy_t"], self.ref["energy_E"]),
            ("ray profile", ray["t"], ray["V"], self.ref["ray_t"], self.ref["ray_V"]),
        ):
            if got.shape != ref.shape or np.max(np.abs(got_t - ref_t)) > 1e-9:
                raise Wrong(f"{label} sampled at other times than the reference")
            if np.max(np.abs(got - ref)) > REF_RTOL * np.max(np.abs(ref)):
                raise Wrong(f"{label} departs from the reference")
        return float(self.cells * self.steps)

    def alloc_peak_per_step(self) -> int:
        return _alloc_peak_per_step(wave.LeapfrogSolver(*damped_solver_config()))


# ---------------------------------------------------------------------------
# pde-linear-dense: linear wave.run with a checkpoint at every step


K_CONSERVATION = 0.15      # acceptance 6a: relative drift <= K h^2


class PdeLinearDense(Workload):
    name = "pde-linear-dense"
    goodput_unit = "cell updates"

    def __init__(self, seed: int):
        super().__init__(seed)
        # the config of acceptance 6a at h = 0.05: the seed does not enter
        self.data = wave.InitialData(kind="smooth_bump", R=2.0, eps=0.1)
        self.cfg = wave.SolverConfig(h=0.05, L=10.0, T=5.0, checkpoint_interval=1e-9)
        self.cells = self.cfg.n ** 2
        self.steps = int(round(self.cfg.T / self.cfg.dt))
        wave.LeapfrogSolver(self.cfg, self.data)

    def warm_up(self) -> None:
        wave.run(
            wave.SolverConfig(h=self.cfg.h, L=self.cfg.L, T=0.5, checkpoint_interval=1e-9),
            self.data,
        )

    def run(self, i: int):
        return wave.run(self.cfg, self.data)

    def check(self, i: int, result) -> float:
        E = result.energy.E
        drift = float(np.abs(E - E[0]).max() / E[0])
        if not drift <= K_CONSERVATION * self.cfg.h ** 2:
            raise Wrong(f"linear energy drift {drift:.3e} exceeds K h^2")
        if len(result.checkpoints) != self.steps + 1:
            raise Wrong("not every step was checkpointed")
        return float(self.cells * self.steps)

    def alloc_peak_per_step(self) -> int:
        return _alloc_peak_per_step(wave.LeapfrogSolver(self.cfg, self.data))


# ---------------------------------------------------------------------------
# symbol-survey: classify planted-zero symbols, then the integrability check


SURVEY_GENERATOR_SEED = 20240817      # the batch of acceptance criterion 2


def planted_factor(theta0: float) -> TrigPolynomial:
    """(1 - cos(theta - theta0)) / 2 in the monomial basis."""
    return TrigPolynomial(
        ((0, 0, 0.5), (1, 0, -0.5 * math.cos(theta0)), (0, 1, -0.5 * math.sin(theta0)))
    )


def planted_polynomial(rng: np.random.Generator, max_order: int = 8):
    """Product of planted factors with known zeros, orders and leading
    coefficients; the same draws, in the same order, as the test suite's
    generator, so one generator seed gives the same symbols in both."""
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
                lead *= ((1.0 - math.cos(angles[j] - angles[i])) / 2.0) ** (orders[i] // 2)
        expected.append((float(angles[j]), int(orders[j]), float(lead)))
    return poly, expected


def _circ_dist(a: float, b: float) -> float:
    d = abs(a - b) % TWO_PI
    return min(d, TWO_PI - d)


class SymbolSurvey(Workload):
    name = "symbol-survey"
    goodput_unit = "symbols"
    # the first 13 symbols of the batch, ~4 s a pass: 1-3 zeros, orders
    # 2-8; five of them pass and eight hit the KeyError below
    pass_ops = 13

    def __init__(self, seed: int):
        super().__init__(seed)
        # A fixed batch, not drawn from the seed: symbols cost 0.01-3.6 s
        # each, and batches drawn per seed moved goodput by 12% and p90 by
        # 26% between seeds (see README.md).
        rng = np.random.default_rng(SURVEY_GENERATOR_SEED)
        self.symbols = [planted_polynomial(rng) for _ in range(self.pass_ops)]

    def warm_up(self) -> None:
        psi = TrigPolynomial(((2, 0, 1.0),))                 # cos^2
        structure.verify_integrability(psi, 0.45, structure.classify(psi))

    def run(self, i: int):
        poly, expected = self.symbols[i]
        nu = max(order for _, order, _ in expected) // 2
        cl = structure.classify(poly)
        rep = structure.verify_integrability(poly, 0.9 / (2 * nu), classification=cl)
        return cl, rep

    def check(self, i: int, result) -> float:
        cl, rep = result
        _, expected = self.symbols[i]
        if len(cl.zeros) != len(expected):
            raise Wrong(f"{len(cl.zeros)} zeros found, {len(expected)} planted")
        for theta, order, lead in expected:
            z = min(cl.zeros, key=lambda z: _circ_dist(z.theta, theta))
            if _circ_dist(z.theta, theta) > 1e-7 or z.order != order:
                raise Wrong(f"zero at {theta:.6f} of order {order} not recovered")
            if abs(z.leading - lead) > 1e-6 * lead:
                raise Wrong(f"leading coefficient at {theta:.6f} is {z.leading}, not {lead}")
        if not rep.finite or rep.value is None:
            raise Wrong("integrability estimates did not stabilise below gamma_max")
        return 1.0


# ---------------------------------------------------------------------------
# ray-ensemble: profile ODE over a grid of directions, plus Matsumura cases


RAY_DIRECTIONS = 96         # divisible by 4, see RayEnsemble.__init__
RAY_T_END = 1e8
MATSUMURA_CASES = 30
ENSEMBLE_SYMBOLS = (
    cubic(c110=-1.0),        # P(omega) = cos^2(theta)
    cubic(c000=-1.0),        # P(omega) = 1
)


class RayEnsemble(Workload):
    name = "ray-ensemble"
    goodput_unit = "integrations"

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = np.random.default_rng(seed)
        # With 4 | K and an offset u in [0.05, 0.95], no direction lies
        # within 2*pi*0.05/K of a zero of cos^2, so P >= 1e-5 and the
        # starting amplitude sqrt(kappa/P) stays far below the guard.
        u = rng.uniform(0.05, 0.95)
        thetas = TWO_PI * (np.arange(RAY_DIRECTIONS) + u) / RAY_DIRECTIONS
        ops = []
        for coeffs in ENSEMBLE_SYMBOLS:
            for theta in thetas:
                sigma = float(rng.uniform(-1.0, 1.0))
                kappa = float(rng.uniform(1.5, 5.0))      # P v0^2, as in criterion 5
                ray = profile_ode.RayConfig(
                    sigma=sigma, omega=Direction.from_angle(float(theta)),
                    eps=0.1, mu=0.05, t_end=RAY_T_END,
                )
                ops.append(("unforced", coeffs, ray, kappa))
                ops.append(("forced", coeffs, ray, kappa))
        for _ in range(MATSUMURA_CASES):                  # as in criterion 4
            ops.append(("matsumura", profile_ode.MatsumuraParams(
                c0=float(rng.uniform(0.1, 5.0)), c1=float(rng.uniform(0.0, 2.0)),
                p=float(rng.uniform(1.2, 4.0)), q=float(rng.uniform(1.1, 3.0)),
                t0=float(rng.uniform(2.0, 10.0)), phi0=float(rng.uniform(0.01, 5.0)),
            )))
        self.ops = ops
        self.pass_ops = len(ops)

    def warm_up(self) -> None:
        ray = profile_ode.RayConfig(sigma=0.0, omega=Direction(1.0, 0.0), t_end=1e4)
        profile_ode.integrate_profile(1.0, ray, profile_ode.ZeroForcing(), v0=1.0)

    def run(self, i: int):
        op = self.ops[i]
        if op[0] == "matsumura":
            return profile_ode.check_matsumura_bound(op[1], t_end=1e6, slack=1e-7)
        kind, coeffs, ray, kappa = op
        P = eval_cubic_symbol(coeffs, ray.omega)
        forcing = (
            profile_ode.ZeroForcing() if kind == "unforced"
            else profile_ode.EnvelopeForcing(amplitude=0.5, mu=ray.mu, sigma=ray.sigma)
        )
        return P, profile_ode.integrate_profile(P, ray, forcing, v0=math.sqrt(kappa / P))

    def check(self, i: int, result) -> float:
        op = self.ops[i]
        if op[0] == "matsumura":
            if not result.holds:
                raise Wrong(f"Matsumura bound violated (ratio {result.max_ratio:.6g})")
            return 1.0
        P, series = result
        t, V = series.times, series.V
        if op[0] == "unforced":
            v0 = math.sqrt(op[3] / P)
            exact = v0 / np.sqrt(1.0 + P * v0 ** 2 * np.log(t / t[0]))
            err = float(np.max(np.abs(V - exact) / np.abs(exact)))
            if not err <= 1e-8:
                raise Wrong(f"unforced profile off the closed form by {err:.2e}")
        else:
            prod = np.abs(V) * np.sqrt(P * np.log(t))
            sup_all = float(prod.max())
            sup_mid = float(prod[t <= 1e6].max())
            if not (math.isfinite(sup_all) and sup_all <= 1.001 * sup_mid):
                raise Wrong("forced sup |V| sqrt(P log t) did not stabilise by t = 1e6")
        return 1.0


WORKLOADS = {w.name: w for w in (PdeDamped, PdeLinearDense, SymbolSurvey, RayEnsemble)}
