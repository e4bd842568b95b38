"""Command-line front end: reproducible analysis/ODE/PDE pipelines.

Commands
    analyze   structural report of a nonlinearity (null/sign conditions,
              zero classification, decay prediction)
    profile   integrate a ray profile ODE and its logarithmic decay bound
    simulate  run the 2D leapfrog solver; energy series, checkpoints,
              streamed ray profiles
    verify    run a module invariant suite (algebra/structure/ode/pde-smoke/all)
    report    render the energy-vs-bound overlay of a simulate run as SVG

analyze, profile and simulate read a single JSON config (sections "B",
"C", "data", "grid", "ray", "prediction") and write a manifest.json
echoing the full configuration, the tool version, wall-clock, per-phase
timings, the list of files written, and a pass/fail summary -- even when
the command fails, with the error class recorded.  CSV bodies are
deterministic (no timestamps).  simulate writes each checkpoint as the
solver makes it, so its memory does not grow with their number.

Exit codes: 0 ok; 2 domain-level condition failure (sign condition fails,
non-dissipative direction); 3 numerical failure (PDE or profile blow-up,
or a profile integration that stalls); 64 usage or malformed config (a
non-finite ray.v0 included).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .trig import (
    Direction,
    InvalidDirectionError,
    NonlinearityCoefficients,
    eval_cubic_symbol,
)
from .structure import AgemiStatus, analyze
from .profile_ode import (
    EnvelopeForcing,
    MatsumuraParams,
    ProfileBlowUp,
    ProfileSeries,
    RayConfig,
    StepUnderflow,
    ZeroForcing,
    check_matsumura_bound,
    check_profile_bound,
    check_sqrtlog_decay,
    integrate_profile,
)
from .wave import (
    BlowUpError,
    InitialData,
    RayTap,
    SolverConfig,
    run,
    slack_cone,
    stream,
)

EXIT_OK = 0
EXIT_CONDITION = 2
EXIT_NUMERICAL = 3
EXIT_USAGE = 64


class ConfigError(ValueError):
    """Malformed or missing configuration."""


class SignConditionViolated(Exception):
    """P(omega) < 0: the profile ODE is anti-dissipative in this direction."""


# ---------------------------------------------------------------------------
# config plumbing


def _load_config(path: str) -> dict:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(p) as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be an object")
    return cfg


def _apply_overrides(cfg: dict, sets) -> dict:
    """Apply repeatable --set path=value flags on top of the file config.

    The path is dotted (e.g. grid.h or prediction.delta); the value is
    parsed as JSON where possible, otherwise taken as a literal string.
    Overrides land before the manifest echo, so the echoed configuration
    is always the one that ran.
    """
    for item in sets or []:
        path, sep, raw = item.partition("=")
        keys = path.strip().split(".")
        if not sep or not all(keys):
            raise ConfigError(f"override must look like section.key=value: {item!r}")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = cfg
        for k in keys[:-1]:
            node = node.setdefault(k, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override path {path!r} crosses a non-object")
        node[keys[-1]] = value
    return cfg


def _has_non_number(value) -> bool:
    """value, or an entry of a nested list, is JSON true/false or a string:
    float() would take either for a number."""
    return (isinstance(value, (bool, str))
            or isinstance(value, list) and any(map(_has_non_number, value)))


def _coeffs_from_config(cfg: dict) -> NonlinearityCoefficients:
    try:
        if _has_non_number(cfg.get("B")) or _has_non_number(cfg.get("C")):
            raise TypeError("an entry is true/false or a string, not a number")
        return NonlinearityCoefficients.from_dict(cfg)
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"bad coefficient tensors: {exc}") from exc


def _number(value, key: str) -> float:
    """float(value) for the config entry `key`, or ConfigError."""
    try:
        if isinstance(value, (bool, str)):
            raise TypeError(f"{value!r}: true/false and strings are not numbers")
        return float(value)
    except (ValueError, TypeError, OverflowError) as exc:   # ints beyond ~1.8e308
        raise ConfigError(f"{key} must be a number: {exc}") from exc


def _section(cfg: dict, name: str) -> dict:
    sec = cfg.get(name, {})
    if not isinstance(sec, dict):
        raise ConfigError(f"section {name!r} must be an object")
    return sec


def _numbers(sec: dict, name: str, *keys: str) -> dict:
    """{key: number} for those `keys` that section `name` sets (no defaults)."""
    return {k: _number(sec[k], f"{name}.{k}") for k in keys if k in sec}


def _given(sec: dict, *keys: str) -> dict:
    """{key: value} for those `keys` that `sec` sets (no defaults)."""
    return {k: sec[k] for k in keys if k in sec}


def _prediction(cfg: dict) -> dict:
    return _numbers(_section(cfg, "prediction"), "prediction", "delta")


def _direction_from_ray(ray: dict) -> Direction:
    try:
        if "omega_angle" in ray:
            return Direction.from_angle(_number(ray["omega_angle"], "ray.omega_angle"))
        if "omega" in ray:
            w = ray["omega"]
            if not (isinstance(w, list) and len(w) == 2):
                raise ConfigError("ray.omega must be a list of two numbers")
            return Direction(*(_number(c, "ray.omega") for c in w))
    except ValueError as exc:                  # InvalidDirectionError and ConfigError too
        raise ConfigError(f"bad ray direction: {exc}") from exc
    raise ConfigError("ray section needs 'omega' or 'omega_angle'")


def _forcing_from_ray(ray: dict, mu: float, sigma: float):
    spec = ray.get("forcing", {"type": "zero"})
    if not isinstance(spec, dict):
        raise ConfigError("ray.forcing must be an object")
    kind = spec.get("type", "zero")
    if kind == "zero":
        return ZeroForcing()
    if kind == "envelope":
        try:
            return EnvelopeForcing(
                amplitude=_number(spec.get("amplitude", 1.0), "ray.forcing.amplitude"),
                mu=_number(spec.get("mu", mu), "ray.forcing.mu"),
                sigma=_number(spec.get("sigma", sigma), "ray.forcing.sigma"),
                **_given(spec, "sign_mode"),
            )
        except ValueError as exc:
            raise ConfigError(f"bad envelope forcing: {exc}") from exc
    raise ConfigError(f"unknown forcing type {kind!r}")


def _write_json(path: Path, body) -> Path:
    with open(path, "w") as fh:
        json.dump(body, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


class _Manifest:
    """Collects outputs/checks/timings; lands on disk wherever its directory
    exists.  A file is added once it is written, so after a failure the
    outputs name exactly the files the command left."""

    def __init__(self, command: str, outdir: Path, config: dict):
        self.command = command
        self.outdir = outdir
        self.config = config
        self.outputs: list[str] = []
        self.checks: dict[str, bool] = {}
        self.error: str | None = None
        self.timings: dict[str, float] = {}
        self._t0 = time.monotonic()

    def add(self, path: Path) -> None:
        self.outputs.append(path.name)

    def write(self) -> None:
        _write_json(self.outdir / "manifest.json", {
            "command": self.command,
            "config": self.config,
            "version": __version__,
            "wall_clock_s": time.monotonic() - self._t0,
            "outputs": self.outputs,
            "checks": self.checks,
            "timings": self.timings,
            "error": self.error,
        })


# exit code for each exception class a command may raise; main maps an
# error to the code of its nearest listed class, and any other propagates
_EXIT_CODES = {
    BlowUpError: EXIT_NUMERICAL,
    ProfileBlowUp: EXIT_NUMERICAL,
    StepUnderflow: EXIT_NUMERICAL,
    SignConditionViolated: EXIT_CONDITION,
    ValueError: EXIT_USAGE,        # includes ConfigError
    TypeError: EXIT_USAGE,
    OSError: EXIT_USAGE,           # an output path that cannot be written
    MemoryError: EXIT_USAGE,       # a grid too large for memory
}


def _run_command(name: str, body, args) -> int:
    """Make the output directory, load the config (with --set overrides) and
    run `body`; an error is recorded in the manifest and re-raised.  The
    manifest is written wherever the directory exists."""
    manifest = _Manifest(name, Path(args.out), {"config_path": args.config})
    try:
        manifest.outdir.mkdir(parents=True, exist_ok=True)
        manifest.config = _apply_overrides(_load_config(args.config), args.set)
        return body(manifest.config, manifest)
    except Exception as exc:
        manifest.error = f"{type(exc).__name__}: {exc}"
        raise
    finally:
        if manifest.outdir.is_dir():
            manifest.write()


# ---------------------------------------------------------------------------
# analyze


def _analyze(config: dict, manifest: _Manifest) -> int:
    coeffs = _coeffs_from_config(config)
    report = analyze(coeffs, **_prediction(config))
    manifest.add(_write_json(manifest.outdir / "report.json", report.to_dict()))
    agemi_ok = report.agemi.status is not AgemiStatus.FAILS
    manifest.checks["sign_condition"] = agemi_ok
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    return EXIT_OK if agemi_ok else EXIT_CONDITION


# ---------------------------------------------------------------------------
# profile


DEGENERATE_P_TOL = 1e-12


def _profile(config: dict, manifest: _Manifest) -> int:
    coeffs = _coeffs_from_config(config)
    ray_sec = _section(config, "ray")
    omega = _direction_from_ray(ray_sec)
    ray = RayConfig(omega=omega, **{"sigma": 0.0, **_numbers(
        ray_sec, "ray", "sigma", "eps", "mu", "t_end", "support_radius"
    )})
    forcing = _forcing_from_ray(ray_sec, ray.mu, ray.sigma)
    v0 = ray_sec.get("v0")
    v0 = None if v0 is None else _number(v0, "ray.v0")

    P_val = eval_cubic_symbol(coeffs, omega)
    scale = max(1.0, float(np.abs(coeffs.C).max()))
    if P_val < -DEGENERATE_P_TOL * scale:
        manifest.checks["dissipative_direction"] = False
        raise SignConditionViolated(
            f"P(omega) = {P_val:.6g} < 0; the profile ODE is "
            "anti-dissipative in this direction"
        )
    degenerate = abs(P_val) <= DEGENERATE_P_TOL * scale
    if degenerate:
        P_val = 0.0

    series = integrate_profile(P_val, ray, forcing, v0=v0)

    bound_report: dict = {
        "P": P_val,
        "degenerate_direction": degenerate,
        "sigma": ray.sigma,
        "t_start": ray.t_start,
        "t_end": ray.t_end,
    }
    bound_col = None
    if not degenerate:
        params, chk = check_profile_bound(series, ray)
        bound_col = chk.bound
        bound_report.update({
            "matsumura": {**dataclasses.asdict(params), "C2": chk.c2},
            "bound_holds": chk.holds,
            "sqrtlog_constant": check_sqrtlog_decay(series, P_val),
        })
        manifest.checks["matsumura_bound"] = chk.holds
    manifest.checks["dissipative_direction"] = True

    manifest.add(_write_csv(manifest.outdir / "profile.csv",
                            {**_profile_columns(series), "bound": bound_col}))
    manifest.add(_write_json(manifest.outdir / "bound_report.json", bound_report))
    print(json.dumps(bound_report, indent=2, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate


def _write_checkpoint(outdir: Path, idx: int, ckpt, u: np.ndarray, u_t: np.ndarray,
                      cfg: SolverConfig, data) -> list[Path]:
    base = f"checkpoint_{idx:04d}"
    bin_path = outdir / f"{base}.bin"
    hdr_path = outdir / f"{base}.json"
    with open(bin_path, "wb") as fh:
        # written through the buffer protocol: no bytes copy of the level
        fh.write(np.ascontiguousarray(u, dtype="<f8"))
        fh.write(np.ascontiguousarray(u_t, dtype="<f8"))
    header = {
        "t": ckpt.t, "h": cfg.h_eff, "L": cfg.L, "R": data.R, "eps": data.eps,
        "n": u.shape[0], "dtype": "<f8", "layout": "u then u_t, row-major",
    }
    _write_json(hdr_path, header)
    return [bin_path, hdr_path]


def _simulate(config: dict, manifest: _Manifest) -> int:
    coeffs = _coeffs_from_config(config)
    grid = _section(config, "grid")
    if "h" not in grid or "T" not in grid:
        raise ConfigError("grid section must provide at least h and T")
    data_sec = _section(config, "data")
    data_kw = {**_given(data_sec, "kind"), **_numbers(data_sec, "data", "R", "eps")}
    if "center" in data_sec:
        if not isinstance(data_sec["center"], list):
            raise ConfigError("data.center must be a list of two numbers")
        data_kw["center"] = tuple(_number(c, "data.center") for c in data_sec["center"])
    data = InitialData(**data_kw)
    g = _numbers(grid, "grid", "h", "T", "cfl", "checkpoint_interval")
    # round(2L/h) cells make h_eff exceed h by at most h^2/(4L - h); past the
    # cone, a margin of max(1, h/4) covers four times that
    L = grid.get("L", slack_cone(g["T"], data.reach, g["h"]) + max(1.0, g["h"] / 4.0))
    cfg = SolverConfig(L=_number(L, "grid.L"), nonlinearity=coeffs, **g)
    rays = []
    for rspec in config.get("rays", []):
        if not isinstance(rspec, dict):
            raise ConfigError("each entry of 'rays' must be an object")
        tap = {"sigma": 0.0, **_numbers(rspec, "rays", "sigma", "stride")}
        if "stride" in tap:
            if not tap["stride"].is_integer():      # also false for inf and nan
                raise ConfigError(f"rays.stride must be an integer: {rspec['stride']!r}")
            tap["stride"] = int(tap["stride"])
        rays.append(RayTap(omega=_direction_from_ray(rspec), **tap))
    timings = manifest.timings
    t0 = time.perf_counter()
    report = analyze(coeffs, **_prediction(config))
    timings["analyze_s"] = time.perf_counter() - t0
    timings["checkpoint_write_s"] = 0.0
    outdir = manifest.outdir

    def write(idx: int, ckpt, u: np.ndarray, u_t: np.ndarray) -> None:
        t0 = time.perf_counter()
        for p in _write_checkpoint(outdir, idx, ckpt, u, u_t, cfg, data):
            manifest.add(p)
        timings["checkpoint_write_s"] += time.perf_counter() - t0

    # each checkpoint goes to disk as it is made
    t0 = time.perf_counter()
    result = run(cfg, data, rays=rays, write=write)
    timings["solver_s"] = time.perf_counter() - t0 - timings["checkpoint_write_s"]
    timings["cell_updates_per_s"] = cfg.n ** 2 * cfg.steps / timings["solver_s"]

    # decay-bound overlay E_bound(t) = C eps / (1 + eps^2 log(t+2))^lam,
    # with C fitted as the smallest constant making the bound an envelope
    bound = None
    fitted_C = None
    if report.prediction is not None and data.eps > 0:
        lam = report.prediction.lam
        weights = (1.0 + data.eps ** 2 * np.log(result.energy.times + 2.0)) ** lam
        fitted_C = float(np.max(result.energy.E * weights) / data.eps)
        bound = fitted_C * data.eps / weights
    manifest.add(_write_csv(outdir / "energy.csv",
                            {"t": result.energy.times, "E": result.energy.E, "E_bound": bound}))
    for i, series in result.profiles.items():
        manifest.add(_write_csv(outdir / f"profile_ray{i}.csv", _profile_columns(series)))

    diag = {
        **result.diagnostics,
        "fitted_energy_constant": fitted_C,
        "lambda": report.prediction.lam if report.prediction else None,
    }
    manifest.add(_write_json(outdir / "diagnostics.json", diag))
    print(json.dumps(diag, indent=2, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def _suite_algebra() -> list[tuple[str, bool]]:
    from .trig import TrigPolynomial, cubic_to_trig_poly

    rng = np.random.default_rng(7)
    checks = []
    ok = True
    for _ in range(20):
        th = rng.uniform(0, 2 * math.pi, size=16)
        f, g = ([(int(rng.integers(0, 4)), int(rng.integers(0, 4)), float(rng.normal()))
                 for _ in range(5)] for _ in range(2))
        # against the monomial sums, evaluated directly
        fv, gv = (sum(c * np.cos(th) ** p1 * np.sin(th) ** p2 for p1, p2, c in t) for t in (f, g))
        f, g = TrigPolynomial(f), TrigPolynomial(g)
        for got, want in (((f + g)(th), fv + gv), ((f * g)(th), fv * gv)):
            ok = ok and np.allclose(got, want, atol=1e-10, rtol=1e-10)
    checks.append(("sums and products of random polynomials evaluate pointwise", ok))

    ok = True
    for _ in range(20):
        C = rng.normal(size=(3, 3, 3))
        coeffs = NonlinearityCoefficients(C=C)
        psi = cubic_to_trig_poly(coeffs)
        for th in rng.uniform(0, 2 * math.pi, size=4):
            d = Direction.from_angle(float(th))
            if abs(psi(float(th)) - eval_cubic_symbol(coeffs, d)) > 1e-10 * (
                1 + abs(psi(float(th)))
            ):
                ok = False
    checks.append(("restricted cubic symbol matches direct evaluation", ok))

    ok = True
    try:
        Direction(0.5, 0.5)
        ok = False
    except InvalidDirectionError:
        pass
    checks.append(("off-circle directions rejected", ok))
    return checks


def _suite_structure() -> list[tuple[str, bool]]:
    from .trig import TrigPolynomial
    from .structure import ZeroCase, classify, verify_integrability

    checks = []
    c2 = TrigPolynomial(((2, 0, 1.0),))
    cl = classify(c2)
    golden = (
        cl.case is ZeroCase.FINITE_ZEROS
        and sorted((z.order, round(z.leading, 9)) for z in cl.zeros)
        == [(2, 1.0), (2, 1.0)]
    )
    checks.append(("two double zeros of the squared-cosine symbol", golden))

    one = TrigPolynomial.constant(1.0)
    s = TrigPolynomial(((0, 1, 1.0),))
    p3 = (one - s) * (one - s) * (one - s)
    cl3 = classify(p3)
    checks.append(
        (
            "single order-6 zero with leading 1/8",
            cl3.case is ZeroCase.FINITE_ZEROS
            and len(cl3.zeros) == 1
            and cl3.zeros[0].order == 6
            and abs(cl3.zeros[0].leading - 0.125) < 1e-9,
        )
    )

    rep = verify_integrability(c2, 0.3)
    checks.append(("quadrature stabilizes below the critical exponent", rep.finite))
    rep2 = verify_integrability(c2, 0.7)
    checks.append(("quadrature diverges above the critical exponent", not rep2.finite))

    # the one zero of (1 - cos(theta - 0.1))/2, reached round the circle,
    # lands one ulp off its own angle
    f = TrigPolynomial(
        ((0, 0, 0.5), (1, 0, -0.5 * math.cos(0.1)), (0, 1, -0.5 * math.sin(0.1)))
    )
    rep3 = verify_integrability(f, 0.3)
    exact = 2.0 * math.sqrt(math.pi) * math.gamma(0.2) / math.gamma(0.7)
    ok = rep3.value is not None and abs(rep3.value / exact - 1.0) < 1e-6
    checks.append(("single double zero at theta = 0.1 has its beta-function value", ok))

    # 1e-3 cos^2 written with monomials of size 1e6: the zeros are found
    # at the monomials' rounding level, far below 1e-3
    cancel = TrigPolynomial(((0, 0, -1e6), (2, 0, 1e6 + 1e-3), (0, 2, 1e6)))
    zeros = classify(cancel).zeros
    ok = [z.order for z in zeros] == [2, 2] and all(
        abs(z.leading / 1e-3 - 1.0) < 1e-6 for z in zeros)
    checks.append(("cancelling monomials of size 1e6 leave 1e-3 cos^2 two double zeros", ok))
    return checks


def _suite_ode() -> list[tuple[str, bool]]:
    checks = []
    params = MatsumuraParams(c0=1.0, c1=0.0, p=2.0, q=1.5, t0=2.0, phi0=1.0)
    chk = check_matsumura_bound(params, t_end=1e6)
    checks.append(
        ("closed-form constant log2 + 1", abs(chk.c2 - (math.log(2.0) + 1.0)) < 1e-12)
    )
    checks.append(("saturating ODE respects the logarithmic bound", chk.holds))

    ray = RayConfig(sigma=0.0, omega=Direction(1.0, 0.0), eps=0.1, mu=0.05, t_end=1e6)
    series = integrate_profile(2.0, ray, ZeroForcing(), v0=0.5)
    exact = 0.5 / np.sqrt(1.0 + 0.5 * np.log(series.times / series.times[0]))
    err = float(np.max(np.abs(series.V - exact) / np.abs(exact)))
    checks.append(("unforced profile matches the closed form to 1e-8", err < 1e-8))
    return checks


def _suite_pde_smoke() -> list[tuple[str, bool]]:
    checks = []
    data = InitialData(kind="smooth_bump", R=1.0, eps=0.1)
    cfg = SolverConfig(h=0.2, L=8.0, T=5.0)
    E, leak = np.array([(c.E, c.leak) for c in stream(cfg, data)]).T
    drift = float(np.max(np.abs(E - E[0])) / E[0])
    checks.append(("linear energy conserved to 1% on a coarse grid", drift < 0.01))
    checks.append(
        ("no beyond-cone signal above 1e-3 on a short linear run", leak.max() < 1e-3)
    )

    C = np.zeros((3, 3, 3))
    C[0, 0, 0] = -1.0  # F = -(u_t)^3
    # h = 0.1: on coarser grids the O(h^2) oscillation of the discrete
    # energy masks the weak cubic dissipation
    cfgd = SolverConfig(h=0.1, L=8.0, T=5.0, nonlinearity=NonlinearityCoefficients(C=C))
    diffs = np.diff(np.array([c.E for c in stream(cfgd, data)]) ** 2)
    checks.append(("cubic damping never increases the energy", bool(np.all(diffs <= 1e-6))))
    return checks


_SUITES = {
    "algebra": _suite_algebra,
    "structure": _suite_structure,
    "ode": _suite_ode,
    "pde-smoke": _suite_pde_smoke,
}


def cmd_verify(args) -> int:
    names = sorted(_SUITES) if args.suite == "all" else [args.suite]
    failures = 0
    for suite in names:
        for label, ok in _SUITES[suite]():
            print(f"[{suite}] {'PASS' if ok else 'FAIL'}: {label}")
            failures += 0 if ok else 1
    return EXIT_OK if failures == 0 else EXIT_CONDITION


# ---------------------------------------------------------------------------
# CSV bodies and report


def _write_csv(path: Path, columns: dict) -> Path:
    """Header, then one %.17g row per sample; a column that is None is left out."""
    columns = {name: col for name, col in columns.items() if col is not None}
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in zip(*columns.values()):
            fh.write(",".join(f"{x:.17g}" for x in row) + "\n")
    return path


def _profile_columns(series: ProfileSeries) -> dict:
    return {"t": series.times, "V": series.V, "G": series.G, "Phi": series.Phi}


def _read_energy(path: Path) -> np.ndarray:
    """energy.csv rows: a t,E[,E_bound] header, then finite numbers."""
    if not path.is_file():
        raise ConfigError(f"{path} not found (not a simulate run?)")
    with open(path) as fh:
        if fh.readline().strip().split(",")[:2] != ["t", "E"]:
            raise ConfigError(f"{path} does not start with a t,E header")
    rows = np.atleast_1d(np.genfromtxt(path, delimiter=",", names=True))
    if rows.size == 0 or not all(np.isfinite(rows[c]).all() for c in rows.dtype.names):
        raise ConfigError(f"{path} needs at least one row of finite numbers")
    return rows


def _energy_svg(rows) -> str:
    """Energy (solid) and fitted bound (dashed) against t as an SVG document."""
    W, H, PAD = 600, 400, 50
    t = rows["t"]
    curves = [("E", "", "energy norm")]
    if "E_bound" in rows.dtype.names:
        curves.append(("E_bound", ' stroke-dasharray="6 4"', "fitted logarithmic bound"))
    ys = np.concatenate([rows[c] for c, _, _ in curves])
    t0, t1 = float(t.min()), float(t.max())
    y0, y1 = min(0.0, float(ys.min())), float(ys.max())

    def xy(tt, yy):
        x = PAD + (W - 2 * PAD) * (tt - t0) / ((t1 - t0) or 1.0)
        y = H - PAD - (H - 2 * PAD) * (yy - y0) / ((y1 - y0) or 1.0)
        return f"{x:.2f},{y:.2f}"

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}">',
        f'<rect x="{PAD}" y="{PAD}" width="{W - 2 * PAD}" height="{H - 2 * PAD}"'
        ' fill="none" stroke="black"/>',
        f'<text x="{W // 2}" y="{H - 10}" text-anchor="middle">t ({t0:g} to {t1:g})</text>',
        f'<text x="10" y="{PAD - 10}">E ({y0:g} to {y1:g})</text>',
    ]
    for k, (col, dash, label) in enumerate(curves):
        pts = " ".join(xy(a, b) for a, b in zip(t, rows[col]))
        out.append(f'<polyline points="{pts}" fill="none" stroke="black"{dash}/>')
        out.append(f'<text x="{W - PAD - 5}" y="{PAD + 20 * (k + 1)}"'
                   f' text-anchor="end">{label}</text>')
    return "\n".join(out + ["</svg>", ""])


def cmd_report(args) -> int:
    """Write the SVG plot of a simulate run; no other file is written."""
    rundir = Path(args.rundir)
    out = Path(args.out) if args.out else rundir / "report.svg"
    out.write_text(_energy_svg(_read_energy(rundir / "energy.csv")))
    print(f"wrote {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="wavedecay",
        description="structural analysis, profile ODEs and 2D simulations "
        "for weakly dissipative semilinear wave equations",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    for name, body, help_text in (
        ("analyze", _analyze, "structural report of a nonlinearity"),
        ("profile", _profile, "integrate a ray profile ODE"),
        ("simulate", _simulate, "run the 2D leapfrog solver"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config")
        p.add_argument(
            "--set", action="append", metavar="PATH=VALUE",
            help="override a config entry, e.g. --set grid.h=0.1 "
            "(repeatable; dotted path into the JSON config)",
        )
        p.add_argument("--out", default=f"{name}_out")
        p.set_defaults(func=functools.partial(_run_command, name, body))

    p = sub.add_parser("verify", help="run a module invariant suite")
    p.add_argument("suite", choices=[*sorted(_SUITES), "all"])
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("report", help="render the energy overlay plot")
    p.add_argument("rundir")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_report)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse uses 2 for usage errors; remap to the documented code
        if exc.code not in (0, None):
            return EXIT_USAGE
        raise
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(_EXIT_CODES[c] for c in type(exc).__mro__ if c in _EXIT_CODES)


if __name__ == "__main__":
    sys.exit(main())
