"""In-memory span recorder installed around calls into wavedecay modules.

The wrappers live here, in the benchmark, and replace module-level names
that the package looks up at call time (``wave._laplacian``,
``structure._quad``, ``TrigPolynomial.__call__``, ...).  Nothing under
``src/`` knows about them.  A name that no longer exists is recorded as
absent and skipped, so a later refactor that removes a private helper
drops only the metrics built on it.

Spans are appended to flat arrays (one entry per call, ~24 bytes) rather
than objects, because the symbol survey makes ~10^4 polynomial
evaluations per symbol.  Self time is computed as the span's duration
minus the time covered by its direct child spans.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_s = array("d")
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[list] = []      # [span index, time covered by children]
        self._restore: list[tuple] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def traced(self, name: str, fn):
        """Return fn wrapped so that each call records one span."""
        nid = self._id(name)
        clock = time.perf_counter
        stack = self._stack
        name_id, parent, start, end, self_s = (
            self.name_id, self.parent, self.start, self.end, self.self_s
        )

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1][0] if stack else -1)
            frame = [idx, 0.0]
            stack.append(frame)
            start.append(0.0)
            end.append(0.0)
            self_s.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
                self_s[idx] = (t1 - t0) - frame[1]
                if stack:
                    stack[-1][1] += t1 - t0

        return wrapper

    def patch(self, owner, attr: str, name: str, make=None) -> bool:
        """Replace owner.attr by a traced wrapper; False if attr is gone.

        ``make(fn)`` may pre-wrap the original before tracing (used to
        count the callbacks handed to the profile integrator).
        """
        if owner is None or not hasattr(owner, attr):
            self.absent.append(name)
            return False
        original = getattr(owner, attr)
        inner = make(original) if make is not None else original
        setattr(owner, attr, self.traced(name, inner))
        self._restore.append((owner, attr, original))
        return True

    def unpatch(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- queries -----------------------------------------------------------

    def durations(self, name: str, parent: str | None = None) -> np.ndarray:
        """Durations (s) of spans called `name`, optionally only those whose
        direct parent span is called `parent`."""
        if name not in self._ids:
            return np.empty(0)
        ids = np.array(self.name_id)
        mask = ids == self._ids[name]
        if parent is not None:
            par = np.array(self.parent)
            parent_ids = np.where(par >= 0, ids[np.maximum(par, 0)], -1)
            mask &= parent_ids == self._ids.get(parent, -2)
        return (np.array(self.end) - np.array(self.start))[mask]

    def self_time_by_layer(self) -> dict[str, float]:
        """Total self time per layer, the layer being the name's prefix."""
        totals = np.bincount(
            np.array(self.name_id), weights=np.array(self.self_s),
            minlength=len(self.names),
        )
        out: dict[str, float] = {}
        for name, total in zip(self.names, totals):
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + float(total)
        return out

    def write(self, path: Path) -> None:
        """Write every span as columns of one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        body = {
            "names": self.names,
            "absent": self.absent,
            "counts": dict(self.counts),
            "name_id": self.name_id.tolist(),
            "parent": self.parent.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "self_s": self.self_s.tolist(),
        }
        with open(path, "w") as fh:
            json.dump(body, fh)


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of every wavedecay module.

    Names are looked up at call time by the package itself, so patching
    the module attribute is enough for calls made from inside it.
    """
    from wavedecay import cli, profile_ode, structure, trig, wave

    solver = getattr(wave, "LeapfrogSolver", None)
    tracer.patch(solver, "__init__", "wave.setup")
    tracer.patch(solver, "advance", "wave.advance")
    for attr in ("run", "apply_nonlinearity", "energy", "check_propagation",
                 "_laplacian", "_gradients", "_ray_w"):
        tracer.patch(wave, attr, f"wave.{attr}")

    tracer.patch(cli, "main", "cli.main")
    tracer.patch(cli, "run", "wave.run")          # wave.run as cli imports it
    tracer.patch(cli, "_write_checkpoint", "cli._write_checkpoint")
    tracer.patch(cli, "analyze", "cli.analyze")

    for attr in ("classify", "verify_integrability", "_quad"):
        tracer.patch(structure, attr, f"structure.{attr}")

    tracer.patch(getattr(trig, "TrigPolynomial", None), "__call__",
                 "trig.TrigPolynomial.__call__")

    counts = tracer.counts

    def counting(key, fn):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    def count_callbacks(integrate):
        # rhs and guard are handed to the integrator; count how often it
        # calls them (guard runs once per accepted step, and only for
        # profile integrations, never for the Matsumura check)
        def wrapper(rhs, *args, guard=None, **kwargs):
            key = "profile" if guard is not None else "matsumura"
            counts[f"{key}.integrations"] += 1
            rhs = counting(f"{key}.rhs", rhs)
            if guard is not None:
                guard = counting(f"{key}.guard", guard)
            return integrate(rhs, *args, guard=guard, **kwargs)
        return wrapper

    tracer.patch(profile_ode, "_integrate_adaptive",
                 "profile_ode._integrate_adaptive", make=count_callbacks)
    tracer.patch(profile_ode, "check_matsumura_bound",
                 "profile_ode.check_matsumura_bound")
