"""Regenerate refs/pde_damped.json, the pde-damped reference outputs.

    PYTHONPATH=src python3 perfbench/make_refs.py

Run it only when the scheme itself is meant to change: the references
pin the energy series and the streamed ray profile of the acceptance
6b/6c fixture, and every pde-damped operation is checked against them.
"""

import json
import shutil
import sys

sys.dont_write_bytecode = True

from workloads import DAMPED_CONFIG, REFS, WORK, _read_csv, simulate  # noqa: E402


def main() -> None:
    out = WORK / "make-refs"
    if simulate(DAMPED_CONFIG, out) != 0:
        raise SystemExit("simulate failed; no reference written")
    energy = _read_csv(out / "energy.csv")
    ray = _read_csv(out / "profile_ray0.csv")
    shutil.rmtree(out)
    body = {
        "energy_t": energy["t"].tolist(),
        "energy_E": energy["E"].tolist(),
        "ray_t": ray["t"].tolist(),
        "ray_V": ray["V"].tolist(),
    }
    REFS.mkdir(exist_ok=True)
    with open(REFS / "pde_damped.json", "w") as fh:
        json.dump(body, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
