#!/usr/bin/env python3
"""Stand-in external MILP solver for adapter tests.

Reads an LP or MPS model file, solves it with scipy's MILP backend and
writes a plain-format solution file, mimicking how a real command-line
solver would be driven.
"""

import sys
from pathlib import Path

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from readers import read_lp, read_mps


def main(model_path: str, solution_path: str, time_limit: str = "60") -> int:
    text = Path(model_path).read_text()
    parsed = read_lp(text) if model_path.endswith(".lp") else read_mps(text)
    names = parsed.variable_names()
    index = {name: i for i, name in enumerate(names)}

    c = np.zeros(len(names))
    for name, value in parsed.objective.items():
        c[index[name]] = value
    rows, lbs, ubs = [], [], []
    for coeffs, sense, rhs in parsed.constraints.values():
        row = np.zeros(len(names))
        for name, value in coeffs.items():
            row[index[name]] = value
        rows.append(row)
        lbs.append(rhs if sense in ("=", ">=") else -np.inf)
        ubs.append(rhs if sense in ("=", "<=") else np.inf)
    lb = np.array([parsed.bound(name)[0] for name in names])
    ub = np.array([parsed.bound(name)[1] for name in names])
    integrality = np.array([1 if name in parsed.integers else 0 for name in names])

    res = milp(
        c,
        constraints=[LinearConstraint(np.array(rows), np.array(lbs), np.array(ubs))],
        integrality=integrality,
        bounds=Bounds(lb, ub),
        options={"time_limit": float(time_limit), "mip_rel_gap": 0.0},
    )
    with open(solution_path, "w") as handle:
        if res.status == 0:
            handle.write("status optimal\n")
            handle.write(f"objective {float(res.fun)!r}\n")
            handle.write(f"bound {float(res.mip_dual_bound)!r}\n")
            for name in names:
                handle.write(f"{name} {float(res.x[index[name]])!r}\n")
        elif res.status == 2:
            handle.write("status infeasible\n")
        elif res.x is not None:
            handle.write("status stopped\n")
            handle.write(f"objective {float(res.fun)!r}\n")
            for name in names:
                handle.write(f"{name} {float(res.x[index[name]])!r}\n")
        else:
            handle.write("status unknown\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
