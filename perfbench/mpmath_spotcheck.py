#!/usr/bin/env python3
"""One-off check of the float oracle that grades the large_z workload.

    python3 perfbench/mpmath_spotcheck.py

For a few large_z points of seed 1 (first input set) it evaluates
I(z) = int_0^inf e^{-zt} f(t) dt with mpmath at 30 digits, straight from the
closed-form amplitudes and along the real axis split into sub-intervals of
about half an oscillation, so nothing of laplasym is used for the value.
It then reports the relative error of ``reference_value``,
``watson_sum`` and ``hadamard_sum`` against it, writes
reference/large_z_spotcheck.json, and exits non-zero if the float oracle
misses by more than the benchmark's tolerance RTOL.
"""

import json
import math
import sys

import mpmath as mp

import workloads
from laplasym import builtin_spec, hadamard_sum, reference_value, watson_sum

DPS = 30
# (level, theta stratum) picked for every spec.
POINTS = ((100.0, 0), (400.0, 1), (1600.0, 2))


def amplitude(kind: str, params: dict):
    if kind == "u_chg":
        a, b = mp.mpf(params["a"]), mp.mpf(params["b"])
        return lambda t: t ** (a - 1) * (1 + t) ** (-b)
    if kind == "struve_k0":
        return lambda t: 1 / mp.sqrt(1 + t * t)
    w = mp.expj(mp.mpf(params["psi"]))
    if kind == "pole":
        return lambda t: w / (1 - w * t)
    return lambda t: 1 / mp.sqrt(1 - t * w)


def laplace_mp(kind: str, params: dict, z: complex) -> mp.mpc:
    f = amplitude(kind, params)
    zm = mp.mpc(z)
    upper = (DPS * math.log(10.0) + 40.0) / z.real
    pieces = max(8, math.ceil(upper * abs(z.imag) / math.pi))
    nodes = [upper * k / pieces for k in range(pieces + 1)]
    return mp.quad(lambda t: mp.exp(-zm * t) * f(t), nodes)


def rel(value: complex, exact: mp.mpc) -> float:
    return float(abs(mp.mpc(value) - exact) / abs(exact))


def main() -> int:
    mp.mp.dps = DPS
    inputs = workloads.large_z_inputs(seed=1)[0]
    rows = []
    for i, (label, kind, params) in enumerate(workloads.LARGE_Z_SPECS):
        spec = builtin_spec(kind, **params)
        for level, stratum in POINTS:
            (z,) = [
                z
                for j, (si, lv, z) in enumerate(inputs)
                if si == i and lv == level and j % workloads.THETA_STRATA == stratum
            ]
            exact = laplace_mp(kind, params, z)
            row = {
                "spec": label,
                "z": [z.real, z.imag],
                "abs_z": abs(z),
                "theta_over_pi": math.atan2(z.imag, z.real) / math.pi,
                "mpmath_value": [mp.nstr(exact.real, DPS), mp.nstr(exact.imag, DPS)],
                "oracle_rel_err": rel(reference_value(spec, z).value, exact),
                "watson_rel_err": rel(watson_sum(spec, z, workloads.R_TRUNC).value, exact),
            }
            try:
                had = hadamard_sum(spec, z, workloads.R_TRUNC, workloads.HADAMARD_TERMS)
                row["hadamard_rel_err"] = rel(had, exact)
            except OverflowError as exc:  # the known defect at |z| >~ 404 for pole
                row["hadamard_rel_err"] = f"raised {type(exc).__name__}"
            rows.append(row)
            print(f"{label:20s} |z|={abs(z):8.2f} theta={row['theta_over_pi']:.4f}pi  "
                  f"oracle {row['oracle_rel_err']:.1e}  watson {row['watson_rel_err']:.1e}  "
                  f"hadamard {row['hadamard_rel_err']}", flush=True)
    worst = max(r["oracle_rel_err"] for r in rows)
    ok = worst <= workloads.RTOL
    path = workloads.REFERENCE / "large_z_spotcheck.json"
    path.write_text(json.dumps({"dps": DPS, "rtol": workloads.RTOL, "worst_oracle_rel_err": worst,
                                "oracle_within_rtol": ok, "points": rows}, indent=1) + "\n")
    print(f"worst float-oracle relative error {worst:.2e} (check tolerance {workloads.RTOL:.0e}): "
          f"{'ok' if ok else 'FAIL'}; wrote {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
