"""Recompute the stored reference minima in ``references.json``.

    python3 perfbench/reference.py

Uses scipy only, on the problem data the benchmark's worker builds:

* ``l1_recovery``: L-BFGS-B on the split x = u - v, u, v >= 0, then an
  exact least-squares solve on the support and signs it found, kept only
  if the KKT conditions certify it (``checks.certify_l1``).
* ``svm_tn``: L-BFGS on the benchmark's own value and gradient, then
  generalized Newton steps on the active margin rows until the gradient
  norm is below 1e-8 (``checks.certify_svm``).

Takes about half a minute with one BLAS thread.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

from workloads import BLAS_ENV, WORKLOADS

os.environ.update(BLAS_ENV)
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402
from scipy import optimize  # noqa: E402

from checks import (REFERENCES, certify_l1, certify_svm, objective,  # noqa: E402
                    svm_gradient)
from worker import build, problem_arrays  # noqa: E402


def l1_minimizer(data):
    a, b, mu = data["a"], data["b"], float(data["mu"])
    n = a.shape[1]

    def fg(z):
        r = a @ (z[:n] - z[n:]) - b
        c = 2.0 * (a.T @ r)
        return float(r @ r) + mu * float(z.sum()), np.concatenate([c + mu, mu - c])

    res = optimize.minimize(fg, np.zeros(2 * n), jac=True, method="L-BFGS-B",
                            bounds=[(0.0, None)] * (2 * n),
                            options={"maxiter": 200000, "maxfun": 400000,
                                     "ftol": 0.0, "gtol": 0.0, "maxcor": 30})
    x = res.x[:n] - res.x[n:]
    print(f"l1_recovery: L-BFGS-B f = {res.fun!r} after {res.nit} iterations")
    support = np.flatnonzero(np.abs(x) > 1e-9 * np.max(np.abs(x)))
    a_s = a[:, support]
    polished = np.zeros(n)
    polished[support] = np.linalg.solve(2.0 * (a_s.T @ a_s),
                                        2.0 * (a_s.T @ b) - mu * np.sign(x[support]))
    return polished


def svm_minimizer(data):
    f_of = objective(data)
    z = data["x_rows"] * data["y"][:, None]
    c = float(data["c_penalty"])

    def fg(w):
        return f_of(w), svm_gradient(data, w)

    res = optimize.minimize(fg, np.zeros(z.shape[1]), jac=True, method="L-BFGS-B",
                            options={"maxiter": 20000, "maxfun": 40000,
                                     "ftol": 0.0, "gtol": 1e-10, "maxcor": 20})
    w = res.x
    print(f"svm_tn: L-BFGS f = {res.fun!r} after {res.nit} iterations")
    for _ in range(10):
        g = svm_gradient(data, w)
        if np.linalg.norm(g) <= 1e-11:
            break
        za = z[1.0 - z @ w > 0.0]
        hess = np.eye(w.size) + 2.0 * c * (za.T @ za)
        w = w - np.linalg.solve(hess, g)
    return w


def main():
    refs = {}
    for name, find, certify in (("l1_recovery", l1_minimizer, certify_l1),
                                ("svm_tn", svm_minimizer, certify_svm)):
        workload = WORKLOADS[name]
        data = problem_arrays(build(workload))
        x_opt = find(data)
        f_opt = certify(data, x_opt)
        print(f"{name}: certified f* = {f_opt!r}")
        refs[name] = {"problem": workload.problem, "f_opt": f_opt,
                      "x_opt": x_opt.tolist()}
    REFERENCES.write_text("{\n" + ",\n".join(
        f" {json.dumps(name)}: {json.dumps(ref)}" for name, ref in refs.items())
        + "\n}\n")


if __name__ == "__main__":
    main()
