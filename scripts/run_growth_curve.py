#!/usr/bin/env python3
"""Half-chain entropy growth from a unit-filling Fock start: prints a
t, mean, stderr table and reports the mean entropy at t = 1/Lambda."""

import argparse
import math

import numpy as np

from bosetraj import (MonitoringConfig, build_basis, fock_state,
                      run_ensemble, state_entropy)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--L", type=int, default=6)
    p.add_argument("--gamma", type=float, default=0.5)
    p.add_argument("--M", type=int, default=100)
    p.add_argument("--t-max", type=float, default=10.0)
    p.add_argument("--n-snapshots", type=int, default=21)
    p.add_argument("--seed", type=int, default=0)
    return p.parse_args()


def main():
    a = parse_args()
    basis = build_basis(a.L, a.L, min(a.L, 3))
    times = tuple(np.linspace(0.0, a.t_max, a.n_snapshots)[1:])
    cfg = MonitoringConfig(rate_phaselock=1.0, rate_dephase=a.gamma,
                           t_max=a.t_max, seed=a.seed, snapshot_times=times)
    ens = run_ensemble(basis, fock_state(basis, (1,) * a.L), cfg, M=a.M)
    half = a.L // 2
    print("t,mean,stderr")
    print("0.0,0.0,0.0")
    curve = [(0.0, 0.0)]
    # only the central cut is read, so only it is computed
    for t in times:
        S = np.array([state_entropy(amps, half, basis)
                      for amps in ens.states_at(t)])
        mean = S.mean()
        stderr = S.std(ddof=1) / math.sqrt(len(S)) if len(S) > 1 else 0.0
        curve.append((t, mean))
        print(f"{t},{float(mean)!r},{float(stderr)!r}")
    early = [s for t, s in curve if t <= 1.0 + 1e-9]
    print(f"# mean S(L/2) at t = 1/Lambda: {early[-1]:.3f} (a secant across"
          " the saturation, not an initial slope; the exact initial slope"
          " from this start is 4 ln 2 Lambda)")


if __name__ == "__main__":
    main()
