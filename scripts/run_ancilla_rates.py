#!/usr/bin/env python3
"""Exact initial click rate of the ancilla phase-lock circuit out of
|1,1> against the adiabatic-elimination prediction 4 g^2/kappa, across
kappa/g.  The rate comes from the circuit's eigendecomposition, so every
run prints the same numbers."""

import argparse
import math
import sys

from bosetraj.ancilla import born_markov_rate_check
from bosetraj.fock import NumericGuardError


def positive(text: str) -> float:
    """A finite number > 0; anything else exits 2 naming the value."""
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not (math.isfinite(x) and x > 0):
        raise argparse.ArgumentTypeError(f"need a finite number > 0, got {text!r}")
    return x


def positive_list(text: str) -> list:
    return [positive(x) for x in text.split(",")]


def parse_args():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--g-eff", type=positive, default=1.0)
    p.add_argument("--kappas", type=positive_list, default="5,20,50,200,500")
    return p.parse_args()


def main():
    a = parse_args()
    try:
        points = born_markov_rate_check(a.g_eff, a.kappas)
    except NumericGuardError as err:     # a kappa at an exceptional point: no rate to read
        print(f"error: {err}", file=sys.stderr)
        return 3
    print("kappa,click_rate,predicted_rate,relative_error")
    for pt in points:
        print(f"{pt.kappa},{pt.click_rate!r},{pt.predicted_rate!r},{pt.relative_error!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
