"""Reference process for the host-speed scaling in run.py.

    python3 bench/probe.py

Starts Python and imports what the program needs (numpy, scipy), but no
stableinfer code, then does a fixed amount of work of the kinds the
operations do: QUADPACK Fourier integrals over a Python integrand, as
the numeric density does, and numpy passes over a 16 MB array, as the
samplers do.  run.py times it from spawn to exit.
"""

import math
import sys

import numpy as np
import scipy.integrate
import scipy.special  # noqa: F401  (the program imports it too)

K = 0.8 / math.pi


def _re(u: float) -> float:
    return math.exp(-u) * math.cos(K * u * math.log(u)) if u > 0.0 else 1.0


def main() -> int:
    acc = 0.0
    for z in np.linspace(0.25, 10.0, 400):
        acc += scipy.integrate.quad(_re, 0.0, np.inf, weight="cos", wvar=float(z),
                                    epsabs=1e-12, limit=200, limlst=120)[0]
    x = np.random.default_rng(3).standard_normal(2_000_000)
    y = np.sin(np.sort(x)) * np.exp(-np.abs(x))
    acc += float(np.cumsum(y)[-1])
    return 0 if math.isfinite(acc) else 1


if __name__ == "__main__":
    sys.exit(main())
