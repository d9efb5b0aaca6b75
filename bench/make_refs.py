"""Regenerate the mpmath reference tables in bench/refs/.

    python3 bench/make_refs.py

The tables are computed from first principles with mpmath and do not
import stableinfer:

- densities.json: densities of S(1.5, 0.3, 1, 0; 0) and S(1, 0.4, 1, 0; 0)
  at 200 points, by Fourier inversion of the characteristic function.
- three_series_alpha1.5.json: partial sums s0, s1, s2 of the three-series
  test for gamma_n = 1/n, alpha = 1.5, q = 1, threshold 1, at the doubling
  depths 64 .. 16384.  Terms with cut below X0 come from the convergent
  power series of the symmetric density; larger cuts use its asymptotic
  tail series, which at these cuts is exact to far below double precision.
  The two series are checked against each other, and the survival
  function against Fourier quadrature, before anything is written.
- constants.json: KL(N(0,1) || C(0,1)).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import mpmath as mp

HERE = Path(__file__).resolve().parent
REFS = HERE / "refs"

DENSITY_POINTS = [-10.0 + 20.0 * i / 199 for i in range(200)]
DENSITY_CASES = [(1.5, 0.3), (1.0, 0.4)]
SERIES_ALPHA = mp.mpf(3) / 2
SERIES_DEPTH = 2 ** 14
X0 = 8  # cuts below X0 use the power series, the rest the tail series


def stable_density(x, alpha, beta):
    """Density of S(alpha, beta, 1, 0; 0) at x:
    (1/pi) int_0^inf exp(-t^alpha) cos(x t + theta(t)) dt."""
    x, alpha, beta = mp.mpf(x), mp.mpf(alpha), mp.mpf(beta)
    if alpha == 1:
        def theta(t):
            return beta * 2 / mp.pi * t * mp.log(t) if t > 0 else mp.mpf(0)
        top = 60
    else:
        tan = mp.tan(mp.pi * alpha / 2)

        def theta(t):
            return beta * tan * (t - t ** alpha)
        top = 40
    f = lambda t: mp.exp(-t ** alpha) * mp.cos(x * t + theta(t))
    return mp.quad(f, mp.linspace(0, top, 2 * top + 1)) / mp.pi


# --- symmetric alpha-stable, characteristic function exp(-|t|^alpha) ------

def _power_series(x, alpha, extra):
    """(1/(pi alpha)) sum_k (-1)^k Gamma((2k+1)/alpha) x^(2k+1+extra)
    / ((2k)! (2k+1+extra)) = int_0^x t^extra f(t) dt.

    For alpha = 1.5 the terms peak near 2k = x^3 at about exp(x^3 / 3), so
    the sum runs with that many extra digits."""
    digits = mp.mp.dps
    with mp.workdps(digits + int(float(x) ** 3 / 3 / 2.3) + 10):
        x = mp.mpf(x)
        total, k = mp.mpf(0), 0
        while True:
            term = ((-1) ** k * mp.gamma((2 * k + 1) / alpha) * x ** (2 * k + 1 + extra)
                    / (mp.factorial(2 * k) * (2 * k + 1 + extra)))
            total += term
            if 2 * k > float(x) ** 3 and abs(term) < mp.mpf(10) ** -digits * abs(total):
                return +(total / (mp.pi * alpha))
            k += 1


def _tail_coefficients(alpha, count=200):
    """(|a_k|, sign_k) with f(x) ~ sum_k a_k x^(-alpha k - 1) as x -> inf,
    a_k = (-1)^(k+1) Gamma(alpha k + 1) sin(pi alpha k / 2) / (pi k!)."""
    out = []
    for k in range(1, count + 1):
        envelope = mp.gamma(alpha * k + 1) / (mp.factorial(k) * mp.pi)
        out.append((envelope, (-1) ** (k + 1) * mp.sin(mp.pi * alpha * k / 2)))
    return out


def _tail_sum(x, alpha, coeffs, power_of_term):
    """sum_k a_k g_k(x) for the antiderivative pieces g_k.  The series is
    asymptotic, so it stops where the envelope |a_k g_k| stops shrinking
    (the sine factor alone may vanish, e.g. at alpha k = 6)."""
    total, last = mp.mpf(0), mp.inf
    for k, (envelope, sign) in enumerate(coeffs, start=1):
        size = envelope * abs(power_of_term(k))
        if size > last or size <= mp.eps * abs(total):
            break
        total += sign * envelope * power_of_term(k)
        last = size
    if last > mp.mpf("1e-30") * abs(total):
        raise SystemExit(f"tail series not accurate at x={x}: smallest term {last}")
    return total


def symmetric_terms(x, alpha, coeffs, m2_at_x0):
    """(P[|X| > x], E[|X|; |X| <= x], E[X^2; |X| <= x])."""
    x = mp.mpf(x)
    if x < X0:
        return (1 - 2 * _power_series(x, alpha, 0),
                2 * _power_series(x, alpha, 1),
                2 * _power_series(x, alpha, 2))
    abs_mean = 2 * mp.gamma(1 - 1 / alpha) / mp.pi
    surv = 2 * _tail_sum(x, alpha, coeffs, lambda k: x ** (-alpha * k) / (alpha * k))
    upper_m1 = _tail_sum(x, alpha, coeffs, lambda k: x ** (1 - alpha * k) / (alpha * k - 1))
    x0 = mp.mpf(X0)
    mid_m2 = 0 if x == x0 else _tail_sum(
        x, alpha, coeffs, lambda k: (x ** (2 - alpha * k) - x0 ** (2 - alpha * k)) / (2 - alpha * k))
    return surv, abs_mean - 2 * upper_m1, m2_at_x0 + 2 * mid_m2


def three_series_table():
    mp.mp.dps = 40
    alpha = SERIES_ALPHA
    coeffs = _tail_coefficients(alpha)
    m2_at_x0 = 2 * _power_series(X0, alpha, 2)
    # the two representations must agree where both are usable
    for x in (X0, X0 + 2, X0 + 4):
        series = (1 - 2 * _power_series(x, alpha, 0),
                  2 * _power_series(x, alpha, 1),
                  2 * _power_series(x, alpha, 2))
        tail = symmetric_terms(x, alpha, coeffs, m2_at_x0)
        for a, b in zip(series, tail):
            if abs(a - b) > mp.mpf("1e-30") * max(1, abs(a)):
                raise SystemExit(f"power and tail series disagree at x={x}: {a} vs {b}")
    # the survival function against Fourier quadrature
    mp.mp.dps = 20
    for x in (2, 20):
        fourier = mp.mpf(1) / 2 - mp.quad(lambda t: mp.exp(-t ** alpha) * mp.sin(x * t) / t,
                                          mp.linspace(0, 40, 801)) / mp.pi
        mp.mp.dps = 40
        mine = symmetric_terms(x, alpha, coeffs, m2_at_x0)[0] / 2
        mp.mp.dps = 20
        if abs(fourier - mine) > mp.mpf("1e-17"):
            raise SystemExit(f"survival disagrees with quadrature at x={x}: {mine} vs {fourier}")
    mp.mp.dps = 40
    depths = []
    d = 64
    while d <= SERIES_DEPTH:
        depths.append(d)
        d *= 2
    s0 = s1 = s2 = mp.mpf(0)
    out = {"s0": [], "s1": [], "s2": []}
    for n in range(1, SERIES_DEPTH + 1):
        surv, m1, m2 = symmetric_terms(n, alpha, coeffs, m2_at_x0)
        s0 += surv
        s1 += m1 / n
        s2 += m2 / n ** 2
        if n in depths:
            out["s0"].append(float(s0))
            out["s1"].append(float(s1))
            out["s2"].append(float(s2))
    return {
        "alpha": float(alpha), "q": 1.0, "threshold": 1.0,
        "sequence": {"kind": "power", "amplitude": 1.0, "exponent": 1.0},
        "depths": depths, **out,
    }


def density_table():
    mp.mp.dps = 20
    cases = []
    for alpha, beta in DENSITY_CASES:
        pdf = [float(stable_density(x, alpha, beta)) for x in DENSITY_POINTS]
        cases.append({"alpha": alpha, "beta": beta, "pdf": pdf})
    # spot check: finer subdivision and more digits change nothing
    mp.mp.dps = 30
    for case in cases:
        for i in (0, 99, 199):
            v = stable_density(DENSITY_POINTS[i], case["alpha"], case["beta"])
            if abs(v - case["pdf"][i]) > mp.mpf("1e-16") * abs(v):
                raise SystemExit(f"density not converged at {DENSITY_POINTS[i]}")
    return {"gamma": 1.0, "delta": 0.0, "points": DENSITY_POINTS, "cases": cases}


def constants():
    mp.mp.dps = 30
    normal = lambda x: mp.exp(-x * x / 2) / mp.sqrt(2 * mp.pi)
    kl = mp.quad(lambda x: normal(x) * (mp.log(normal(x)) - mp.log(1 / (mp.pi * (1 + x * x)))),
                 [-mp.inf, -10, 0, 10, mp.inf])
    return {"kl_normal_cauchy": float(kl), "kl_normal_cauchy_digits": mp.nstr(kl, 25)}


def main() -> int:
    REFS.mkdir(exist_ok=True)
    jobs = [("constants.json", constants),
            ("three_series_alpha1.5.json", three_series_table),
            ("densities.json", density_table)]
    for name, job in jobs:
        started = time.perf_counter()
        table = job()
        (REFS / name).write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
        print(f"{name}: {time.perf_counter() - started:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
