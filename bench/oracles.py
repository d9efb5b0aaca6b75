"""Reference values computed apart from stableinfer.

Nothing here imports stableinfer: every expected value is a closed form,
a scipy quadrature of an exactly known density, or an mpmath table from
bench/refs/ (see make_refs.py).  Readers for the program's artifacts are
written from the documented file formats, not taken from the package.
"""

from __future__ import annotations

import json
import math
import struct
from functools import lru_cache
from pathlib import Path

import numpy as np
from scipy import integrate, special

REFS = Path(__file__).resolve().parent / "refs"


@lru_cache(maxsize=None)
def reference(name: str) -> dict:
    return json.loads((REFS / name).read_text(encoding="utf-8"))


# --- artifact readers ------------------------------------------------------

def read_sfe1(path) -> tuple[dict, np.ndarray, np.ndarray | None]:
    """SFE1: b"SFE1", uint32 LE header length, JSON header, then the
    coefficient matrix and the optional grid matrix as float64 LE."""
    blob = Path(path).read_bytes()
    if blob[:4] != b"SFE1":
        raise ValueError(f"{path}: bad magic {blob[:4]!r}")
    (hlen,) = struct.unpack_from("<I", blob, 4)
    header = json.loads(blob[8:8 + hlen].decode("utf-8"))
    n, m, g = header["n_samples"], header["n_coefficients"], header.get("grid_size", 0)
    body = np.frombuffer(blob, dtype="<f8", offset=8 + hlen)
    if body.size != n * (m + g):
        raise ValueError(f"{path}: {body.size} values for header {header}")
    coeffs = body[:n * m].reshape(n, m)
    grid = body[n * m:].reshape(n, g) if g else None
    return header, coeffs, grid


def read_csv(path) -> tuple[list[str], np.ndarray]:
    """A '#' comment line, a header row, then rows of decimals."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or not lines[0].startswith("#"):
        raise ValueError(f"{path}: missing comment line")
    names = lines[1].split(",")
    body = ",".join(lines[2:])
    values = np.array(body.split(","), dtype=float) if body else np.empty(0)
    if values.size % len(names):
        raise ValueError(f"{path}: ragged rows")
    return names, values.reshape(-1, len(names))


# --- Cauchy prior, Gaussian misfit -----------------------------------------
# Prior C(0, 1), misfit Phi(u; y) = (y - u)^2 / 2.  E_prior exp(-Phi) is the
# Voigt profile scaled by sqrt(2 pi), i.e. Re w((y + i)/sqrt 2) with the
# Faddeeva function w; E_prior exp(-2 Phi) = Re w(y + i) likewise.

def z_exact(y: float) -> float:
    return float(special.wofz((y + 1j) / math.sqrt(2.0)).real)


def z_stderr(y: float, n: int) -> float:
    """Standard error of the n-sample mean of exp(-Phi) under the prior."""
    second = float(special.wofz(y + 1j).real)
    return math.sqrt(second - z_exact(y) ** 2) / math.sqrt(n)


def _cauchy(u):
    return 1.0 / (math.pi * (1.0 + u * u))


def _quad(f, lo, hi, points=None) -> float:
    val, _ = integrate.quad(f, lo, hi, points=points, epsabs=1e-15, epsrel=1e-12, limit=400)
    return val


def _window(*ys):
    return min(ys) - 40.0, max(ys) + 40.0


def likelihood_z(y: float, n_approx: int, power: int = 1) -> float:
    """E_prior exp(-power * (Phi + sin|u| / N)), the misfit of the
    likelihood sweep's N-th approximation."""
    lo, hi = _window(y)
    return _quad(lambda u: math.exp(-power * (0.5 * (y - u) ** 2 + math.sin(abs(u)) / n_approx))
                 * _cauchy(u), lo, hi, points=[0.0, y] if lo < 0.0 < hi else [y])


def likelihood_z_stderr(y: float, n_approx: int, n: int) -> float:
    z = likelihood_z(y, n_approx)
    return math.sqrt(likelihood_z(y, n_approx, power=2) - z * z) / math.sqrt(n)


def hellinger_data(y: float, eps: float) -> float:
    """Hellinger distance, in the convention sqrt(int (sqrt p - sqrt q)^2)
    bounded by sqrt 2, between the posteriors at data y and y + eps."""
    y2 = y + eps
    za, zb = z_exact(y), z_exact(y2)

    def g(u):
        a = math.exp(-0.25 * (y - u) ** 2) / math.sqrt(za)
        b = math.exp(-0.25 * (y2 - u) ** 2) / math.sqrt(zb)
        return (a - b) ** 2 * _cauchy(u)

    lo, hi = _window(y, y2)
    return math.sqrt(_quad(g, lo, hi, points=sorted({y, y2})))


def hellinger_data_closed_form(y: float, eps: float) -> float:
    """The same distance from the Bhattacharyya coefficient
    exp(-eps^2/8) Z(y + eps/2) / sqrt(Z(y) Z(y + eps)); used to test the
    quadrature above."""
    bc = math.exp(-eps * eps / 8.0) * z_exact(y + eps / 2.0) / math.sqrt(
        z_exact(y) * z_exact(y + eps))
    return math.sqrt(max(2.0 - 2.0 * bc, 0.0))


def hellinger_likelihood(y: float, n_approx: int) -> float:
    """Hellinger distance between the posterior and the one whose misfit
    carries the extra sin(|u|)/N term."""
    za, zb = z_exact(y), likelihood_z(y, n_approx)

    def g(u):
        base = math.exp(-0.25 * (y - u) ** 2)
        a = base / math.sqrt(za)
        b = base * math.exp(-0.5 * math.sin(abs(u)) / n_approx) / math.sqrt(zb)
        return (a - b) ** 2 * _cauchy(u)

    lo, hi = _window(y)
    return math.sqrt(_quad(g, lo, hi, points=[0.0, y] if lo < 0.0 < hi else [y]))


# --- stable laws -------------------------------------------------------------

def stable_abs_moment(alpha: float, beta: float, sigma: float, p: float) -> float:
    """E|X|^p for a strictly stable X ~ S_alpha(sigma, beta, 0) in the
    Samorodnitsky-Taqqu parametrisation, alpha != 1, 0 < p < alpha
    (Samorodnitsky & Taqqu 1994, Property 1.2.17), with
    int_0^inf u^(-p-1) sin^2 u du = 2^(p-1) Gamma(1-p) cos(pi p/2) / p."""
    tan = math.tan(math.pi * alpha / 2.0)
    sin2 = 2.0 ** (p - 1.0) * math.gamma(1.0 - p) * math.cos(math.pi * p / 2.0) / p
    return (2.0 ** (p - 1.0) * math.gamma(1.0 - p / alpha) / (p * sin2)
            * (1.0 + beta * beta * tan * tan) ** (p / (2.0 * alpha))
            * math.cos(p / alpha * math.atan(beta * tan)) * sigma ** p)


def strictly_stable_location(alpha: float, beta: float, gamma: float) -> float:
    """Location delta in parametrisation 0 of the strictly stable law with
    scale gamma: the parametrisation-1 location is delta - beta gamma tan(pi alpha/2)."""
    return beta * gamma * math.tan(math.pi * alpha / 2.0)


def cauchy_cdf(x):
    return 0.5 + np.arctan(x) / math.pi


def normal_cdf(x):
    return special.ndtr(x)


def ks_statistic(sample, cdf) -> float:
    x = np.sort(np.asarray(sample, dtype=float).ravel())
    f = cdf(x)
    n = x.size
    upper = np.arange(1, n + 1) / n - f
    lower = f - np.arange(n) / n
    return float(max(upper.max(), lower.max()))


def ks_critical(n: int, level: float) -> float:
    """Asymptotic one-sample Kolmogorov-Smirnov critical distance."""
    return math.sqrt(-0.5 * math.log(level / 2.0)) / math.sqrt(n)


def gallery_level_scale(n_coefficients: int) -> np.ndarray:
    """(j + 1)^-2 2^-j for the coefficient at index n = 2^j + k (1-based)."""
    j = np.array([n.bit_length() - 1 for n in range(1, n_coefficients + 1)], dtype=float)
    return (j + 1.0) ** -2.0 * 2.0 ** -j


# --- coefficient-series diagnostics -------------------------------------------

def truncated_cauchy_terms(gamma: np.ndarray, a_cut: float):
    """Three-series terms of gamma_n u_n, u_n ~ C(0, 1), threshold A:
    P[|gamma u| > A] = (2/pi) arctan(gamma/A),
    E[|gamma u|; |gamma u| <= A] = (gamma/pi) log(1 + (A/gamma)^2),
    E[(gamma u)^2; |gamma u| <= A] = (2 gamma/pi)(A - gamma arctan(A/gamma))."""
    ratio = a_cut / gamma
    return ((2.0 / math.pi) * np.arctan(gamma / a_cut),
            (gamma / math.pi) * np.log1p(ratio * ratio),
            (2.0 / math.pi) * gamma * (a_cut - gamma * np.arctan(ratio)))


def power_log_sequence(amplitude: float, exponent: float, log_exponent: float, n: int):
    """amplitude n^-exponent (log max(n, 2))^-log_exponent, n = 1..n."""
    idx = np.arange(1, n + 1, dtype=float)
    return amplitude * idx ** -exponent * np.log(np.maximum(idx, 2.0)) ** -log_exponent
