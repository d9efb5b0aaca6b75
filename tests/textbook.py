"""The textbook numpy expressions that the posterior and distance kernels
are pinned to bit for bit: whole-array sums, means and standard
deviations, so numpy's own pairwise summation order."""

import math

import numpy as np


def bits(x) -> str:
    x = float(x)
    return "nan" if math.isnan(x) else x.hex()


def textbook_z(phi):
    """The weights, and Z, its stderr, log Z and the ESS."""
    shift = float(phi.min())
    w = np.exp(-(phi - shift))
    n = w.size
    mean_w = float(w.mean())
    z = math.exp(-shift) * mean_w
    stderr = math.exp(-shift) * float(w.std(ddof=1)) / math.sqrt(n) if n > 1 else 0.0
    log_z = -shift + math.log(mean_w)
    s = w.sum()
    ess = float(s * s / (w ** 2).sum())
    return w, (z, stderr, log_z, ess)


def textbook_distances(w, v):
    """Hellinger, its stderr and TV; the stderr is the delta method's, that
    of psi = g - (d^2/2)(p + q)."""
    mw, mv = float(w.mean()), float(v.mean())
    a = np.sqrt(w / mw)
    b = np.sqrt(v / mv)
    g = (a - b) ** 2
    d2 = g.mean()
    d = math.sqrt(max(float(d2), 0.0))
    if d <= 0.0 or g.size < 2:
        se = 0.0
    else:
        psi = g - (d2 / 2) * (w / mw + v / mv)
        se = float(psi.std(ddof=1) / math.sqrt(g.size)) / (2.0 * d)
    tv = float(0.5 * np.abs(w / mw - v / mv).mean())
    return d, se, tv
