"""The textbook numpy expressions that the posterior, distance and density
kernels are pinned to bit for bit: whole-array sums, means and standard
deviations, so numpy's own pairwise summation order, and the density
kernel's per-node expressions."""

import math

import numpy as np

from stableinfer.stable import _G7_WEIGHTS, _GK_NODES, _GK_WEIGHTS


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


# The density kernel's per-node pieces as first written, one whole-array
# expression each (stable._Zolotarev, _gk_panel and _gk_sum); the kernel
# forms the same quantities in place and must keep every bit of them.

def textbook_ts(law, v):
    w = law.width
    if law.alpha == 1.0:
        y = np.abs(v) * w
        small = 2.0 * w / (2.0 + y + np.hypot(y, 2.0))
        big = w - small
    else:
        e = np.exp(-np.abs(v))
        small = w * e / (1.0 + e)
        big = w / (1.0 + e)
    return np.where(v < 0, small, big), np.where(v < 0, big, small)


def textbook_jacobian(law, t, s):
    if law.alpha == 1.0:
        t2, s2 = t * t, s * s
        return t2 * s2 / (t2 + s2)
    return t * s / law.width


def textbook_log_v(law, t, s):
    a = law.alpha
    if a == 1.0:
        b = law.beta
        right = s < t
        cos_theta = np.sin(np.where(right, s, t))
        sin_theta = np.where(right, np.cos(s), -np.cos(t))
        lin = np.where(right, 0.5 * math.pi * (1.0 + b) - b * s,
                       0.5 * math.pi * (1.0 - b) + b * t)
        return (math.log(2.0 / math.pi) + np.log(lin / cos_theta)
                + lin * sin_theta / (cos_theta * b))
    return (law.log_c + np.log(np.sin(s)) / (a - 1.0)
            - law.exponent * np.log(np.sin(a * t))
            + np.log(np.cos(law.theta0 + (a - 1.0) * t)))


def textbook_gk_sum(f, half):
    kronrod = np.einsum("...i,i", f, _GK_WEIGHTS)
    err = np.abs(kronrod - np.einsum("...i,i", f, _G7_WEIGHTS))
    resasc = np.einsum("...i,i", np.abs(f - 0.5 * kronrod[..., None]), _GK_WEIGHTS)
    err = np.where(resasc > 0.0, resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5), err)
    err = np.maximum(err, 50.0 * np.finfo(float).eps * np.abs(kronrod))
    return half * kronrod, half * err


def textbook_gk_panel(law, log_scale, va, vb, integrand, tail=0.0):
    if tail:
        w = 0.5 * (1.0 + _GK_NODES)
        v = va[:, None] - (tail / law.tail_rate) * np.log(w)
        half = np.full(va.shape, 0.5 / law.tail_rate)
        dv = 1.0 / w
    else:
        half = 0.5 * (vb - va)
        v = (va + half)[:, None] + half[:, None] * _GK_NODES
        dv = 1.0
    t, s = textbook_ts(law, v)
    log_g = log_scale[:, None] + textbook_log_v(law, t, s)
    g = np.exp(log_g)
    if integrand == "g*exp(-g)":
        f = np.exp(log_g - g)
    elif integrand == "exp(-g)":
        f = np.exp(-g)
    else:
        f = -np.expm1(-g)
    f *= textbook_jacobian(law, t, s) * dv
    return textbook_gk_sum(f, half)
