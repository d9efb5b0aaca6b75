"""Matched Cauchy and Gaussian random fields in a step-wavelet basis.

Each field is u(x) = sum_{j=0}^{J} sum_{k} u_{j,k} 2^{j/2} psi(2^j x - k)
with u_{j,k} = (j+1)^{-2} 2^{-j} times a standard Cauchy or standard
normal draw.  Both families are driven by the identical underlying
uniforms for the chosen seed, so the galleries differ only through the
coefficient law: the Cauchy family shows isolated large local
deviations (inclusions, edges); the Gaussian one stays uniformly mild.

Writes one CSV per family (samples in rows, rescaled jointly onto
[0, 1]) next to this script; plot any row against x in [0, 1] to see the
fields.
"""

from pathlib import Path

import numpy as np

from stableinfer import wavelet_gallery_ensemble
from stableinfer.ensemble_io import write_matrix_csv

LEVELS = 10
N_SAMPLES = 20
SEED = 20260808
OUT = Path(__file__).resolve().parent

galleries = {}
for family in ("cauchy", "gaussian"):
    g = wavelet_gallery_ensemble(family, LEVELS, N_SAMPLES, SEED)
    galleries[family] = g
    path = OUT / f"gallery_{family}.csv"
    columns = [f"x{j}" for j in range(g.rescaled_grid.shape[1])]
    write_matrix_csv(path, g.rescaled_grid, columns,
                     f"family={family} seed={SEED} levels={LEVELS}")
    print(f"wrote {path.name}: {N_SAMPLES} fields on {g.rescaled_grid.shape[1]} grid points")

c = galleries["cauchy"].ensemble.coefficients
g = galleries["gaussian"].ensemble.coefficients
print()
print("same seed, same scales, different coefficient law:")
print(f"  largest |coefficient|, cauchy   : {np.abs(c).max():.4f}")
print(f"  largest |coefficient|, gaussian : {np.abs(g).max():.4f}")
print(f"  heavy-tail contrast factor      : {np.abs(c).max() / np.abs(g).max():.1f}x")
print()
print("Field ranges before the joint rescaling (per family):")
for family, gal in galleries.items():
    print(f"  {family:8s} raw range [{gal.offset:+.3f}, {gal.offset + gal.scale:+.3f}]")
