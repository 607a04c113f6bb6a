"""Voiculescu's inequality on the rotated matrix model and the exact Fock model.

Independently Haar-rotated semicircular matrices are asymptotically free, so
the norm of their sum approaches 2 sqrt(n) while the inequality's right-hand
side stays about 2 + 2 sqrt(n).  The truncated Fock model is exactly free:
vacuum moments of l + l* are Catalan numbers and the off-diagonal compression
of a mean-zero letter vanishes identically.
"""

import math

import numpy as np

from ohlab.freeprob import (
    TruncatedFock,
    catalan_numbers,
    fock_semicircular_moments,
    free_clt_check,
    free_family,
    semicircle_diag,
    voiculescu_check,
    voiculescu_converse_check,
)


def main():
    dim, n = 256, 16
    spectrum = semicircle_diag(dim)
    fam = free_family([spectrum] * n, dim, seed=1)
    res = voiculescu_check(fam)
    print(f"rotated model, D={dim}, n={n}:")
    print(f"  ||sum a_i||      = {res.lhs:.4f}   (free prediction {2 * math.sqrt(n):.4f})")
    print(f"  inequality rhs   = {res.rhs:.4f}   margin {res.margin:.4f}")
    conv = voiculescu_converse_check(fam)
    print(f"  trace-norm margins: triangle {conv.triangle:.4f}, "
          f"column {conv.column:.4f}, row {conv.row:.4f}")

    print("\nexact Fock model:")
    moments = fock_semicircular_moments(8, 5)
    print(f"  even vacuum moments {moments}")
    print(f"  Catalan numbers     {catalan_numbers(5)}")
    fock = TruncatedFock(letter_dim=2, cutoff=5)
    a = fock.semicircular(letter=0)
    p1 = fock.letter_start_projection(0)
    eye = np.eye(fock.dim)
    defect = np.max(np.abs((eye - p1) @ a @ (eye - p1)))
    print(f"  off-diagonal compression of a mean-zero letter: {defect:.1e}")

    print("\nfree central limit (normalised sums of rotated sign spectra):")
    signs = np.where(np.arange(dim) < dim // 2, 1.0, -1.0)
    res = free_clt_check(16, dim, trials=5, seed=2, spectrum=signs)
    print(f"  moments k=1..4: {[f'{m:.4f}' for m in res.moments]}")
    print(f"  semicircle targets:      {res.targets}")


if __name__ == "__main__":
    main()
