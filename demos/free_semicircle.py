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
    CLTResult,
    TruncatedFock,
    catalan_numbers,
    fock_semicircular_moments,
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
    print(f"  trace-norm margins: triangle {conv.triangle:.4f}, column {conv.column:.4f}, "
          f"cross-term defect {conv.cross_term_defect:.4f}")

    print("\nexact Fock model:")
    moments = fock_semicircular_moments(8, 5)
    print(f"  even vacuum moments {moments}")
    print(f"  Catalan numbers     {catalan_numbers(5)}")
    defect = TruncatedFock(letter_dim=2, cutoff=5).compression_defect(0)
    print(f"  off-diagonal compression of a mean-zero letter: {defect:.1e}")

    print("\nfree central limit (normalised sums of rotated sign spectra):")
    signs = np.where(np.arange(dim) < dim // 2, 1.0, -1.0)
    families = [free_family([signs] * n, dim, seed=s) for s in np.random.SeedSequence(2).spawn(5)]
    res = CLTResult.from_families(families)
    print(f"  moments k=1..4: {[f'{m:.4f}' for m in res.moments]}")
    print(f"  semicircle targets:      {res.targets}")
    # free cumulants add, so n members give 2 + kappa_4 / (n kappa_2^2), with
    # kappa_2 = m_2 and kappa_4 = m_4 - 2 m_2^2 of the centred spectrum
    centred = signs - signs.mean()
    m2, m4 = np.mean(centred**2), np.mean(centred**4)
    print(f"  exact fourth moment at n={n}: {2.0 + (m4 - 2.0 * m2**2) / (n * m2**2):.4f}")


if __name__ == "__main__":
    main()
