"""The DEC Laplacian against the smooth spectrum.

On 0-forms the hybrid-volume Laplacian tends to Delta_LB / d, so on the
unit 2-sphere its eigenvalues tend to l(l+1)/2, with multiplicity
2l + 1.  The assembled operator is Delta_0 = M^-1 A with A symmetric and
M = diag(V_0) the vertex hybrid volumes, so its spectrum is that of the
symmetric matrix M^1/2 Delta_0 M^-1/2.
"""

import numpy as np

from pfcurv import SIMPLICIAL, Cochain, gen_icosphere, laplacian

L_MAX = 4


def _spectrum(level: int) -> np.ndarray:
    m = gen_icosphere(level)
    n = m.complex.n_simplices(0)
    # row i is Delta e_i, so the operator's matrix is the transpose
    op = laplacian(Cochain(m, SIMPLICIAL, 0, np.eye(n))).values.T
    root = np.sqrt(m.hybrid_volumes[0])
    s = root[:, None] * op / root[None, :]
    assert np.abs(s - s.T).max() <= 1e-15 * np.abs(s).max()
    return np.linalg.eigvalsh(s)


def _worst_relative_error(eigenvalues: np.ndarray) -> float:
    """Largest |lambda / (l(l+1)/2) - 1| over 1 <= l <= L_MAX, with the
    eigenvalues taken in ascending order in blocks of 2l + 1."""
    targets = np.concatenate([np.full(2 * l + 1, l * (l + 1) / 2) for l in range(1, L_MAX + 1)])
    return float(np.abs(eigenvalues[1 : 1 + len(targets)] / targets - 1).max())


def test_laplacian_spectrum_converges_to_laplace_beltrami_over_d():
    spectra = {level: _spectrum(level) for level in (2, 3)}
    for ev in spectra.values():
        assert np.count_nonzero(np.abs(ev) < 1e-9 * ev.max()) == 1  # constants only
        assert ev.min() > -1e-9 * ev.max()
    worst = {level: _worst_relative_error(ev) for level, ev in spectra.items()}
    assert worst[3] <= worst[2] / 3
    assert worst[3] <= 0.039
