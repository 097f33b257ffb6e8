"""Reference routines the tests compare the package against.  No code in
src/ calls them."""

import numpy as np

from fraccond.walk import WalkParams, _band


def incoming_weights(wp: WalkParams, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Normalized incoming jump probabilities P(x_i, k) over 0 < |k| <= K.

    Returns (offsets, probabilities); probabilities sum to 1 exactly by
    construction (the k = 0 slot is excluded).
    """
    if not 0 <= i < wp.n_sites:
        raise ValueError(f"incoming_weights: site {i} outside the lattice")
    K = wp.K
    ge = np.pad(wp.gamma_sqrt, K, constant_values=1.0)
    f = _band(ge[i:i + 2 * K + 1], K)[0] * wp.offset_weights
    return wp.offsets.copy(), f / f.sum()
