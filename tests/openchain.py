"""The dense open-chain matrix, for tests that diagonalize or inspect the
whole Hamiltonian rather than its two bands."""

import numpy as np

from aahpump.model import open_hamiltonian


def open_matrix(params, num_sites, ky):
    """num_sites x num_sites open-chain Hamiltonian built from the (diag,
    off) bands that open_hamiltonian returns."""
    diag, off = open_hamiltonian(params, num_sites, ky)
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
