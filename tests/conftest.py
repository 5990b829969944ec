"""Shared brute-force oracles for the test suite.

The Kronecker oracles are built from raw numpy primitives (explicit
Kronecker products, direct eigh calls) so that they stay independent of the
library code they check. The finite-difference oracles take another route
to the same susceptibilities: central differences of the dense ground
state's ``<sz_i>`` under a displaced coefficient, instead of a sum over
excited states or a linear-response solve.
"""

import numpy as np

from witness_lab import (
    build_hamiltonian,
    coupled_pairs,
    diagonalize,
    ground_state,
    sigma_z_expectation,
)
from witness_lab.observables import ground_sz_on_path, resolve_fd_step

I2 = np.eye(2)
SX = np.array([[0.0, 1.0], [1.0, 0.0]])
SZ = np.array([[1.0, 0.0], [0.0, -1.0]])


def kron_op(mat, i, n):
    """Single-site operator embedded by explicit Kronecker products."""
    out = np.array([[1.0]])
    for k in range(n):
        out = np.kron(out, mat if k == i else I2)
    return out


def brute_hamiltonian(delta, h, J):
    """Reference Hamiltonian: canonical-order sum of embedded Pauli terms."""
    n = len(delta)
    dim = 2**n
    H = np.zeros((dim, dim))
    for i in range(n):
        H = H + (-0.5 * delta[i]) * kron_op(SX, i, n)
    for i in range(n):
        H = H + (-h[i]) * kron_op(SZ, i, n)
    for i in range(n):
        for j in range(i + 1, n):
            H = H + J[i][j] * (kron_op(SZ, i, n) @ kron_op(SZ, j, n))
    return H


def brute_sz(vec, i, n):
    """<vec|sz_i|vec> via the explicit embedded operator."""
    return float(vec @ (kron_op(SZ, i, n) @ vec))


def brute_chi_sos(energies, vectors, i, j, n):
    """Sum-over-states susceptibility straight from its defining formula."""
    v0 = vectors[:, 0]
    total = 0.0
    for k in range(1, len(energies)):
        vk = vectors[:, k]
        a = float(v0 @ (kron_op(SZ, j, n) @ vk))
        b = float(vk @ (kron_op(SZ, i, n) @ v0))
        c = float(v0 @ (kron_op(SZ, i, n) @ vk))
        d = float(vk @ (kron_op(SZ, j, n) @ v0))
        total += (a * b + c * d) / (energies[k] - energies[0])
    return total


def brute_ground(delta, h, J):
    """(energies, ground vector) from a direct eigh of the reference matrix."""
    energies, vectors = np.linalg.eigh(brute_hamiltonian(delta, h, J))
    return energies, vectors


def random_couplings(rng, n, zero_pairs=()):
    """Dense random symmetric zero-diagonal coupling matrix in [-1, 1]."""
    J = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in zero_pairs:
                J[i, j] = J[j, i] = rng.uniform(-1.0, 1.0)
    return J


def _ground_sz(system, i, deg_tol):
    spec = diagonalize(build_hamiltonian(system))
    gs = ground_state(spec, deg_tol)
    return sigma_z_expectation(gs.vector, i)


def susceptibility_fd(system, i, j, step=None, deg_tol=None):
    """Cross-susceptibility as a central difference of ``<sz_i>`` in ``h_j``.

    Raises ``DegenerateGroundError`` if either displaced system has a
    degenerate ground state.
    """
    n = system.n
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"qubit indices ({i}, {j}) out of range for n={n}")
    step = resolve_fd_step(step, system)
    plus = _ground_sz(system.with_bias(j, system.h[j] + step), i, deg_tol)
    minus = _ground_sz(system.with_bias(j, system.h[j] - step), i, deg_tol)
    return (plus - minus) / (2.0 * step)


def lambda_susceptibility(path, i, lambda0=0.0, step=None, deg_tol=None):
    """Derivative of ``<sz_i>`` along the path, by central difference."""
    if not 0 <= i < path.n:
        raise ValueError(f"qubit index {i} out of range for n={path.n}")
    step = resolve_fd_step(step, path.at(lambda0))
    plus = ground_sz_on_path(path, lambda0 + step, deg_tol)
    minus = ground_sz_on_path(path, lambda0 - step, deg_tol)
    return float((plus[i] - minus[i]) / (2.0 * step))


def per_cut_w_tilde(system, chi, cut):
    """Signed cut witness by a loop over the pairs crossing ``cut``, in
    lexicographic order, under the library's coupling rule."""
    coupled = coupled_pairs(system.J)
    total = 0.0
    for i in range(system.n):
        for j in range(i + 1, system.n):
            if cut.crosses(i, j) and coupled[i, j]:
                total += system.J[i, j] * chi[i, j]
    return total
