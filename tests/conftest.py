"""Shared brute-force oracles for the test suite.

The Kronecker oracles are built from raw numpy primitives (explicit
Kronecker products, direct eigh calls) so that they stay independent of the
library code they check. The finite-difference oracles take another route
to the same susceptibilities: central differences of the ground state's
``<sz_i>`` under a displaced coefficient, instead of a sum over excited
states or a linear-response solve. Their step rule lives here with them.
``structurally_entangled`` answers per cut, from the coefficients alone,
what the Schmidt decomposition answers from the state.
"""

import numpy as np

from witness_lab import (
    Bipartition,
    QubitSystem,
    build_hamiltonian,
    coupled_pairs,
    diagonalize,
    ground_state,
)
from witness_lab.observables import ground_sz_on_path
from witness_lab.spectrum import require_positive_finite

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


def sigma_z_expectation(state, i):
    """Per-qubit oracle for ``sigma_z_profile``: ``<state|sz_i|state>`` for a
    normalized real state, from the diagonal of ``sz_i`` built by Kronecker
    products of one-qubit diagonals. The same sum of the same products as
    the library's row, so the two agree bitwise. ``ValueError`` for an
    unnormalized state, a length that is not a power of two or a qubit index
    out of range."""
    state = np.asarray(state, dtype=float)
    n = state.size.bit_length() - 1
    if state.ndim != 1 or state.size != 1 << n:
        raise ValueError(f"state length {state.size} is not a power of two")
    if abs(np.linalg.norm(state) - 1.0) > 1e-9:
        raise ValueError("state is not normalized")
    if not 0 <= i < n:
        raise ValueError(f"qubit index {i} out of range for n={n}")
    signs = np.ones(1)
    for k in range(n):
        signs = np.kron(signs, np.diagonal(SZ) if k == i else np.ones(2))
    return float(np.dot(signs * state, state))


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


def default_fd_step(system):
    """Central-difference step: 1e-4 of the dominant coefficient scale.

    Balances truncation against round-off cancellation for double-precision
    expectation values.
    """
    return 1e-4 * max(1.0, system.coefficient_scale)


def resolve_fd_step(step, system):
    """``default_fd_step(system)`` for ``None``; an explicit step must be
    positive and finite."""
    if step is None:
        return default_fd_step(system)
    return require_positive_finite("fd_step", step)


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

    def displaced(shift):
        h = np.array(system.h)
        h[j] += shift
        return QubitSystem(delta=system.delta, h=h, J=system.J)

    plus = _ground_sz(displaced(step), i, deg_tol)
    minus = _ground_sz(displaced(-step), i, deg_tol)
    return (plus - minus) / (2.0 * step)


def lambda_susceptibilities(path, lambda0=0.0, step=None, deg_tol=None):
    """Derivatives of every ``<sz_i>`` along the path, by one central
    difference of the ground-state profile."""
    step = resolve_fd_step(step, path.at(lambda0))
    plus = ground_sz_on_path(path, lambda0 + step, deg_tol)
    minus = ground_sz_on_path(path, lambda0 - step, deg_tol)
    return (plus - minus) / (2.0 * step)


def lambda_susceptibility(path, i, lambda0=0.0, step=None, deg_tol=None):
    """Derivative of ``<sz_i>`` along the path, by central difference."""
    if not 0 <= i < path.n:
        raise ValueError(f"qubit index {i} out of range for n={path.n}")
    return float(lambda_susceptibilities(path, lambda0, step, deg_tol)[i])


def is_canonical(cut):
    """True when qubit 0 is in part A, the orientation
    ``enumerate_bipartitions`` yields."""
    return bool(cut.mask & 1)


def complement(cut):
    """The same cut with parts A and B swapped."""
    return Bipartition(mask=((1 << cut.n) - 1) ^ cut.mask, n=cut.n)


def canonical(cut):
    """``cut`` in canonical orientation."""
    return cut if is_canonical(cut) else complement(cut)


def crosses(cut, i, j):
    """True when qubits ``i`` and ``j`` sit on opposite sides of ``cut``."""
    return bool((cut.mask >> i & 1) != (cut.mask >> j & 1))


def per_cut_w_tilde(system, chi, cut):
    """Signed cut witness by a loop over the pairs crossing ``cut``, in
    lexicographic order, under the library's coupling rule."""
    coupled = coupled_pairs(system.J)
    total = 0.0
    for i in range(system.n):
        for j in range(i + 1, system.n):
            if crosses(cut, i, j) and coupled[i, j]:
                total += system.J[i, j] * chi[i, j]
    return total


def structurally_entangled(system, cut):
    """True when a nondegenerate ground state of ``system`` is entangled
    across ``cut``: some ``J_kl != 0`` joins two quantum qubits
    (``delta != 0``) on opposite sides (Perron-Frobenius; the proof sketch
    is in ``witness_lab.sweep._entangled_point``)."""
    quantum = np.asarray(system.delta) != 0.0
    return any(
        system.J[k, l] != 0.0 and quantum[k] and quantum[l] and crosses(cut, k, l)
        for k in range(system.n)
        for l in range(k + 1, system.n)
    )


def random_system_with_classical_qubits(rng, n):
    """``n`` qubits with ``|delta|`` in [0.1, 1.5], each qubit classical
    (``delta = 0``) with probability 1/4, ``h`` in [-1, 1], and half of the
    couplings zero, the others of magnitude in [0.1, 1.5]."""

    def magnitudes(shape):
        return rng.choice([-1.0, 1.0], shape) * rng.uniform(0.1, 1.5, shape)

    delta = np.where(rng.random(n) < 0.25, 0.0, magnitudes(n))
    J = np.triu(np.where(rng.random((n, n)) < 0.5, 0.0, magnitudes((n, n))), 1)
    return QubitSystem(delta=delta, h=rng.uniform(-1.0, 1.0, n), J=J + J.T)
