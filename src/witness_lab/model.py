"""Transverse-field Ising qubit systems and their dense Hamiltonian matrices.

The Hamiltonian acting on ``n`` qubits is

    H = -1/2 sum_i delta_i sx_i  -  sum_i h_i sz_i  +  sum_{i<j} J_ij sz_i sz_j

where ``sx_i`` and ``sz_i`` are single-qubit Pauli operators embedded into the
full 2^n-dimensional space by tensoring with identities. All coefficients are
real, so every matrix produced here is real symmetric and real eigensolvers
apply downstream.

Basis convention shared by every module in this package: a basis state is an
integer index ``b`` in ``[0, 2^n)``, qubit ``i`` occupies bit ``n - 1 - i`` of
``b`` (qubit 0 is the most significant bit), and ``<b|sz_i|b> = +1`` exactly
when that bit is 0. This matches the left-to-right order of the Kronecker
products used to embed single-qubit operators.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

MAX_QUBITS = 12  # dense 2^n x 2^n storage; 4096 is the largest dimension

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]])
IDENTITY_2 = np.eye(2)


class PauliAxis(Enum):
    """Single-qubit operator axis admitted by the real-valued model."""

    X = "x"
    Z = "z"


def _as_float_vector(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must contain only finite values")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class QubitSystem:
    """``n`` qubits with tunneling amplitudes, z biases and pair couplings.

    ``delta[i]`` and ``h[i]`` are the per-qubit tunneling and bias energies;
    ``J`` is the symmetric coupling matrix with zero diagonal. Instances are
    immutable: arrays are stored read-only, so a system can be shared freely
    across threads.
    """

    delta: np.ndarray
    h: np.ndarray
    J: np.ndarray

    def __post_init__(self):
        delta = _as_float_vector(self.delta, "delta")
        h = _as_float_vector(self.h, "h")
        n = delta.size
        if not 1 <= n <= MAX_QUBITS:
            raise ValueError(f"qubit count must be in [1, {MAX_QUBITS}], got {n}")
        if h.size != n:
            raise ValueError(f"h has length {h.size}, expected {n}")
        J = np.array(self.J, dtype=float)
        if J.shape != (n, n):
            raise ValueError(f"J has shape {J.shape}, expected ({n}, {n})")
        if not np.all(np.isfinite(J)):
            raise ValueError("J must contain only finite values")
        if not np.array_equal(J, J.T):
            raise ValueError("J must be symmetric")
        if np.any(np.diagonal(J) != 0.0):
            raise ValueError("J must have a zero diagonal")
        J.setflags(write=False)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "J", J)

    @classmethod
    def from_couplings(
        cls,
        delta: Sequence[float],
        h: Sequence[float],
        couplings: Iterable[tuple[int, int, float]] = (),
    ) -> "QubitSystem":
        """Build a system from an upper-triangle coupling list.

        Each entry is ``(i, j, value)`` with ``i < j``; the matrix is
        symmetrized internally. Listing the same pair twice is rejected
        rather than resolved last-wins.
        """
        n = len(delta)
        J = np.zeros((n, n))
        seen = set()
        for entry in couplings:
            i, j, value = entry
            if not (isinstance(i, int) and isinstance(j, int)):
                raise ValueError(f"coupling indices must be integers, got {entry!r}")
            if not 0 <= i < j < n:
                raise ValueError(
                    f"coupling ({i}, {j}) must satisfy 0 <= i < j < {n}"
                )
            if (i, j) in seen:
                raise ValueError(f"duplicate coupling entry for pair ({i}, {j})")
            seen.add((i, j))
            J[i, j] = J[j, i] = value
        return cls(delta=np.asarray(delta, dtype=float), h=np.asarray(h, dtype=float), J=J)

    @property
    def n(self) -> int:
        return self.delta.size

    @property
    def dim(self) -> int:
        return 1 << self.n

    @property
    def coefficient_scale(self) -> float:
        """Largest coefficient magnitude; 0.0 only for the all-zero system."""
        return float(
            max(np.abs(self.delta).max(), np.abs(self.h).max(), np.abs(self.J).max())
        )

    def with_bias(self, j: int, value: float) -> "QubitSystem":
        """Copy of the system with ``h[j]`` replaced by ``value``."""
        if not 0 <= j < self.n:
            raise ValueError(f"qubit index {j} out of range for n={self.n}")
        h = np.array(self.h)
        h[j] = value
        return QubitSystem(delta=self.delta, h=h, J=self.J)


@dataclass(frozen=True, eq=False)
class AffinePath:
    """Affine one-parameter family of systems: coefficients of ``base`` shifted
    by ``lam`` times those of ``direction``.

    Covers uniform-bias and single-qubit-bias sweeps; nonlinear parameter maps
    are out of scope.
    """

    base: QubitSystem
    direction: QubitSystem

    def __post_init__(self):
        if self.base.n != self.direction.n:
            raise ValueError(
                f"base has {self.base.n} qubits but direction has {self.direction.n}"
            )

    @property
    def n(self) -> int:
        return self.base.n

    def at(self, lam: float) -> QubitSystem:
        """System at parameter value ``lam``."""
        lam = float(lam)
        if not np.isfinite(lam):
            raise ValueError(f"path parameter must be finite, got {lam}")
        return QubitSystem(
            delta=self.base.delta + lam * self.direction.delta,
            h=self.base.h + lam * self.direction.h,
            J=self.base.J + lam * self.direction.J,
        )


def sigma_z_diagonal(i: int, n: int) -> np.ndarray:
    """Diagonal of the embedded ``sz_i`` operator: +-1 per basis state."""
    if not 0 <= i < n <= MAX_QUBITS:
        raise ValueError(f"require 0 <= i < n <= {MAX_QUBITS}, got i={i}, n={n}")
    bits = (np.arange(1 << n) >> (n - 1 - i)) & 1
    return 1.0 - 2.0 * bits


def embed_pauli(axis: PauliAxis, i: int, n: int) -> np.ndarray:
    """Dense 2^n x 2^n matrix acting with the given Pauli on qubit ``i``.

    The Kronecker factors run left to right over qubits 0..n-1, which makes
    qubit 0 the most significant bit of the basis index.
    """
    if not isinstance(axis, PauliAxis):
        raise TypeError(f"axis must be a PauliAxis, got {axis!r}")
    if not 0 <= i < n <= MAX_QUBITS:
        raise ValueError(f"require 0 <= i < n <= {MAX_QUBITS}, got i={i}, n={n}")
    single = PAULI_X if axis is PauliAxis.X else PAULI_Z
    out = np.array([[1.0]])
    for k in range(n):
        out = np.kron(out, single if k == i else IDENTITY_2)
    return out


def build_hamiltonian(system: QubitSystem) -> np.ndarray:
    """Dense real symmetric Hamiltonian matrix of a qubit system.

    Entrywise identical (not merely close) to summing the embedded Pauli
    terms in the canonical order: all transverse terms, then all bias terms,
    then couplings over pairs ``i < j``. The transverse part places ``-delta_i/2``
    at index pairs differing in exactly the bit of qubit ``i``; the diagonal
    carries the bias and coupling terms.
    """
    n = system.n
    dim = system.dim
    idx = np.arange(dim)

    H = np.zeros((dim, dim))
    for i in range(n):
        flipped = idx ^ (1 << (n - 1 - i))
        H[idx, flipped] += -0.5 * system.delta[i]
    H[idx, idx] += hamiltonian_diagonal(system)
    return H


def hamiltonian_diagonal(system: QubitSystem) -> np.ndarray:
    """Diagonal of the Hamiltonian: the bias and coupling terms, accumulated
    in the canonical order (all biases, then pairs ``i < j``)."""
    n = system.n
    signs = [sigma_z_diagonal(i, n) for i in range(n)]
    diag = np.zeros(system.dim)
    for i in range(n):
        diag += -system.h[i] * signs[i]
    for i in range(n):
        for j in range(i + 1, n):
            diag += system.J[i, j] * (signs[i] * signs[j])
    return diag
