"""Entanglement witnesses built from couplings and cross-susceptibilities.

For a cut of the qubit set into parts A and B, the signed quantity

    w_tilde(A, B) = sum over coupled pairs crossing the cut of J_ij * chi_ij

vanishes whenever the (nondegenerate, real) ground state factorizes across
the cut, so a nonzero value certifies entanglement between A and B. The
normalized per-cut witness ``|w~| / (N_AB + |w~|)`` and the geometric-mean
global witness over all cuts are both bounded in [0, 1). A path-based
witness ``sum_{i<j} |J_ij * chi_i * chi_j|`` with chi taken along a sweep
direction certifies entanglement without resolving individual cuts.

Every cut is evaluated at once from the cached ``crossing_table`` (which
pair crosses which cut) and ``coupled_pairs``, the one rule for which pairs
count as coupled: ``N_AB``, ``w_tilde``, path certification and
``check_pinned_pairs`` all use it.

A nonzero witness is sufficient evidence, never necessary: silent witnesses
prove nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import MAX_QUBITS, AffinePath, QubitSystem
from .observables import cross_susceptibility_matrix, ground_sz_on_path, resolve_fd_step
from .spectrum import DegenerateGroundError, GroundState, Spectrum, ground_state

COUPLING_RTOL = 1e-12  # |J_ij| above 1e-12 * max(1, max|J|) counts as a coupling


@dataclass(frozen=True)
class Bipartition:
    """A cut of ``n`` qubits: qubit ``i`` belongs to part A iff bit ``i`` of
    ``mask`` is set; part B is the complement.

    Canonical form puts qubit 0 in A, which deduplicates complements;
    ``enumerate_bipartitions`` yields only canonical cuts, but non-canonical
    masks are accepted so that a cut and its complement can both be evaluated.
    """

    mask: int
    n: int

    def __post_init__(self):
        if not 2 <= self.n:
            raise ValueError(f"a bipartition needs at least 2 qubits, got n={self.n}")
        full = (1 << self.n) - 1
        if not 0 < self.mask < full:
            raise ValueError(
                f"mask {self.mask:#x} must select a nonempty proper subset of {self.n} qubits"
            )

    @property
    def members(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n) if self.mask >> i & 1)

    @property
    def complement_members(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n) if not self.mask >> i & 1)

    @property
    def is_canonical(self) -> bool:
        return bool(self.mask & 1)

    def complement(self) -> "Bipartition":
        return Bipartition(mask=((1 << self.n) - 1) ^ self.mask, n=self.n)

    def canonical(self) -> "Bipartition":
        return self if self.is_canonical else self.complement()

    def crosses(self, i: int, j: int) -> bool:
        """True when qubits ``i`` and ``j`` sit on opposite sides of the cut."""
        return bool((self.mask >> i & 1) != (self.mask >> j & 1))


def enumerate_bipartitions(n: int) -> list[Bipartition]:
    """All canonical cuts of ``n`` qubits, ascending by mask.

    There are exactly ``2^(n-1) - 1`` of them: every subset containing
    qubit 0 except the full set.
    """
    if not 2 <= n <= MAX_QUBITS:
        raise ValueError(f"bipartitions require 2 <= n <= {MAX_QUBITS}, got n={n}")
    full = (1 << n) - 1
    return [Bipartition(mask=m, n=n) for m in range(1, full, 2)]


@lru_cache(maxsize=None)
def _canonical_cuts(n: int) -> tuple[Bipartition, ...]:
    return tuple(enumerate_bipartitions(n))


@lru_cache(maxsize=None)
def crossing_table(n: int) -> np.ndarray:
    """Read-only ``(2^(n-1) - 1, n(n-1)/2)`` boolean table whose entry
    ``[c, p]`` is true when pair ``p`` crosses cut ``c``.

    Cuts run in ``enumerate_bipartitions(n)`` order and pairs ``i < j`` in
    lexicographic order, as ``np.triu_indices(n, 1)`` lists them. A cut and
    its complement have the same crossing pairs. Cached per ``n``.
    """
    masks = np.array([cut.mask for cut in _canonical_cuts(n)])
    side = (masks[:, None] >> np.arange(n)) & 1
    i, j = np.triu_indices(n, 1)
    table = side[:, i] != side[:, j]
    table.setflags(write=False)
    return table


def coupled_pairs(J: np.ndarray) -> np.ndarray:
    """Boolean mask of the coupled pairs, ``|J_ij| > COUPLING_RTOL * max(1,
    max|J|)``, per matrix over the last two axes (leading axes are a batch)."""
    # The scale first: its |J| temporary is freed before the one compared.
    scale = np.maximum(1.0, np.abs(J).max(axis=(-2, -1), keepdims=True))
    return np.abs(J) > COUPLING_RTOL * scale


def count_crossing_couplings(system: QubitSystem) -> np.ndarray:
    """``n_ab`` of every canonical cut, in ``enumerate_bipartitions`` order:
    the number of coupled pairs crossing it."""
    table = crossing_table(system.n)
    i, j = np.triu_indices(system.n, 1)
    return np.count_nonzero(table & coupled_pairs(system.J)[i, j], axis=1)


def witness_ab(
    w_tilde: float | np.ndarray, n_ab: int | np.ndarray
) -> float | np.ndarray:
    """Normalized per-cut witness ``|w~| / (n_ab + |w~|)`` in [0, 1),
    elementwise over arrays of cuts.

    A cut with no couplings can never be certified by this witness, so
    ``n_ab = 0`` maps to 0 by convention.
    """
    n_ab = np.asarray(n_ab)
    if np.any(n_ab < 0):
        raise ValueError(f"n_ab must be nonnegative, got {n_ab}")
    magnitude = np.abs(w_tilde)
    w_ab = np.divide(
        magnitude, n_ab + magnitude, out=np.zeros(np.shape(magnitude)), where=n_ab > 0
    )
    return w_ab[()]


@dataclass(frozen=True, eq=False)
class CutWitness:
    partition: Bipartition
    w_tilde: float
    n_ab: int
    w_ab: float


@dataclass(frozen=True, eq=False)
class WitnessReport:
    """Per-cut witnesses for every bipartition plus the global aggregate.

    ``w_lambda`` is populated only when the report was computed along a
    sweep path; it stays ``None`` for a bare system.
    """

    cuts: list[CutWitness]
    w_lambda: float | None
    w_global: float


def _global_witness(w_tilde: np.ndarray, n_ab: np.ndarray) -> float:
    """Geometric mean of ``|w_tilde| / n_ab`` over all cuts, mapped into
    [0, 1); any silent or uncoupled cut makes it exactly 0."""
    if not (n_ab.all() and w_tilde.all()):
        return 0.0
    # Geometric mean through logs: the product over up to 2^(n-1) - 1 cuts
    # would overflow long before the mean does. math.log, because numpy's
    # log differs from the C library's in the last bit on some inputs.
    ratios = (np.abs(w_tilde) / n_ab).tolist()
    mean_log = float(np.mean(list(map(math.log, ratios))))
    if mean_log > 0.0:
        return 1.0 / (1.0 + math.exp(-mean_log))
    g = math.exp(mean_log)
    return g / (1.0 + g)


def _report(
    ground: GroundState,
    chi: np.ndarray,
    system: QubitSystem,
    w_lambda: float | None,
) -> WitnessReport:
    # Taking a GroundState means the degeneracy gate has passed: chi is only
    # meaningful for a unique ground state. Here only the shapes are checked.
    if ground.vector.shape != (system.dim,) or chi.shape != (system.n, system.n):
        raise ValueError(
            f"ground state of length {ground.vector.size} and chi of shape "
            f"{chi.shape} do not belong to a {system.n}-qubit system"
        )
    partitions = _canonical_cuts(system.n)
    n_ab = count_crossing_couplings(system)
    table = crossing_table(system.n)
    i, j = np.triu_indices(system.n, 1)
    # Pair by pair in lexicographic order: every cut's sum runs over its
    # crossing pairs in the same order, so a cut and its complement, and any
    # per-cut loop in that order, give bitwise the same value.
    w_tilde = np.zeros(len(partitions))
    for p in np.flatnonzero(coupled_pairs(system.J)[i, j]):
        w_tilde[table[:, p]] += system.J[i[p], j[p]] * chi[i[p], j[p]]
    w_ab = witness_ab(w_tilde, n_ab)
    cuts = [
        CutWitness(partition=partition, w_tilde=tilde, n_ab=count, w_ab=value)
        for partition, tilde, count, value in zip(
            partitions, w_tilde.tolist(), n_ab.tolist(), w_ab.tolist()
        )
    ]
    return WitnessReport(
        cuts=cuts, w_lambda=w_lambda, w_global=_global_witness(w_tilde, n_ab)
    )


def witness_lambda(
    path: AffinePath,
    lambda0: float = 0.0,
    step: float | None = None,
    deg_tol: float | None = None,
) -> float:
    """Path witness: sum of ``|J_ij * chi_i * chi_j|`` over unordered pairs.

    The susceptibilities are derivatives of every ``<sz_i>`` along the path,
    taken at ``lambda0`` with one shared central-difference stencil. Strictly
    positive values certify entanglement of the ground state at ``lambda0``.
    """
    system = path.at(lambda0)
    step = resolve_fd_step(step, system)
    plus = ground_sz_on_path(path, lambda0 + step, deg_tol)
    minus = ground_sz_on_path(path, lambda0 - step, deg_tol)
    chi = (plus - minus) / (2.0 * step)
    total = 0.0
    for i in range(system.n):
        for j in range(i + 1, system.n):
            total += abs(system.J[i, j] * chi[i] * chi[j])
    return total


def witness_report(
    spec: Spectrum,
    system: QubitSystem,
    deg_tol: float | None = None,
    path: AffinePath | None = None,
    lambda0: float = 0.0,
    fd_step: float | None = None,
) -> WitnessReport:
    """Assemble all per-cut witnesses and the global witness from a dense
    spectrum.

    When a ``path`` is supplied, ``w_lambda`` is evaluated at ``lambda0``;
    a degenerate difference stencil leaves it ``None`` instead of failing
    the whole report.
    """
    ground = ground_state(spec, deg_tol)
    chi = cross_susceptibility_matrix(spec, deg_tol)
    w_lambda = None
    if path is not None:
        try:
            w_lambda = witness_lambda(path, lambda0, fd_step, deg_tol)
        except DegenerateGroundError:
            w_lambda = None
    return _report(ground, chi, system, w_lambda)


def assemble_witness_report(
    ground: GroundState, chi: np.ndarray, system: QubitSystem
) -> WitnessReport:
    """Per-cut and global witnesses from a gated ground state and its
    susceptibility matrix, as ``ground_response`` returns them; ``w_lambda``
    stays ``None``."""
    return _report(ground, chi, system, None)
