"""Entanglement witnesses built from couplings and cross-susceptibilities.

For a cut of the qubit set into parts A and B, the signed quantity

    w_tilde(A, B) = sum over coupled pairs crossing the cut of J_ij * chi_ij

vanishes whenever the (nondegenerate, real) ground state factorizes across
the cut, so a nonzero value certifies entanglement between A and B. The
normalized per-cut witness ``|w~| / (N_AB + |w~|)`` and the geometric-mean
global witness over all cuts are both bounded in [0, 1). A path-based
witness ``sum_{i<j} |J_ij * chi_i * chi_j|``, with ``chi_i = d<sz_i>/dlambda``
the exact path response along a direction (``observables.path_response``),
certifies entanglement without resolving individual cuts. A classical
qubit (``delta_i = 0``) is in a product state with the rest, so its ``chi``
row and column and its path response are set to exactly 0.0 before any
sum. When the path point at ``lambda0`` is the system itself, the reports
take ``w_lambda`` from their own ground-state solve; otherwise
``witness_lambda`` solves the path point. ``witness_report`` (from a given
dense spectrum) and ``solve_witness_report`` (from its own solve) hand
their responses to one body: a degenerate ground level at the system or at
``lambda0`` raises ``DegenerateGroundError`` in both.

Every cut is evaluated at once from the cached ``crossing_table`` (which
pair crosses which cut) and ``coupled_pairs``, the one rule for which pairs
count as coupled: ``N_AB``, ``w_tilde``, path certification and
``check_pinned_pairs`` all use it.

A silent ``w_tilde`` proves nothing on frustrated couplings, whose crossing
terms can cancel on a strongly entangled cut (``tests/test_witness.py``).
On unfrustrated ones (signs ``s_i`` make every ``s_i s_j J_ij <= 0``) every
``J_ij chi_ij <= 0``, so ``|w_tilde(A, B)| >=`` the largest crossing
``|J_ij chi_ij|``. Sketch: conjugating by ``sx_q`` where ``s_q = -1`` flips
``h_q``, ``J_qk`` and ``chi_qk`` and leaves every ``J_ij <= 0``, and by
``sz_q`` every ``delta_q >= 0``. Suzuki-Trotter (Prog. Theor. Phys. 56,
1454, 1976) maps this ground state to a classical ferromagnetic Ising model
in one more dimension, whose connected correlations FKG (Commun. Math.
Phys. 22, 89, 1971) makes nonnegative, and ``chi_ij`` integrates them over
imaginary time. Open: strictness, ``chi_ij > 0`` for coupled quantum qubits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .model import MAX_QUBITS, AffinePath, QubitSystem
from .observables import Responses, _solve, path_response, spectrum_response
from .spectrum import Spectrum

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


@lru_cache(maxsize=None)
def enumerate_bipartitions(n: int) -> tuple[Bipartition, ...]:
    """All canonical cuts of ``n`` qubits, ascending by mask.

    There are exactly ``2^(n-1) - 1`` of them: every subset containing
    qubit 0 except the full set. Cached per ``n``; the cuts are immutable.
    """
    if not 2 <= n <= MAX_QUBITS:
        raise ValueError(f"bipartitions require 2 <= n <= {MAX_QUBITS}, got n={n}")
    full = (1 << n) - 1
    return tuple(Bipartition(mask=m, n=n) for m in range(1, full, 2))


@lru_cache(maxsize=None)
def crossing_table(n: int) -> np.ndarray:
    """Read-only ``(2^(n-1) - 1, n(n-1)/2)`` boolean table whose entry
    ``[c, p]`` is true when pair ``p`` crosses cut ``c``.

    Cuts run in ``enumerate_bipartitions(n)`` order and pairs ``i < j`` in
    lexicographic order, as ``np.triu_indices(n, 1)`` lists them. A cut and
    its complement have the same crossing pairs. Cached per ``n``.
    """
    masks = np.array([cut.mask for cut in enumerate_bipartitions(n)])
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


class CutWitness(NamedTuple):
    """One cut's witness. A named tuple, not a frozen dataclass: a report
    holds one per cut (1023 at n = 11), and a tuple is built about 3x
    faster."""

    partition: Bipartition
    w_tilde: float
    n_ab: int
    w_ab: float


@dataclass(frozen=True, eq=False)
class WitnessReport:
    """Per-cut witnesses for every bipartition plus the global aggregate.

    ``w_lambda`` is populated only when the report was computed along a
    path; it stays ``None`` for a bare system.
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


def _structural_zeros(system: QubitSystem, values: np.ndarray) -> np.ndarray:
    """``chi`` (``(n, n)``) or a path response (``(n,)``) of ``system``'s
    ground state with every entry of a classical qubit, ``delta_i = 0``,
    set to exactly 0.0. Such a qubit's ``sz_i`` commutes with H, so a
    nondegenerate ground state is an ``sz_i`` eigenstate and ``chi_ij``,
    ``chi_ji`` and ``d<sz_i>/dlambda`` vanish along any direction; the
    solvers would give rounding noise instead."""
    quantum = system.delta != 0.0
    keep = quantum if values.ndim == 1 else np.outer(quantum, quantum)
    return np.where(keep, values, 0.0)


def _lambda_sum(system: QubitSystem, response: np.ndarray) -> float:
    """``sum_{i<j} |J_ij * chi_i * chi_j|`` of the path response ``chi_i``
    of ``system``, after its structural zeros; ``ValueError`` when it does
    not fit in a float."""
    J, chi = system.J, _structural_zeros(system, response)
    i, j = np.triu_indices(chi.size, 1)
    with np.errstate(over="ignore", invalid="ignore"):  # inf * 0 is nan: rejected below
        total = float(np.abs(J[i, j] * chi[i] * chi[j]).sum())
    if not math.isfinite(total):
        raise ValueError("w_lambda overflows; the direction's coefficients are too large")
    return total


def witness_lambda(
    path: AffinePath, lambda0: float = 0.0, deg_tol: float | None = None
) -> float:
    """Path witness: sum of ``|J_ij * chi_i * chi_j|`` over unordered pairs.

    ``chi_i = d<sz_i>/dlambda`` at ``lambda0``, exact from first-order
    perturbation theory (``path_response``). Strictly positive values
    certify entanglement of the ground state at ``lambda0``. Raises
    ``ValueError`` when the sum does not fit in a float.
    """
    system = path.at(lambda0)
    return _lambda_sum(system, path_response(system, path.direction, deg_tol))


def _shared_direction(
    system: QubitSystem, path: AffinePath | None, lambda0: float
) -> QubitSystem | None:
    """``path.direction`` when ``path.at(lambda0)`` has exactly the
    coefficients of ``system``, whose ground-state solve then serves the
    lambda row too; ``None`` when the row needs a second solve or there is
    no path. Equal coefficients, signed zeros included, give a bitwise-equal
    ``H``. A path point that cannot be built takes the second solve, which
    raises its error after the report's own solve."""
    if path is None:
        return None
    try:
        point = path.at(lambda0)
    except ValueError:
        return None
    same = all(
        np.array_equal(getattr(point, name), getattr(system, name))
        for name in ("delta", "h", "J")
    )
    return path.direction if same else None


def _witness_report(
    system: QubitSystem,
    responses: Responses,
    deg_tol: float | None,
    path: AffinePath | None,
    lambda0: float,
) -> WitnessReport:
    """The one body of both report functions, from the gated ground state,
    ``chi`` and the path response (``None`` when the lambda row is not
    shared) of ``system``."""
    ground, chi, response = responses
    # Taking a GroundState means the degeneracy gate has passed: chi is only
    # meaningful for a unique ground state. Here only the shapes are checked.
    if ground.vector.shape != (system.dim,) or chi.shape != (system.n, system.n):
        raise ValueError(
            f"ground state of length {ground.vector.size} and chi of shape "
            f"{chi.shape} do not belong to a {system.n}-qubit system"
        )
    chi = _structural_zeros(system, chi)
    if response is not None:
        w_lambda = _lambda_sum(system, response)
    else:
        w_lambda = None if path is None else witness_lambda(path, lambda0, deg_tol)
    partitions = enumerate_bipartitions(system.n)
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
    cuts = list(map(CutWitness, partitions, w_tilde.tolist(), n_ab.tolist(), w_ab.tolist()))
    return WitnessReport(
        cuts=cuts, w_lambda=w_lambda, w_global=_global_witness(w_tilde, n_ab)
    )


def witness_report(
    spec: Spectrum,
    system: QubitSystem,
    deg_tol: float | None = None,
    path: AffinePath | None = None,
    lambda0: float = 0.0,
) -> WitnessReport:
    """Assemble all per-cut witnesses and the global witness from a dense
    spectrum of ``system``.

    When a ``path`` is supplied, ``w_lambda`` is evaluated at ``lambda0``:
    from ``spec`` itself when ``path.at(lambda0)`` is ``system``, otherwise
    from a second solve. A degenerate ground level at ``system`` or at
    ``lambda0`` raises ``DegenerateGroundError``.
    """
    direction = _shared_direction(system, path, lambda0)
    responses = spectrum_response(spec, deg_tol, direction)
    return _witness_report(system, responses, deg_tol, path, lambda0)


def solve_witness_report(
    system: QubitSystem,
    deg_tol: float | None = None,
    path: AffinePath | None = None,
    lambda0: float = 0.0,
) -> WitnessReport:
    """``witness_report`` of ``system`` from the route ``ground_response``
    selects (dense or Krylov) instead of a given spectrum.

    The lambda row shares the report's ground-state solve when
    ``path.at(lambda0)`` is ``system`` (always at ``lambda0 = 0`` on a path
    based at ``system``) and takes a second one otherwise. A degenerate
    ground level at ``system`` or at ``lambda0`` raises
    ``DegenerateGroundError``, as in ``witness_report``.
    """
    direction = _shared_direction(system, path, lambda0)
    responses = _solve(system, deg_tol, direction=direction)
    return _witness_report(system, responses, deg_tol, path, lambda0)
