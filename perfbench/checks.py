"""Output checks for benchmark operations; none of them runs inside a timed region.

``check_output`` runs on every operation and looks only at the exit code and
the CSV text. ``check_against_library`` runs on a seeded sample: it recomputes
the answer through the dense library route, one ``diagonalize(
build_hamiltonian(...))`` per system, and checks witness soundness against the
Schmidt oracle. Both return a list of problems; an empty list means the
operation passed.
"""

from __future__ import annotations

import math

import numpy as np

from witness_lab import (
    AffinePath,
    Bipartition,
    QubitSystem,
    build_hamiltonian,
    diagonalize,
    ground_state,
    is_fully_separable,
    is_separable,
    sigma_z_profile,
    witness_report,
)

AGREE_TOL = 1e-8  # |program - library| <= AGREE_TOL * max(1, |library|)
VAR_TOL = 0.1  # the CLI's default certification threshold

WITNESS_HEADER = "mask_hex,n_ab,w_tilde,w_ab"
CERTIFY_HEADER = "i,j,var_i,var_j"


def _rows(csv_text: str) -> list[str]:
    if not csv_text.endswith("\n"):
        raise ValueError("CSV does not end with a newline")
    return csv_text[:-1].split("\n")


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def _unit_interval(text: str) -> float:
    value = _finite(text)
    if not 0.0 <= value < 1.0:
        raise ValueError(f"witness {text} outside [0, 1)")
    return value


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= AGREE_TOL * max(1.0, abs(b))


def _system(block: dict) -> QubitSystem:
    couplings = [(int(i), int(j), float(v)) for i, j, v in block.get("couplings", [])]
    return QubitSystem.from_couplings(block["delta"], block["h"], couplings)


def _parse_witness(doc: dict, rows: list[str]) -> dict:
    n = doc["system"]["n"]
    has_lambda = "witness" in doc
    expected = 1 + (2 ** (n - 1) - 1) + int(has_lambda) + 1
    if rows[0] != WITNESS_HEADER:
        raise ValueError(f"header {rows[0]!r}")
    if len(rows) != expected:
        raise ValueError(f"{len(rows)} rows, expected {expected}")
    cuts = []
    for mask, row in zip(range(1, (1 << n) - 1, 2), rows[1:]):
        mask_hex, n_ab, w_tilde, w_ab = row.split(",")
        if mask_hex != f"0x{mask:x}":
            raise ValueError(f"cut row {row!r}, expected mask 0x{mask:x}")
        cuts.append((mask, int(n_ab), _finite(w_tilde), _unit_interval(w_ab)))
    w_lambda = None
    if has_lambda:
        label, _, _, value = rows[-2].split(",")
        if label != "lambda":
            raise ValueError(f"expected lambda row, got {rows[-2]!r}")
        w_lambda = _finite(value)
    label, _, _, value = rows[-1].split(",")
    if label != "global":
        raise ValueError(f"expected global row, got {rows[-1]!r}")
    return {"cuts": cuts, "w_lambda": w_lambda, "w_global": _unit_interval(value)}


def _parse_certify(doc: dict, rows: list[str]) -> dict:
    # Every bond of the generated chains flips across the sweep, so every
    # coupled pair must certify.
    pairs = [(i, j) for i, j, _ in doc["system"]["couplings"]]
    if rows[0] != CERTIFY_HEADER:
        raise ValueError(f"header {rows[0]!r}")
    if len(rows) != 1 + len(pairs) + 2:
        raise ValueError(f"{len(rows)} rows, expected {1 + len(pairs) + 2}")
    certified = []
    for (i, j), row in zip(pairs, rows[1:-2]):
        ri, rj, var_i, var_j = row.split(",")
        if (int(ri), int(rj)) != (i, j):
            raise ValueError(f"pair row {row!r}, expected ({i}, {j})")
        certified.append((i, j, _finite(var_i), _finite(var_j)))
    if rows[-2] != "path_nondegenerate,true":
        raise ValueError(f"expected path_nondegenerate,true, got {rows[-2]!r}")
    label, value = rows[-1].split(",")
    if label != "oracle_lambda" or not value:
        raise ValueError(f"expected a non-empty oracle_lambda row, got {rows[-1]!r}")
    return {"certified": certified, "oracle_lambda": _finite(value)}


_PARSERS = {"witness": _parse_witness, "certify": _parse_certify}


def check_output(command: str, doc: dict, code: int, csv_text: str) -> list[str]:
    """Exit code, header, row count, finiteness and witness ranges."""
    if code != 0:
        return [f"exit code {code}, expected 0"]
    try:
        _PARSERS[command](doc, _rows(csv_text))
    except ValueError as exc:
        return [str(exc)]
    return []


def _soundness(spec, system: QubitSystem, cuts) -> list[str]:
    vector = ground_state(spec).vector
    return [
        f"cut 0x{mask:x} has w_ab={w_ab!r} but its ground state is separable"
        for mask, _, _, w_ab in cuts
        if w_ab > 0.0 and is_separable(vector, Bipartition(mask=mask, n=system.n))
    ]


def _library_witness(doc: dict, out: dict) -> list[str]:
    system = _system(doc["system"])
    spec = diagonalize(build_hamiltonian(system))
    path, lambda0 = None, 0.0
    if "witness" in doc:
        path = AffinePath(base=system, direction=_system(doc["witness"]["lambda_direction"]))
        lambda0 = doc["witness"]["lambda0"]
    report = witness_report(spec, system, path=path, lambda0=lambda0)
    problems = []
    for (mask, n_ab, w_tilde, w_ab), cut in zip(out["cuts"], report.cuts):
        if n_ab != cut.n_ab or not (_close(w_tilde, cut.w_tilde) and _close(w_ab, cut.w_ab)):
            problems.append(
                f"cut 0x{mask:x}: program ({n_ab}, {w_tilde!r}, {w_ab!r}) vs library "
                f"({cut.n_ab}, {cut.w_tilde!r}, {cut.w_ab!r})"
            )
    if out["w_lambda"] is not None and not (
        report.w_lambda is not None and _close(out["w_lambda"], report.w_lambda)
    ):
        problems.append(f"lambda {out['w_lambda']!r} vs library {report.w_lambda!r}")
    if not _close(out["w_global"], report.w_global):
        problems.append(f"global {out['w_global']!r} vs library {report.w_global!r}")
    return problems + _soundness(spec, system, out["cuts"])


def _library_certify(doc: dict, out: dict) -> list[str]:
    base = _system(doc["system"])
    direction = _system(doc["sweep"]["direction"])
    grid_block = doc["sweep"]["grid"]
    grid = np.linspace(grid_block["start"], grid_block["stop"], grid_block["num"])

    def system_at(lam: float) -> QubitSystem:
        return QubitSystem(
            delta=base.delta + lam * direction.delta,
            h=base.h + lam * direction.h,
            J=base.J + lam * direction.J,
        )

    sz = np.array(
        [
            sigma_z_profile(ground_state(diagonalize(build_hamiltonian(system_at(lam)))).vector)
            for lam in grid
        ]
    )
    var = np.abs(np.diff(sz, axis=0)).sum(axis=0)
    expected = [
        (i, j, float(var[i]), float(var[j]))
        for i in range(base.n)
        for j in range(i + 1, base.n)
        if base.J[i, j] != 0.0 and var[i] > VAR_TOL and var[j] > VAR_TOL
    ]
    problems = []
    got = out["certified"]
    if [p[:2] for p in got] != [p[:2] for p in expected] or not all(
        _close(a[2], b[2]) and _close(a[3], b[3]) for a, b in zip(got, expected)
    ):
        problems.append(f"certified pairs {got} vs library {expected}")
    lam = out["oracle_lambda"]
    if not np.any(grid == lam):
        return problems + [f"oracle_lambda {lam!r} is not a grid value"]
    system = system_at(lam)
    spec = diagonalize(build_hamiltonian(system))
    if is_fully_separable(ground_state(spec).vector):
        problems.append(f"ground state at oracle_lambda {lam!r} is fully separable")
    report = witness_report(spec, system)
    cuts = [(c.partition.mask, c.n_ab, c.w_tilde, c.w_ab) for c in report.cuts]
    return problems + _soundness(spec, system, cuts)


_LIBRARY = {"witness": _library_witness, "certify": _library_certify}


def check_against_library(command: str, doc: dict, csv_text: str) -> list[str]:
    """Agreement with the dense library route to AGREE_TOL, and soundness of
    every nonzero cut witness against the Schmidt oracle."""
    out = _PARSERS[command](doc, _rows(csv_text))
    return _LIBRARY[command](doc, out)
