"""Seeded workload generators.

Every operation gets a fresh JSON config drawn from ``random.Random`` keyed by
(workload, seed, operation index), so one seed always yields byte-identical
configs. The generator uses only the standard library: the set-up probe
writes its config before importing numpy or witness_lab, so that import cost
lands inside the measured set-up time.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable

SWEEP_GRID = {"start": -2.0, "stop": 2.0, "num": 2001}


def encode(doc: dict) -> bytes:
    """Canonical bytes of a config document."""
    return json.dumps(doc, sort_keys=True).encode()


def _rng(workload: str, seed: int, index: int) -> random.Random:
    # String seeds are hashed with SHA-512, so the stream does not depend on
    # PYTHONHASHSEED or the interpreter build.
    return random.Random(f"witness-lab-bench/{workload}/{seed}/{index}")


def _all_to_all(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _chain(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def _uniform_bias(n: int) -> dict:
    return {"delta": [0.0] * n, "h": [1.0] * n, "couplings": []}


def _random_system(
    rng: random.Random,
    n: int,
    pairs: list[tuple[int, int]],
    delta: tuple[float, float],
    h: tuple[float, float],
    J: tuple[float, float],
) -> dict:
    return {
        "n": n,
        "delta": [rng.uniform(*delta) for _ in range(n)],
        "h": [rng.uniform(*h) for _ in range(n)],
        "couplings": [[i, j, rng.uniform(*J)] for i, j in pairs],
    }


def _ground_n11(rng: random.Random, index: int) -> dict:
    n = 11
    system = _random_system(
        rng, n, _all_to_all(n), (0.5, 1.5), (-0.3, 0.3), (-1.0, 1.0)
    )
    return {"system": system}


def _witness_batch_n8(rng: random.Random, index: int) -> dict:
    n = 8
    pairs = _all_to_all(n) if index % 2 == 0 else _chain(n)
    system = _random_system(rng, n, pairs, (0.5, 1.5), (-0.3, 0.3), (-1.0, 1.0))
    return {
        "system": system,
        "witness": {"lambda_direction": _uniform_bias(n), "lambda0": 0.0},
    }


def _sweep_certify_n6(rng: random.Random, index: int) -> dict:
    # A ferromagnetic chain under a uniform bias sweep flips every spin
    # through one avoided crossing near lambda = -mean(h), so every bond
    # certifies and the Schmidt oracle finds an entangled grid point.
    n = 6
    system = _random_system(rng, n, _chain(n), (0.3, 0.6), (-0.1, 0.1), (-1.5, -0.5))
    return {
        "system": system,
        "sweep": {
            "direction": _uniform_bias(n),
            "grid": dict(SWEEP_GRID),
            "track_levels": 2,
        },
    }


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a CLI subcommand over generated configs."""

    name: str
    command: str
    size: str
    why: str
    generate: Callable[[random.Random, int], dict]

    def config(self, seed: int, index: int) -> dict:
        return self.generate(_rng(self.name, seed, index), index)

    def record(self) -> dict:
        return {
            "name": self.name,
            "command": f"witness-lab {self.command} --config <cfg> --out <csv>",
            "size": self.size,
            "why": self.why,
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ground-n11",
            command="witness",
            size="random all-to-all n=11 (dim 2048), one system per op",
            why="witness on random all-to-all n=11 (dim 2048): one dense eigh is ~93% "
            "of an op, so a faster ground-state solver shows here and cut or sweep "
            "changes must not",
            generate=_ground_n11,
        ),
        Workload(
            name="witness-batch-n8",
            command="witness",
            size="n=8, all-to-all and chain alternating, uniform-h lambda row",
            why="witness with uniform-h lambda row on n=8 all-to-all/chain systems: "
            "3 small eigh, 127-cut Python loops and CLI cost; vectorized cuts and "
            "exact path response show",
            generate=_witness_batch_n8,
        ),
        Workload(
            name="sweep-certify-n6",
            command="certify",
            size="ferromagnetic n=6 chain, 2001-point uniform-bias sweep",
            why="certify on a ferromagnetic n=6 chain, 2001-point bias sweep: 2002 "
            "64x64 eigh plus path and oracle code; the only workload driving the "
            "sweep and separability layers",
            generate=_sweep_certify_n6,
        ),
    )
}
