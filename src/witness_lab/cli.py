"""Command-line front end: JSON configs in, deterministic CSV out.

Four subcommands share one config format::

    witness-lab spectrum|witness|sweep|certify --config run.json
                [--out results.csv] [--deg-tol X]
    (spectrum and sweep also take [--levels K], certify [--var-tol X])

The config is a single JSON document. The ``system`` block is mandatory;
``sweep`` (path direction plus grid) feeds the sweep and certify commands,
``witness`` optionally adds a path-susceptibility row to the witness report,
and ``tolerances`` holds defaults that the command-line flags override::

    {
      "system": {"n": 2, "delta": [0.2, 0.2], "h": [0.0, 0.0],
                 "couplings": [[0, 1, -1.0]]},
      "sweep": {"direction": {"delta": [0.0, 0.0], "h": [1.0, 1.0],
                              "couplings": []},
                "grid": {"start": -2.0, "stop": 2.0, "num": 201},
                "track_levels": 2},
      "witness": {"lambda_direction": {"delta": [0.0, 0.0], "h": [1.0, 1.0],
                                       "couplings": []},
                  "lambda0": 0.0},
      "tolerances": {"deg_tol": 1e-9}
    }

Couplings are upper-triangle ``[i, j, value]`` entries with ``i < j``;
unknown keys anywhere are rejected. A sweep grid holds at most
``MAX_GRID_POINTS`` (100000) points, whether given by ``num`` or as
``values``. Tolerances are validated once, flags over config keys, before
any command runs. The ``lambda`` row of ``witness`` is the exact path
response (``witness_lambda``); ``solve_witness_report`` takes it from the
report's own ground-state solve when ``lambda0`` leaves the system
unchanged, so such a ``witness`` op solves the ground state once. Floats
are printed in their shortest round-trip form, rows end with LF, and
identical configs produce byte-identical output; a degenerate sweep point
leaves its ``sz_i`` fields empty, so no ``nan`` is printed.

Exit codes: 0 success (certify: entanglement certified), 1 clean negative
finding (certify: nothing certified), 2 invalid input (an unreadable config
or an ``--out`` path that cannot be written included), 3 degenerate ground
state where a nondegenerate one is required.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

import numpy as np

from .model import AffinePath, QubitSystem, build_hamiltonian
from .spectrum import (
    DegenerateGroundError,
    eigenvalues,
    ground_gap,
    require_positive_finite,
)
from .sweep import (
    DEFAULT_VAR_TOL,
    SweepConfig,
    certify_entanglement_on_path,
    detect_anticrossings,
    run_sweep,
)
from .witness import solve_witness_report

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_CONFIG = 2
EXIT_DEGENERATE = 3

MAX_GRID_POINTS = 100_000  # sweep grid size cap, so no grid outgrows memory


class ConfigError(ValueError):
    """Invalid or malformed run configuration."""


def _fmt(x: float) -> str:
    # Shortest representation that round-trips to the same float.
    return repr(float(x))


def _fmt_bool(flag: bool) -> str:
    return "true" if flag else "false"


def _check_keys(block: dict, where: str, allowed: set[str], required: set[str]):
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = sorted(set(block) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}")
    missing = sorted(required - set(block))
    if missing:
        raise ConfigError(f"missing key(s) in {where}: {', '.join(missing)}")


def _number(value, where: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{where} must be a number, got {value!r}") from exc


def _parse_couplings(raw, where: str) -> list[tuple[int, int, float]]:
    if not isinstance(raw, list):
        raise ConfigError(f"{where}.couplings must be an array of [i, j, value]")
    entries = []
    for item in raw:
        if not (isinstance(item, (list, tuple)) and len(item) == 3):
            raise ConfigError(f"{where}.couplings entries must be [i, j, value]")
        i, j, value = item
        if not (isinstance(i, int) and isinstance(j, int)) or isinstance(
            i, bool
        ) or isinstance(j, bool):
            raise ConfigError(f"{where}.couplings indices must be integers")
        entries.append((i, j, _number(value, f"{where}.couplings value")))
    return entries


def _parse_system(block: dict, where: str, n_expected: int | None = None) -> QubitSystem:
    required = {"delta", "h"} if n_expected is not None else {"n", "delta", "h"}
    _check_keys(block, where, {"n", "delta", "h", "couplings"}, required)
    if not isinstance(block["delta"], list) or not isinstance(block["h"], list):
        raise ConfigError(f"{where}.delta and {where}.h must be arrays")
    delta = [_number(v, f"{where}.delta entry") for v in block["delta"]]
    h = [_number(v, f"{where}.h entry") for v in block["h"]]
    n = block.get("n", n_expected if n_expected is not None else len(delta))
    if not isinstance(n, int) or isinstance(n, bool):
        raise ConfigError(f"{where}.n must be an integer")
    if len(delta) != n or len(h) != n:
        raise ConfigError(
            f"{where}: n={n} but delta has {len(delta)} and h has {len(h)} entries"
        )
    if n_expected is not None and n != n_expected:
        raise ConfigError(f"{where}: expected {n_expected} qubits, got {n}")
    couplings = _parse_couplings(block.get("couplings", []), where)
    try:
        return QubitSystem.from_couplings(delta, h, couplings)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_grid(block: dict, where: str) -> np.ndarray:
    _check_keys(block, where, {"start", "stop", "num", "values"}, set())
    if "values" in block:
        if set(block) != {"values"}:
            raise ConfigError(f"{where}: give either values or start/stop/num")
        values = block["values"]
        if not isinstance(values, list):
            raise ConfigError(f"{where}.values must be an array")
        if len(values) > MAX_GRID_POINTS:
            raise ConfigError(
                f"{where}.values has {len(values)} entries, more than {MAX_GRID_POINTS}"
            )
        return np.array([_number(v, f"{where}.values entry") for v in values])
    if set(block) != {"start", "stop", "num"}:
        raise ConfigError(f"{where}: give either values or start/stop/num")
    num = block["num"]
    if not isinstance(num, int) or isinstance(num, bool) or num < 0:
        raise ConfigError(f"{where}.num must be a nonnegative integer")
    if num > MAX_GRID_POINTS:
        raise ConfigError(f"{where}.num must be at most {MAX_GRID_POINTS}, got {num}")
    return np.linspace(
        _number(block["start"], f"{where}.start"),
        _number(block["stop"], f"{where}.stop"),
        num,
    )


_TOLERANCE_KEYS = ("deg_tol", "var_tol")


@dataclass(eq=False)
class RunConfig:
    """Validated run configuration shared by all subcommands."""

    system: QubitSystem
    sweep_path: AffinePath | None
    grid: np.ndarray | None
    track_levels: int
    witness_path: AffinePath | None
    witness_lambda0: float
    tolerances: dict

    def to_document(self) -> dict:
        """Canonical JSON document; parsing it reproduces this config."""

        def system_block(system: QubitSystem, with_n: bool = True) -> dict:
            block: dict = {"n": system.n} if with_n else {}
            block["delta"] = [float(v) for v in system.delta]
            block["h"] = [float(v) for v in system.h]
            block["couplings"] = [
                [i, j, float(system.J[i, j])]
                for i in range(system.n)
                for j in range(i + 1, system.n)
                if system.J[i, j] != 0.0
            ]
            return block

        doc: dict = {"system": system_block(self.system)}
        if self.sweep_path is not None:
            doc["sweep"] = {
                "direction": system_block(self.sweep_path.direction, with_n=False),
                "grid": {"values": [float(v) for v in self.grid]},
                "track_levels": self.track_levels,
            }
        if self.witness_path is not None:
            doc["witness"] = {
                "lambda_direction": system_block(self.witness_path.direction, with_n=False),
                "lambda0": float(self.witness_lambda0),
            }
        tolerances = {
            key: float(self.tolerances[key])
            for key in _TOLERANCE_KEYS
            if self.tolerances.get(key) is not None
        }
        if tolerances:
            doc["tolerances"] = tolerances
        return doc


def parse_config(document: dict) -> RunConfig:
    _check_keys(document, "config", {"system", "sweep", "witness", "tolerances"}, {"system"})
    system = _parse_system(document["system"], "system")

    sweep_path = None
    grid = None
    track_levels = 2
    if "sweep" in document:
        block = document["sweep"]
        _check_keys(
            block, "sweep", {"direction", "grid", "track_levels"}, {"direction", "grid"}
        )
        sweep_path = AffinePath(
            base=system,
            direction=_parse_system(block["direction"], "sweep.direction", system.n),
        )
        grid = _parse_grid(block["grid"], "sweep.grid")
        track_levels = block.get("track_levels", 2)
        if not isinstance(track_levels, int) or isinstance(track_levels, bool):
            raise ConfigError("sweep.track_levels must be an integer")

    witness_path = None
    witness_lambda0 = 0.0
    if "witness" in document:
        block = document["witness"]
        _check_keys(block, "witness", {"lambda_direction", "lambda0"}, {"lambda_direction"})
        witness_path = AffinePath(
            base=system,
            direction=_parse_system(
                block["lambda_direction"], "witness.lambda_direction", system.n
            ),
        )
        witness_lambda0 = _number(block.get("lambda0", 0.0), "witness.lambda0")

    tolerances = {key: None for key in _TOLERANCE_KEYS}
    if "tolerances" in document:
        block = document["tolerances"]
        _check_keys(block, "tolerances", set(_TOLERANCE_KEYS), set())
        for key in _TOLERANCE_KEYS:
            if key in block:
                tolerances[key] = _number(block[key], f"tolerances.{key}")

    return RunConfig(
        system=system,
        sweep_path=sweep_path,
        grid=grid,
        track_levels=track_levels,
        witness_path=witness_path,
        witness_lambda0=witness_lambda0,
        tolerances=tolerances,
    )


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            document = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config is not valid UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError("config nests too deeply to parse") from exc
    return parse_config(document)


def _resolve_tolerances(config: RunConfig, args) -> dict:
    """The run's tolerances: each command-line flag over its config key,
    validated once for every command; each must be positive and finite.
    ``None`` keeps the library default."""
    resolved = {}
    for key in _TOLERANCE_KEYS:
        value = getattr(args, key, None)
        if value is None:
            value = config.tolerances.get(key)
        if value is not None:
            try:
                value = require_positive_finite(key, value)
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
        resolved[key] = value
    return resolved


def _cmd_spectrum(
    config: RunConfig, args, tol: dict
) -> tuple[int, list[str], list[str]]:
    energies = eigenvalues(build_hamiltonian(config.system)[None])[0]
    levels = energies.size if args.levels is None else args.levels
    if not 1 <= levels <= energies.size:
        raise ConfigError(f"--levels must be in [1, {energies.size}], got {levels}")
    rows = ["level,energy"]
    rows += [f"{k},{_fmt(energies[k])}" for k in range(levels)]
    if args.ground:
        gap = ground_gap(energies[0], energies[1], energies[-1], tol["deg_tol"])
        rows.append(f"gap,{_fmt(gap)}")
    return EXIT_OK, rows, []


def _cmd_witness(
    config: RunConfig, args, tol: dict
) -> tuple[int, list[str], list[str]]:
    report = solve_witness_report(
        config.system, tol["deg_tol"], config.witness_path, config.witness_lambda0
    )
    rows = ["mask_hex,n_ab,w_tilde,w_ab"]
    for cut in report.cuts:
        rows.append(
            f"0x{cut.partition.mask:x},{cut.n_ab},{_fmt(cut.w_tilde)},{_fmt(cut.w_ab)}"
        )
    if report.w_lambda is not None:
        rows.append(f"lambda,,,{_fmt(report.w_lambda)}")
    rows.append(f"global,,,{_fmt(report.w_global)}")
    return EXIT_OK, rows, []


def _sweep_result(config: RunConfig, tol: dict, track_levels: int | None):
    """The configured sweep, recording ``track_levels`` energies per point;
    ``None`` (``certify``) records none, so ``sweep.track_levels`` is not
    used."""
    if config.sweep_path is None or config.grid is None:
        raise ConfigError("this command requires a sweep block in the config")
    sweep_config = SweepConfig(
        path=config.sweep_path,
        grid=config.grid,
        track_levels=2 if track_levels is None else track_levels,
    )
    return run_sweep(sweep_config, tol["deg_tol"], energies=track_levels is not None)


def _cmd_sweep(
    config: RunConfig, args, tol: dict
) -> tuple[int, list[str], list[str]]:
    levels = config.track_levels if args.levels is None else args.levels
    result = _sweep_result(config, tol, levels)
    k = result.config.track_levels
    n = config.system.n
    header = (
        "lambda,"
        + ",".join(f"E{m}" for m in range(k))
        + ",gap,"
        + ",".join(f"sz_{i}" for i in range(n))
        + ",degenerate"
    )
    rows = [header]
    for point in result.points:
        rows.append(
            ",".join(
                [_fmt(point.lam)]
                + [_fmt(e) for e in point.energies]
                + [_fmt(point.gap)]
                + ["" if point.degenerate else _fmt(s) for s in point.sz]
                + [_fmt_bool(point.degenerate)]
            )
        )
    summaries = [
        f"anticrossing lambda={_fmt(lam)} gap={_fmt(gap)}"
        for lam, gap in detect_anticrossings(result)
    ]
    return EXIT_OK, rows, summaries


def _cmd_certify(
    config: RunConfig, args, tol: dict
) -> tuple[int, list[str], list[str]]:
    # certify prints no energies: its sweep proves each point's gap instead
    result = _sweep_result(config, tol, None)
    var_tol = DEFAULT_VAR_TOL if tol["var_tol"] is None else tol["var_tol"]
    report = certify_entanglement_on_path(result, var_tol)
    rows = ["i,j,var_i,var_j"]
    for i, j, var_i, var_j in report.certified_pairs:
        rows.append(f"{i},{j},{_fmt(var_i)},{_fmt(var_j)}")
    rows.append(f"path_nondegenerate,{_fmt_bool(report.path_nondegenerate)}")
    confirmation = (
        "" if report.oracle_confirmation is None else _fmt(report.oracle_confirmation)
    )
    rows.append(f"oracle_lambda,{confirmation}")
    if not report.path_nondegenerate:
        return EXIT_DEGENERATE, rows, []
    return (EXIT_OK if report.certified_pairs else EXIT_NEGATIVE), rows, []


_COMMANDS = {
    "spectrum": _cmd_spectrum,
    "witness": _cmd_witness,
    "sweep": _cmd_sweep,
    "certify": _cmd_certify,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="witness-lab",
        description="Transverse-field Ising spectra, sweeps and entanglement witnesses",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("spectrum", "eigenvalues of the configured system"),
        ("witness", "per-bipartition witness report"),
        ("sweep", "energies, gap and <sz> along a parameter path"),
        ("certify", "entanglement certification from spin trajectories"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="JSON run configuration")
        cmd.add_argument("--out", help="write CSV here instead of stdout")
        if name in ("spectrum", "sweep"):  # the commands that print energies
            cmd.add_argument("--levels", type=int, help="number of energy levels")
        cmd.add_argument("--deg-tol", type=float, dest="deg_tol")
        if name == "certify":  # the one command that reads var_tol
            cmd.add_argument("--var-tol", type=float, dest="var_tol")
        cmd.add_argument(
            "--echo-config",
            action="store_true",
            help="print the normalized config as JSON and exit",
        )
        if name == "spectrum":
            cmd.add_argument(
                "--ground",
                action="store_true",
                help="require a nondegenerate ground state and report the gap",
            )
    return parser


def _emit(rows: list[str], out_path: str | None) -> bool:
    """Write the CSV to ``out_path``, or to stdout without one; ``False``,
    after one stderr line, when ``out_path`` cannot be written."""
    text = "\n".join(rows) + "\n"
    if out_path is None:
        sys.stdout.write(text)
        return True
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return False
    return True


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        tolerances = _resolve_tolerances(config, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if args.echo_config:
        sys.stdout.write(json.dumps(config.to_document(), indent=2) + "\n")
        return EXIT_OK

    try:
        code, rows, summaries = _COMMANDS[args.command](config, args, tolerances)
    except DegenerateGroundError as exc:
        print(f"DegenerateGround: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except ValueError as exc:  # ConfigError included
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if not _emit(rows, args.out):
        return EXIT_CONFIG
    for line in summaries:
        print(line, file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
