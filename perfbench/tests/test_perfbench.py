"""Self-tests of the benchmark harness.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q

Tracer call counts on the two-qubit ferromagnetic pair, generator
determinism across processes, output checks that catch bad CSV, untraced runs
that leave the library unwrapped, and the refusal to run without sources.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import run as bench  # noqa: E402
from perfbench.checks import check_against_library, check_output  # noqa: E402
from perfbench.tracing import (  # noqa: E402
    TRACED,
    Span,
    Tracer,
    is_wrapped,
    per_op_metrics,
    self_times,
)
from perfbench.workloads import WORKLOADS, encode  # noqa: E402
from witness_lab import AffinePath, cli  # noqa: E402

UNIFORM_H = {"delta": [0.0, 0.0], "h": [1.0, 1.0], "couplings": []}
PAIR = {"n": 2, "delta": [0.2, 0.2], "h": [0.0, 0.0], "couplings": [[0, 1, -1.0]]}
PAIR_WITNESS = {
    "system": PAIR,
    "witness": {"lambda_direction": UNIFORM_H, "lambda0": 0.0},
}
PAIR_CERTIFY = {
    "system": PAIR,
    "sweep": {"direction": UNIFORM_H, "grid": {"start": -2.0, "stop": 2.0, "num": 5}},
}


def _library_functions():
    """(owner, attribute, value) for every traced name at every lookup site."""
    names = {name for names in TRACED.values() for name in names}
    found = [
        (module_name, attr, value)
        for module_name, module in sorted(sys.modules.items())
        if module_name == "witness_lab" or module_name.startswith("witness_lab.")
        for attr, value in vars(module).items()
        if attr in names
    ]
    return found + [("AffinePath", "at", vars(AffinePath)["at"])]


def _run_cli(tmp_path, command, doc):
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "out.csv"
    cfg.write_text(json.dumps(doc))
    code = cli.main([command, "--config", str(cfg), "--out", str(out)])
    return code, out.read_text()


def _traced(tmp_path, command, doc):
    tracer = Tracer()
    tracer.op = 0
    with tracer.installed():
        code, _ = _run_cli(tmp_path, command, doc)
    assert code == 0
    return per_op_metrics(tracer.spans)


def test_witness_pair_call_counts(tmp_path):
    metrics = _traced(tmp_path, "witness", PAIR_WITNESS)
    assert metrics["spectrum.diagonalize.calls"] == 3
    assert metrics["witness.count_crossing_couplings.calls"] == 1
    assert metrics["observables.ground_sz_on_path.calls"] == 2
    assert metrics["spectrum.diagonalize.per_system"] == 3.0


def test_certify_pair_call_counts(tmp_path):
    metrics = _traced(tmp_path, "certify", PAIR_CERTIFY)
    assert metrics["spectrum.diagonalize.calls"] == 6  # 5 grid points + 1 oracle
    assert metrics["sweep.run_sweep.points"] == 5
    assert metrics["model.AffinePath.at.calls"] == 11
    assert metrics["separability.is_separable.calls"] == 1
    assert metrics["spectrum.diagonalize.max_dim"] == 4
    assert metrics["model.build_hamiltonian.bytes"] == 6 * 8 * 4**2


def test_tracer_restores_every_lookup_site(tmp_path):
    before = _library_functions()
    tracer = Tracer()
    with tracer.installed():
        wrapped = _library_functions()
        assert all(is_wrapped(value) for _, _, value in wrapped)
        assert len(wrapped) == len(before)
    after = _library_functions()
    assert [(o, a) for o, a, _ in after] == [(o, a) for o, a, _ in before]
    assert all(x is y for (_, _, x), (_, _, y) in zip(after, before))


def test_self_time_subtracts_children():
    spans = [
        Span("a", 0, -1, 0.0, 10.0, None, None),
        Span("b", 0, 0, 1.0, 3.0, None, None),
        Span("c", 0, 1, 1.5, 2.5, None, None),
        Span("b", 0, 0, 5.0, 6.0, None, None),
        Span("a", 1, -1, 20.0, 22.0, None, None),
    ]
    assert self_times(spans) == [7.0, 1.0, 1.0, 1.0, 2.0]
    assert per_op_metrics(spans)["spectrum.diagonalize.calls"] == 0.0


def _config_digest(seed: int, hash_seed: str) -> str:
    code = (
        "import hashlib, sys; sys.path.insert(0, sys.argv[1]);"
        "from perfbench.workloads import WORKLOADS, encode;"
        "h = hashlib.sha256();"
        "[h.update(encode(w.config(int(sys.argv[2]), i))) for w in WORKLOADS.values() for i in (-1, 0, 1, 2)];"
        "print(h.hexdigest())"
    )
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, "-c", code, str(ROOT), str(seed)],
        capture_output=True, text=True, env=env, check=True, timeout=60,
    )
    return proc.stdout.strip()


def test_generator_is_deterministic_across_processes():
    local = hashlib.sha256()
    for workload in WORKLOADS.values():
        for index in (-1, 0, 1, 2):
            local.update(encode(workload.config(7, index)))
    assert _config_digest(7, "1") == _config_digest(7, "2") == local.hexdigest()
    assert _config_digest(8, "1") != local.hexdigest()
    for workload in WORKLOADS.values():
        assert workload.config(7, 0) != workload.config(7, 1)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generated_configs_pass_every_check(tmp_path, name):
    workload = WORKLOADS[name]
    doc = workload.config(0, 0)
    code, text = _run_cli(tmp_path, workload.command, doc)
    assert check_output(workload.command, doc, code, text) == []
    assert check_against_library(workload.command, doc, text) == []


def test_checks_catch_bad_output(tmp_path):
    code, text = _run_cli(tmp_path, "witness", PAIR_WITNESS)
    assert check_output("witness", PAIR_WITNESS, code, text) == []
    assert check_output("witness", PAIR_WITNESS, 3, text)
    rows = text.splitlines()
    assert check_output("witness", PAIR_WITNESS, 0, "\n".join(rows[:-1]) + "\n")
    out_of_range = text.replace(rows[-1], "global,,,1.5")
    assert check_output("witness", PAIR_WITNESS, 0, out_of_range)
    nan = text.replace(rows[-1], "global,,,nan")
    assert check_output("witness", PAIR_WITNESS, 0, nan)
    mask, n_ab, w_tilde, w_ab = rows[1].split(",")
    shifted = text.replace(rows[1], f"{mask},{n_ab},{float(w_tilde) * (1 + 1e-6)!r},{w_ab}")
    assert check_output("witness", PAIR_WITNESS, 0, shifted) == []
    assert check_against_library("witness", PAIR_WITNESS, shifted)


def test_untraced_run_leaves_library_unwrapped(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "OUT", tmp_path)
    before = _library_functions()
    result = bench.run_workload(WORKLOADS["witness-batch-n8"], seed=0, seconds=0.1, trace=False)
    after = _library_functions()
    assert all(x is y and not is_wrapped(x) for (_, _, x), (_, _, y) in zip(after, before))
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(bench.END_TO_END)
    assert not list(tmp_path.glob("spans-*"))


def test_benchmark_json_matches_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.LAYER_UNITS


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ground-n11", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
