"""Whole config documents, valid and not, through ``cli.main``.

Every document gets one of the documented exit codes, 0 to 3, and no
traceback: an uncaught exception (including a numpy ``RuntimeWarning``, which
the test configuration turns into an error) fails the example. A document
that carries a key the format no longer has (``format``,
``tolerances.fd_step``, ``tolerances.schmidt_tol``), or a run with the
removed ``--fd-step`` flag or with ``--var-tol`` on a command other than
``certify``, exits 2. Documents stay small, at most 4 qubits and 5 grid points, so no example
allocates more than a few MB; an oversized ``grid.num`` must be refused
before its grid is built. Generation is derandomized, so every run checks
the same examples.
"""

import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from witness_lab.cli import MAX_GRID_POINTS, main, parse_config
from witness_lab.witness import _shared_direction

FUZZ = settings(max_examples=300, derandomize=True, deadline=None, database=None)

# Moderate coefficients; hypothesis often draws exact zeros, which give
# degenerate levels.
sane = st.floats(-2.0, 2.0)
wild = st.one_of(
    st.sampled_from([-0.0, 1e-300, 1e150, -1e200, 1e308, -1.7e308]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-3, 5),
)

# Zero of either sign, or 1e-320, which vanishes next to every coefficient,
# puts the lambda row on the system itself, which shares the report's
# ground-state solve; 1e-3 and most of sane take a second solve.
lambda0s = st.sampled_from([0.0, -0.0, 1e-320, 1e-3]) | sane

# Any JSON value, with bounded integers and short containers: it may stand
# in for any part of a document.
junk = st.recursive(
    st.none() | st.booleans() | wild | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def system_blocks(draw, n, with_n):
    pairs = [[i, j] for i in range(n) for j in range(i + 1, n)]
    chosen = []
    if pairs:
        chosen = draw(st.lists(st.sampled_from(pairs), unique_by=tuple, max_size=4))
    block = {
        "delta": draw(st.lists(sane, min_size=n, max_size=n)),
        "h": draw(st.lists(sane, min_size=n, max_size=n)),
        "couplings": [pair + [draw(sane)] for pair in chosen],
    }
    if with_n:
        block["n"] = n
    return block


@st.composite
def valid_documents(draw):
    n = draw(st.integers(1, 4))
    doc = {"system": draw(system_blocks(n, with_n=True))}
    if draw(st.sampled_from([True, True, True, False])):
        values = sorted(draw(st.lists(sane, min_size=3, max_size=5)))
        grid = draw(
            st.just({"values": values})
            | st.just({"start": values[0], "stop": values[-1], "num": len(values)})
        )
        doc["sweep"] = {
            "direction": draw(system_blocks(n, with_n=False)),
            "grid": grid,
            "track_levels": draw(st.integers(2, 1 << n)),
        }
    if draw(st.booleans()):
        doc["witness"] = {
            "lambda_direction": draw(system_blocks(n, with_n=False)),
            "lambda0": draw(lambda0s),
        }
    if draw(st.booleans()):
        keys = st.sampled_from(["deg_tol", "var_tol"])
        doc["tolerances"] = draw(st.dictionaries(keys, st.floats(1e-12, 0.5), max_size=2))
    return doc


def _slots(node):
    """Every (container, key) pair in a parsed JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    slots = []
    for key, value in items:
        slots.append((node, key))
        if isinstance(value, (dict, list)):
            slots.extend(_slots(value))
    return slots


def _mutate_lambda_row(draw, block):
    """Wild ``lambda0`` or a wild entry of the lambda direction: the row
    then overflows, fails to build its path point or leaves the system."""
    if draw(st.booleans()):
        block["lambda0"] = draw(wild)
        return
    direction = block["lambda_direction"]
    key = draw(st.sampled_from(["delta", "h", "couplings"]))
    if key != "couplings":
        direction[key][draw(st.integers(0, len(direction[key]) - 1))] = draw(wild)
    elif direction["couplings"]:
        entry = direction["couplings"][draw(st.integers(0, len(direction["couplings"]) - 1))]
        entry[2] = draw(wild)


@st.composite
def lambda_row_documents(draw):
    """A system with a lambda row, whose ``lambda0`` or direction may then
    be made wild."""
    n = draw(st.integers(1, 4))
    doc = {
        "system": draw(system_blocks(n, with_n=True)),
        "witness": {
            "lambda_direction": draw(system_blocks(n, with_n=False)),
            "lambda0": draw(lambda0s),
        },
    }
    if draw(st.booleans()):
        _mutate_lambda_row(draw, doc["witness"])
    return doc


@st.composite
def documents(draw):
    """A valid document with up to three of its values replaced by wild
    numbers or arbitrary JSON, or a key added or removed."""
    doc = draw(valid_documents())
    for _ in range(draw(st.sampled_from([0, 0, 1, 1, 2, 3]))):
        slots = _slots(doc)
        container, key = slots[draw(st.integers(0, len(slots) - 1))]
        action = draw(st.sampled_from(["replace", "replace", "delete", "add"]))
        if action == "delete":
            del container[key]
        elif action == "add" and isinstance(container, dict):
            container[draw(st.text(max_size=6))] = draw(junk)
        else:
            container[key] = draw(wild | junk)
        if not doc:
            break
    return doc if draw(st.sampled_from([True] * 19 + [False])) else draw(junk)


def _run(argv, doc):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "run.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv + ["--config", path])
            except SystemExit as exc:  # argparse exits on an unknown flag
                code = exc.code
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    assert "nan" not in out.getvalue() and "inf" not in out.getvalue()
    return code, out.getvalue()


def _add_removed_key(doc, key):
    """Put a key the config format no longer has into ``doc``: a top-level
    ``format``, or ``fd_step`` or ``schmidt_tol`` in ``tolerances``.
    ``False`` when ``doc`` has no object to hold it."""
    if not isinstance(doc, dict):
        return False
    if key == "format":
        doc["format"] = "csv"
    elif isinstance(doc.setdefault("tolerances", {}), dict):
        doc["tolerances"][key] = 1e-4
    return True


@FUZZ
@given(
    doc=documents(),
    command=st.sampled_from(["spectrum", "witness", "sweep", "certify"]),
    levels=st.none() | st.none() | st.integers(-1, 17),
    removed=st.sampled_from([None] * 8 + ["format", "fd_step", "schmidt_tol"]),
)
def test_every_document_gets_a_documented_exit_code(doc, command, levels, removed):
    argv = [command]
    if levels is not None:
        argv += ["--levels", str(levels)]
    stale = removed is not None and _add_removed_key(doc, removed)
    code, _ = _run(argv, doc)
    if stale:
        assert code == 2
    event(f"{command} exit {code}" + (f", {removed} key" if stale else ""))


def _lambda_route(doc) -> str:
    try:
        config = parse_config(doc)
    except ValueError:
        return "invalid config"
    shared = _shared_direction(config.system, config.witness_path, config.witness_lambda0)
    return "shared solve" if shared is not None else "second solve"


@settings(FUZZ, max_examples=100)
@given(doc=lambda_row_documents())
def test_every_lambda_row_gets_a_documented_exit_code(doc):
    route = _lambda_route(doc)
    code, out = _run(["witness"], doc)
    event(f"{route}, exit {code}")
    if code == 0:
        assert "\nlambda,,," in out


# Tolerance flag values: not a number, infinite, zero or negative (invalid),
# subnormal or huge (valid, and must not overflow or divide by zero later).
flag_values = (
    st.sampled_from(["nan", "inf", "-inf", "-1.0", "-0.0", "0"])
    | st.sampled_from(["5e-324", "1e-310", "1e-9", "0.5", "1e308", "1.7e308"])
    | st.floats(5e-324, 1.7e308).map(repr)
    | st.floats().map(repr)
)


@pytest.mark.parametrize("command", ["spectrum", "witness", "sweep", "certify"])
@settings(FUZZ, max_examples=75)
@given(
    doc=valid_documents(),
    flags=st.dictionaries(
        st.sampled_from(["--deg-tol", "--var-tol", "--fd-step"]), flag_values, min_size=1
    ),
    num=st.none() | st.sampled_from([MAX_GRID_POINTS + 1, 10**12, 2**63, 10**30]),
)
def test_every_tolerance_flag_gets_a_documented_exit_code(command, doc, flags, num):
    # "--flag=value", so argparse takes "-inf" as a value, not an option.
    # --fd-step is no flag, and --var-tol one of certify only: argparse
    # refuses them with exit 2.
    argv = [command] + [f"{flag}={value}" for flag, value in flags.items()]
    oversized = num is not None and "sweep" in doc
    if oversized:
        doc["sweep"]["grid"] = {"start": -1.0, "stop": 1.0, "num": num}
    code, _ = _run(argv, doc)
    refused = "--fd-step" in flags or ("--var-tol" in flags and command != "certify")
    if oversized or refused:
        assert code == 2
    event(f"exit {code}" + (", oversized grid" if oversized else ""))
