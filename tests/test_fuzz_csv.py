"""Fuzzing of the two CSV readers and the commands that read them.

Inputs are valid files with bytes replaced, deleted or inserted, plus
arbitrary bytes.  A reader either returns or raises DataCorruptionError;
``estimate``, ``fit`` and ``peaks`` exit with a documented code and never
report an input file as ``error[runtime]``.  The examples are derandomized
so that every run checks the same inputs.
"""

import contextlib
import functools
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from difflim.cli import dispatch
from difflim.core import (
    DataCorruptionError,
    ModelParams,
    Regime,
    RngStream,
    read_ledger_csv,
    write_ledger_csv,
)
from difflim.discrete import read_counts_csv, simulate_discrete, write_counts_csv
from difflim.simulate import SimSpec, simulate_ledger

FUZZ = settings(max_examples=60, derandomize=True, deadline=None, database=None)
DOCUMENTED_EXITS = {0, 1, 2, 3}


@functools.lru_cache(maxsize=None)
def _valid(kind: str) -> bytes:
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "input.csv"
        if kind == "ledger":
            params = ModelParams(n=500, beta=0.5, gamma=0.25, regime=Regime.SIR)
            write_ledger_csv(simulate_ledger(SimSpec(params, i0=5, max_jumps=12, rng=RngStream(seed=3))), path)
        else:
            params = ModelParams(n=10_000, beta=0.5, gamma=0.25, regime=Regime.SIR)
            series = simulate_discrete(params, 10, 0, 8, RngStream(seed=1), instance_id="r1")
            write_counts_csv([series], path)
        return path.read_bytes()


@st.composite
def _mutated(draw, kind: str) -> bytes:
    """A valid file with up to three byte ranges replaced, or arbitrary bytes."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.binary(max_size=200))
    data = _valid(kind)
    for _ in range(draw(st.integers(1, 3))):
        start = draw(st.integers(0, len(data)))
        stop = draw(st.integers(start, min(start + 8, len(data))))
        filler = draw(st.one_of(
            st.binary(max_size=6),
            st.sampled_from([b"", b",", b"\n", b"-1", b"0", b"nan", b"inf", b"1e400", b"\"", b"X", b"R", b"I",
                             b"99999999999999999999999", b"\xff", b"\x00", b"\r\n"]),
        ))
        data = data[:start] + filler + data[stop:]
    return data


@contextlib.contextmanager
def _input_file(data: bytes):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "input.csv"
        path.write_bytes(data)
        yield path


def _run(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = dispatch(argv)
    return code, err.getvalue()


@FUZZ
@given(_mutated("ledger"))
def test_ledger_reader_reads_or_reports_corruption(data):
    with _input_file(data) as path:
        try:
            read_ledger_csv(path)
        except DataCorruptionError as exc:
            assert str(path) in str(exc)


@FUZZ
@given(_mutated("counts"))
def test_counts_reader_reads_or_reports_corruption(data):
    with _input_file(data) as path:
        try:
            read_counts_csv(path)
        except DataCorruptionError as exc:
            assert str(path) in str(exc)


@FUZZ
@given(_mutated("ledger"))
def test_estimate_on_fuzzed_ledger_exits_with_a_documented_code(data):
    with _input_file(data) as path:
        for model in ("sir", "bass"):
            code, err = _run(["estimate", "--model", model, "--input", str(path)])
            assert code in DOCUMENTED_EXITS
            assert "error[runtime]" not in err and "Traceback" not in err


@FUZZ
@given(_mutated("counts"))
def test_fit_and_peaks_on_fuzzed_counts_exit_with_a_documented_code(data):
    with _input_file(data) as path:
        for argv in (
            ["fit", "--gamma", "0.25", "--n-max", "1e6", "--fix-a"],
            ["peaks", "--gamma1", "0.5", "--t", "8"],
        ):
            code, err = _run(argv + ["--input", str(path)])
            assert code in DOCUMENTED_EXITS
            assert "error[runtime]" not in err and "Traceback" not in err
