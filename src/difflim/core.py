"""Domain types shared by all modules: model parameters, jump ledgers,
observation sets, and the reproducible RNG stream contract.

Counts are 64-bit integers so population sizes up to 1e12 are exact; all
rates are computed in double precision.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional

import numpy as np


class Regime(str, Enum):
    BASS = "bass"
    SIR = "sir"
    GENERAL = "general"


class JumpKind(str, Enum):
    INFECTION = "I"
    RECOVERY = "R"


class ValidationError(ValueError):
    """Raised when inputs violate a documented precondition."""


class DataCorruptionError(ValueError):
    """Raised when an input file is malformed or its observed counts are
    inconsistent with any feasible path."""


@dataclass(frozen=True)
class ModelParams:
    """Tuple (n, beta, gamma, p) driving every simulation and likelihood.

    ``a = p * n`` is the innovator arrival rate near the start of the
    process and is exposed read-only.
    """

    n: float
    beta: float
    gamma: float = 0.0
    p: float = 0.0
    regime: Regime = Regime.GENERAL

    @property
    def a(self) -> float:
        return self.p * self.n

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "beta": self.beta,
            "gamma": self.gamma,
            "p": self.p,
            "regime": self.regime.value,
        }

    @staticmethod
    def from_json_dict(obj: dict) -> "ModelParams":
        return ModelParams(
            n=obj["n"],
            beta=obj["beta"],
            gamma=obj.get("gamma", 0.0),
            p=obj.get("p", 0.0),
            regime=Regime(obj.get("regime", "general")),
        )


def validate_params(params: ModelParams, strict_supercritical: bool = False) -> ModelParams:
    """Check parameter invariants and return the params unchanged.

    ``strict_supercritical`` additionally requires beta > gamma, the
    standing assumption of the SIR estimation results.
    """
    if not params.n > 0:
        raise ValidationError("n must be positive")
    if params.beta < 0:
        raise ValidationError("beta must be non-negative")
    if params.gamma < 0:
        raise ValidationError("gamma must be non-negative")
    if params.p < 0:
        raise ValidationError("p must be non-negative")
    if params.regime is Regime.BASS and params.gamma != 0:
        raise ValidationError("bass regime requires gamma = 0")
    if params.regime is Regime.SIR and params.p != 0:
        raise ValidationError("sir regime requires p = 0")
    if strict_supercritical and not params.beta > params.gamma:
        raise ValidationError("beta <= gamma (strict supercritical flag set)")
    return params


@dataclass(frozen=True)
class DiffusionState:
    """Compartment counts at one instant; c is the cumulative count i + r."""

    s: int
    i: int
    r: int

    @property
    def c(self) -> int:
        return self.i + self.r

    @property
    def n(self) -> int:
        return self.s + self.i + self.r

    def check(self, n: int) -> "DiffusionState":
        if min(self.s, self.i, self.r) < 0:
            raise ValidationError(f"negative compartment in state {self}")
        if self.n != n:
            raise ValidationError(f"state {self} does not conserve population {n}")
        return self


@dataclass(frozen=True)
class LedgerEntry:
    """One jump: absolute time, holding time before it, its kind, and the
    state after it.  Frozen post-termination entries carry kind=None and
    an infinite holding time."""

    t: float
    inter_arrival: float
    kind: Optional[JumpKind]
    state_after: DiffusionState


@dataclass
class JumpLedger:
    """Ordered record of the stochastic process.

    Entry k (1-based) holds T_k, the jump kind, and the post-jump state.
    After the stopping index ``terminated_at`` (first k whose state has
    i = 0 or i = n) entries repeat the frozen state with T = +inf.
    """

    n: int
    i0: int
    r0: int
    entries: list[LedgerEntry] = field(default_factory=list)
    terminated_at: Optional[int] = None

    @property
    def initial_state(self) -> DiffusionState:
        return DiffusionState(s=self.n - self.i0 - self.r0, i=self.i0, r=self.r0)

    def state_at(self, k: int) -> DiffusionState:
        return self.initial_state if k == 0 else self.entries[k - 1].state_after

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class ObservationSet:
    """The first m inter-arrival times and cumulative counts, plus the
    known initial split (i0, r0)."""

    i0: int
    r0: int
    samples: tuple[tuple[float, int], ...]

    @property
    def m(self) -> int:
        return len(self.samples)

    @property
    def c0(self) -> int:
        return self.i0 + self.r0

    @staticmethod
    def from_ledger(ledger: JumpLedger, m: Optional[int] = None) -> "ObservationSet":
        if m is None:
            m = len(ledger)
        if m > len(ledger):
            raise ValidationError(f"ledger has {len(ledger)} entries, requested m={m}")
        samples = tuple(
            (e.inter_arrival, e.state_after.c) for e in ledger.entries[:m]
        )
        return ObservationSet(i0=ledger.i0, r0=ledger.r0, samples=samples)

    def truncate(self, m: int) -> "ObservationSet":
        if m > self.m:
            raise ValidationError(f"cannot extend observation set of size {self.m} to {m}")
        return ObservationSet(i0=self.i0, r0=self.r0, samples=self.samples[:m])

    def inter_arrivals(self) -> np.ndarray:
        return np.array([t for t, _ in self.samples], dtype=float)

    def counts(self) -> np.ndarray:
        """Cumulative counts C_1..C_m."""
        return np.array([c for _, c in self.samples], dtype=np.int64)

    def alive_flags(self) -> np.ndarray:
        """E_k for k = 1..m, reconstructed from the counts alone."""
        return np.array(
            [reconstruct_state(c, k + 1, self.i0, self.r0)[0] for k, (_, c) in enumerate(self.samples)]
        )

    def infected(self) -> np.ndarray:
        """I_k for k = 1..m; zero where the process has stopped."""
        out = np.zeros(self.m, dtype=np.int64)
        for k, (_, c) in enumerate(self.samples):
            alive, i_k = reconstruct_state(c, k + 1, self.i0, self.r0)
            out[k] = i_k if alive else 0
        return out


def reconstruct_state(c_k: int, k: int, i0: int, r0: int) -> tuple[bool, int]:
    """Recover the alive flag and infected count from a cumulative count.

    After k jumps, the number of infections is c_k - i0 - r0 and the number
    of recoveries is k minus that, so i_k = 2*c_k - k - i0 - 2*r0.  The
    process is still running exactly when c_k > (i0 + k + 2*r0) / 2, i.e.
    when the implied i_k is positive.  Returns (alive, i_k); i_k is 0 when
    the process has stopped.
    """
    if c_k < 0 or k < 0 or i0 < 0 or r0 < 0:
        raise ValidationError("counts and indices must be non-negative")
    if c_k > i0 + r0 + k:
        raise DataCorruptionError(
            f"c={c_k} exceeds i0+r0+k={i0 + r0 + k}: more arrivals than jumps"
        )
    if c_k < i0 + r0:
        raise DataCorruptionError(
            f"c={c_k} is below the initial cumulative count {i0 + r0}"
        )
    alive = 2 * c_k > i0 + k + 2 * r0
    if not alive:
        return False, 0
    i_k = 2 * c_k - k - i0 - 2 * r0
    if i_k <= 0:
        raise DataCorruptionError(f"implied infected count {i_k} not positive while alive")
    return True, i_k


@dataclass(frozen=True)
class RngStream:
    """Counter-based random stream: same (seed, stream_id) yields the same
    draws on every run and under any scheduling; distinct stream_ids are
    statistically independent."""

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        key = np.array(
            [np.uint64(self.seed & 0xFFFFFFFFFFFFFFFF), np.uint64(self.stream_id & 0xFFFFFFFFFFFFFFFF)],
            dtype=np.uint64,
        )
        return np.random.Generator(np.random.Philox(key=key))

    def substream(self, offset: int) -> "RngStream":
        """Derived stream for internal fan-out (chunked Monte-Carlo,
        optimizer starts).  Offsets are namespaced by the caller."""
        return RngStream(seed=self.seed, stream_id=self.stream_id + offset)


# ---------------------------------------------------------------------------
# Ledger CSV schema: k,t,inter_arrival,kind,S,I,R,C with one row per jump.
# Frozen rows (k past the stopping index) carry kind=X and an empty
# inter_arrival field; +inf never appears in serialized output.
# ---------------------------------------------------------------------------

LEDGER_FIELDS = ["k", "t", "inter_arrival", "kind", "S", "I", "R", "C"]


def write_ledger_csv(ledger: JumpLedger, path, replicate: Optional[int] = None) -> None:
    fields = (["replicate"] if replicate is not None else []) + LEDGER_FIELDS
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(fields)
        _write_ledger_rows(w, ledger, replicate)


def write_batch_csv(ledgers: Iterable[JumpLedger], path) -> None:
    """Single concatenated file with a replicate column."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["replicate"] + LEDGER_FIELDS)
        for rep, ledger in enumerate(ledgers):
            _write_ledger_rows(w, ledger, rep)


def _write_ledger_rows(w, ledger: JumpLedger, replicate: Optional[int]) -> None:
    prefix = [replicate] if replicate is not None else []
    for k, e in enumerate(ledger.entries, start=1):
        frozen = e.kind is None
        st = e.state_after
        w.writerow(
            prefix
            + [
                k,
                "" if frozen else repr(e.t),
                "" if frozen else repr(e.inter_arrival),
                "X" if frozen else e.kind.value,
                st.s,
                st.i,
                st.r,
                st.c,
            ]
        )


def _require_columns(path, fieldnames, required) -> None:
    """Reject a CSV whose header lacks any of the ``required`` columns."""
    for column in required:
        if column not in (fieldnames or ()):
            raise DataCorruptionError(f"{path}: missing column {column!r} in header {fieldnames}")


def _parse_cell(path, line: int, row: dict, column: str, kind=int):
    """``kind(row[column])``; a bad or missing cell raises DataCorruptionError
    naming the file, the line and the column."""
    value = row[column]
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise DataCorruptionError(
            f"{path}: line {line}, column {column!r}: cannot read {value!r} as {kind.__name__}"
        ) from None


def read_ledger_csv(path) -> JumpLedger:
    """Rebuild a ledger from the CSV schema.

    The initial split (i0, r0) is recovered by inverting the first jump;
    files with only frozen rows are rejected, and so are batch files (a
    leading ``replicate`` column), which hold several ledgers.
    """
    with open(path, newline="") as fh:
        rdr = csv.DictReader(fh)
        _require_columns(path, rdr.fieldnames, LEDGER_FIELDS)
        if "replicate" in rdr.fieldnames:
            raise DataCorruptionError(
                f"{path}: has a 'replicate' column, so it is a batch of ledgers; "
                "read one replicate (simulate --split-files writes one file each)"
            )
        rows = [(rdr.line_num, row) for row in rdr]
    if not rows:
        raise DataCorruptionError(f"{path}: empty ledger file")
    line1, first = rows[0]
    s1, i1, r1 = (_parse_cell(path, line1, first, col) for col in "SIR")
    kind1 = first["kind"]
    if kind1 == "I":
        i0, r0, s0 = i1 - 1, r1, s1 + 1
    elif kind1 == "R":
        i0, r0, s0 = i1 + 1, r1 - 1, s1
    else:
        raise DataCorruptionError(f"{path}: first row has kind {kind1!r}, initial state unrecoverable")
    n = s0 + i0 + r0
    entries: list[LedgerEntry] = []
    terminated_at = None
    for line, row in rows:
        s, i, r, c = (_parse_cell(path, line, row, col) for col in "SIRC")
        try:
            st = DiffusionState(s=s, i=i, r=r).check(n)
        except ValidationError as exc:
            raise DataCorruptionError(f"{path}: line {line}: {exc}") from None
        if st.c != c:
            raise DataCorruptionError(f"{path}: line {line}, column 'C': {c} != I + R")
        if row["kind"] == "X":
            kind = None
            t = entries[-1].t if entries else 0.0
            ta = math.inf
            if terminated_at is None:
                terminated_at = len(entries)
        else:
            kind = _parse_cell(path, line, row, "kind", JumpKind)
            t = _parse_cell(path, line, row, "t", float)
            ta = _parse_cell(path, line, row, "inter_arrival", float)
        entries.append(LedgerEntry(t=t, inter_arrival=ta, kind=kind, state_after=st))
    if terminated_at is None and entries:
        last = entries[-1].state_after
        if last.i == 0 or last.i == n:
            terminated_at = len(entries)
    return JumpLedger(n=n, i0=i0, r0=r0, entries=entries, terminated_at=terminated_at)


def write_params_json(params: ModelParams, path) -> None:
    with open(path, "w") as fh:
        json.dump(params.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_params_json(path) -> ModelParams:
    with open(path) as fh:
        return ModelParams.from_json_dict(json.load(fh))
