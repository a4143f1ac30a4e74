"""Exact event-driven simulation of the stochastic diffusion process.

Jumps occur at rate (beta*S/N)*I + p*S + gamma*I; each jump is a new
infection with probability S*(beta*I + p*N) / (S*(beta*I + p*N) + N*gamma*I)
and a recovery otherwise.  Two uniforms are consumed per jump in a fixed
order (holding time first, then jump type) so ledgers are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .core import (
    DiffusionState,
    JumpKind,
    JumpLedger,
    LedgerEntry,
    ModelParams,
    RngStream,
    ValidationError,
    is_integer,
    validate_params,
)


@dataclass(frozen=True)
class SimSpec:
    params: ModelParams
    i0: int
    r0: int = 0
    max_jumps: int = 1
    rng: RngStream = RngStream(seed=0)

    def __post_init__(self):
        validate_params(self.params)
        if self.max_jumps < 1:
            raise ValidationError("max_jumps must be >= 1")
        _check_start(self.i0, self.r0)
        if self.i0 + self.r0 > self.params.n:
            raise ValidationError("i0 + r0 exceeds the population")


def _check_start(i0, r0) -> None:
    """The start counts both simulators take: integers (numpy's too)."""
    if not is_integer(i0) or i0 < 1:
        raise ValidationError("i0 must be an integer >= 1 (the process starts with an infected unit)")
    if not is_integer(r0) or r0 < 0:
        raise ValidationError("r0 must be an integer >= 0")


def simulate_ledger(spec: SimSpec) -> JumpLedger:
    """Ledger of exactly max_jumps entries.

    From a live state (i neither 0 nor n) each jump draws its holding time
    -log1p(-u)/lam, then its kind: an infection when the second uniform is
    below s*(beta*i + p*n) / (s*(beta*i + p*n) + n*gamma*i).  The process
    stops once i = 0 or i = n; entries past the stopping index repeat the
    frozen state with an infinite holding time, so observation sets always
    have full length.  The start is tested against n as given, each later
    state against int(n), which is the ledger's population.
    """
    gen = spec.rng.generator()
    params = spec.params
    n, beta, gamma, p = params.n, params.beta, params.gamma, params.p
    ledger = JumpLedger(n=int(n), i0=spec.i0, r0=spec.r0)
    entries = ledger.entries
    state = ledger.initial_state
    s, i, r = state.s, state.i, state.r
    t = 0.0
    k = 0
    live = not (i == 0 or i == n)
    while live and k < spec.max_jumps:
        lam = (beta * s / n) * i + p * s + gamma * i
        if lam <= 0:
            raise ValidationError("degenerate rates: zero total jump rate in a live state")
        u_time = gen.random()
        u_kind = gen.random()
        dt = -math.log1p(-u_time) / lam
        num = s * (beta * i + p * n)
        if u_kind < num / (num + n * gamma * i):
            kind = JumpKind.INFECTION
            s, i = s - 1, i + 1
        else:
            kind = JumpKind.RECOVERY
            i, r = i - 1, r + 1
        t += dt
        k += 1
        state = DiffusionState(s=s, i=i, r=r)
        entries.append(LedgerEntry(t=t, inter_arrival=dt, kind=kind, state_after=state))
        live = not (i == 0 or i == ledger.n)
    if not live:
        ledger.terminated_at = k
        frozen = LedgerEntry(t=t, inter_arrival=math.inf, kind=None, state_after=state)
        entries.extend([frozen] * (spec.max_jumps - k))
    return ledger


def simulate_batch(spec: SimSpec, replicates: int) -> list[JumpLedger]:
    """Ledger r of ``replicates`` is simulated on ``spec.rng.substream(r)``,
    the stream (seed, stream_id + r)."""
    if replicates < 1:
        raise ValidationError("replicates must be >= 1")
    return [simulate_ledger(replace(spec, rng=spec.rng.substream(r))) for r in range(replicates)]


# ---------------------------------------------------------------------------
# Vectorized lockstep simulation over replicates.  Used by the Fisher and
# estimation Monte-Carlo machinery, where only (T_k, C_k) paths are needed.
# Per step all replicates draw a holding time, then a jump type, so the
# consumed stream is a fixed function of (seed, stream) alone.  The
# uniforms are drawn in (K, 2, R) blocks: block[j, 0] and block[j, 1] are
# the same draws as two successive random(R) calls for step k0 + j.  Each
# block becomes one slab of K rows, handed to the consumer before the next
# block is drawn, so a reduction over rows never holds more than K rows.
# A uniform that no one reads keeps its place in the stream but is jumped
# over by Philox counter arithmetic (``_skip``) instead of being drawn.
# ---------------------------------------------------------------------------

# At most this many uniforms per (K, 2, R) block, i.e. 512 KB of doubles.
_BLOCK_DOUBLES = 1 << 16

# Jumping over an unread row takes two more Python calls per step (the read
# row's own random(out=row), then advance + random_raw), where drawing it
# costs R doubles at a few ns each.  Measured on a 2-vCPU Xeon VM as the
# median time ratio of 15 alternating runs, per-row skipping against block
# draws: 1.11-1.12 at R = 512, 1.00-1.01 at 768, 0.88-0.96 at 1024 and
# 0.81-0.89 at 2048, for SIR counts and gamma = 0 holding times alike.
_SKIP_MIN_R = 1024

# The SIR kernel tabulates a span of steps over a window of counts at least
# as wide as the span, so a table grows with the span's square; narrow
# blocks (many steps, few columns) are tabulated this many steps at a time.
_SPAN = 32


@dataclass
class PathBlock:
    """Columns are replicates.  T[k-1, r] is the k-th holding time (inf once
    stopped), C[k, r] the cumulative count after k jumps (frozen once
    stopped), alive[k, r] whether the process is still live after k jumps,
    infected[k, r] the live infected count (0 once stopped).

    A slab from ``path_slabs`` is a PathBlock of the rows after k0 jumps:
    T[j] is the (k0 + j + 1)-th holding time and C[j] the count after
    k0 + j jumps; T is None when the holding times were not asked for."""

    T: Optional[np.ndarray]
    C: np.ndarray
    alive: np.ndarray
    infected: np.ndarray

    @property
    def m(self) -> int:
        return self.C.shape[0] - 1

    @property
    def replicates(self) -> int:
        return self.C.shape[1]


class ColumnTotals:
    """Column sums of an (m, R) array that arrives a slab of rows at a time,
    bit-identical to ``array.sum(axis=0)``.  numpy adds the rows of an array
    with more than one column in row order from 0.0, which ``add`` does; a
    single column it sums pairwise, so that column is kept (m doubles) and
    summed at the end."""

    def __init__(self, m: int, replicates: int):
        self._column = np.empty(m) if replicates == 1 else None
        self._sum = np.zeros(replicates)
        self._k = 0

    def add(self, rows: np.ndarray) -> None:
        if self._column is not None:
            self._column[self._k : self._k + len(rows)] = rows[:, 0]
            self._k += len(rows)
            return
        for row in rows:
            self._sum += row

    def total(self) -> np.ndarray:
        if self._column is not None:
            return np.array([self._column[: self._k].sum()])
        return self._sum


def simulate_paths(
    params: ModelParams,
    i0: int,
    r0: int,
    m: int,
    rng: RngStream,
    replicates: int,
) -> PathBlock:
    """R = ``replicates`` independent paths of m jumps, simulated in lockstep:
    the slabs of ``path_slabs`` collected into one block."""
    slabs = path_slabs(params, i0, r0, m, rng, replicates)
    R = replicates
    T = np.empty((m, R))
    C = np.empty((m + 1, R), dtype=np.int64)
    alive = np.empty((m + 1, R), dtype=bool)
    infected = np.empty((m + 1, R), dtype=np.int64)
    for k0, slab in slabs:
        rows = slice(k0, k0 + slab.m + 1)
        T[k0 : k0 + slab.m] = slab.T
        C[rows] = slab.C
        alive[rows] = slab.alive
        infected[rows] = slab.infected
    return PathBlock(T=T, C=C, alive=alive, infected=infected)


def path_slabs(
    params: ModelParams,
    i0: int,
    r0: int,
    m: int,
    rng: RngStream,
    replicates: int,
    times: bool = True,
):
    """The paths of ``simulate_paths``, one slab of rows at a time: an
    iterator of (k0, slab) with slab a PathBlock of rows k0..k1 (T rows
    k0..k1-1), in order, covering rows 0..m; with m = 0 it is row 0 alone.
    The slabs are views of buffers that the next slab overwrites, so a
    consumer reads each one without writing to it and reduces or copies it
    before asking for the next.

    Step k of every column takes the rate (beta*S/N)*I + p*S + gamma*I
    and the infection probability from the same float expressions, in the
    same order, as ``simulate_ledger``; a column whose process has stopped
    (i = 0 or i = n), or whose rate is not positive, keeps its state and
    gets T = inf.  With gamma > 0 a live column's S and I follow from its
    count C and k, so those expressions are evaluated once per span of
    steps into a table over (step, count), and each step looks its columns'
    probabilities up by C: no draw and no bit of the output changes.  With
    gamma = 0 the counts are deterministic, so they are stepped once for
    all columns and only the holding times are drawn per column.  Once no
    column can jump, the frozen rows that remain are handed out without
    drawing.

    i0 >= 1 and r0 >= 0 are integers (numpy's too), as are m >= 0 and
    ``replicates`` >= 1; anything else is a ValidationError.

    With ``times=False`` every slab has T = None and the holding times are
    neither computed nor their uniforms drawn; C, alive and infected are
    those of ``times=True`` bit for bit.
    """
    # Not a generator itself, so that bad arguments raise at the call.
    validate_params(params)
    _check_start(i0, r0)
    if not is_integer(m) or m < 0:
        raise ValidationError("m must be an integer >= 0")
    if not is_integer(replicates) or replicates < 1:
        raise ValidationError("replicates must be an integer >= 1")
    return _slabs(params, float(params.n), i0, r0, m, rng, replicates, times)


def _slabs(params, n, i0, r0, m, rng, R, times):
    K = max(1, _BLOCK_DOUBLES // max(2 * R, 1))
    rows = min(K, m)
    buf = PathBlock(
        T=np.empty((rows, R)) if times else None,
        C=np.empty((rows + 1, R), dtype=np.int64),
        alive=np.empty((rows + 1, R), dtype=bool),
        infected=np.empty((rows + 1, R), dtype=np.int64),
    )
    live = 0 < float(i0) < n
    buf.C[0] = int(i0 + r0)
    buf.alive[0] = live
    buf.infected[0] = int(i0) if live else 0
    if m == 0:
        yield 0, buf
        return

    kernel = _pure_adoption_slabs if params.gamma == 0 else _lockstep_slabs
    steps = yield from kernel(params, n, i0, r0, m, rng.generator(), buf)
    # Row 0 of the buffer now holds the state after the last simulated
    # step; no column can jump from it, so the remaining rows repeat it.
    if times:
        buf.T.fill(np.inf)
    buf.C[1:] = buf.C[0]
    buf.alive[1:] = buf.alive[0]
    buf.infected[1:] = buf.infected[0]
    for k0 in range(steps, m, rows):
        yield k0, _head(buf, min(rows, m - k0))


def _head(buf: PathBlock, kb: int) -> PathBlock:
    """The slab of the buffer's first kb steps."""
    T = None if buf.T is None else buf.T[:kb]
    return PathBlock(T=T, C=buf.C[: kb + 1], alive=buf.alive[: kb + 1], infected=buf.infected[: kb + 1])


def _carry(buf: PathBlock, kb: int) -> None:
    """Move the state after the slab's last step into row 0, the start of
    the next slab."""
    buf.C[0] = buf.C[kb]
    buf.alive[0] = buf.alive[kb]
    buf.infected[0] = buf.infected[kb]


def _skip(bitgen: np.random.Philox, drawn: int, q: int) -> None:
    """Move a Philox stream that has handed out ``drawn`` doubles on by q
    doubles without making them.  Philox makes four 64-bit outputs per
    counter value, and a double takes one output from that buffer; so the
    -drawn % 4 outputs left in the buffer are dropped, the counter is
    advanced by whole blocks of four (``advance`` also empties the buffer),
    and the remaining 0-3 outputs are drawn raw."""
    left = -drawn % 4
    if q <= left:
        bitgen.random_raw(q)
        return
    q -= left
    bitgen.advance(q // 4)
    bitgen.random_raw(q % 4)


def _uniform_blocks(gen: np.random.Generator, m: int, R: int, K: int, read: tuple):
    """Yield (k0, U) with U of shape (K, 2, R): U[j, 0] is the holding-time
    and U[j, 1] the jump-type uniform of step k0 + j + 1.  U is one reused
    buffer, overwritten by the next block; a consumer that stops early
    leaves the rest of the stream undrawn.

    ``read`` names the uniforms the consumer reads.  If it reads only one
    and R >= _SKIP_MIN_R, each step's read row is drawn on its own and the
    other row is skipped (``_skip``), left holding stale values; every
    read row has the bits of the block draw."""
    buf = np.empty((min(K, m), 2, R))
    skip = len(read) == 1 and R >= _SKIP_MIN_R
    bitgen = gen.bit_generator
    for k0 in range(0, m, K):
        u = buf[: min(K, m - k0)]
        if not skip:
            gen.random(out=u)
        else:
            (x,) = read
            for j, row in enumerate(u[:, x]):
                drawn = 2 * R * (k0 + j)  # doubles before step k0 + j + 1
                if x == 1:
                    _skip(bitgen, drawn, R)
                gen.random(out=row)
                if x == 0:
                    _skip(bitgen, drawn + R, R)
        yield k0, u


def _exp_holding_numerators(u_time: np.ndarray, out: np.ndarray) -> np.ndarray:
    """-log1p(-u) into the contiguous ``out``: the operations, and the
    contiguity that picks numpy's log1p loop, of a per-step
    ``-np.log1p(-u_time)``."""
    np.negative(u_time, out=out)
    np.log1p(out, out=out)
    np.negative(out, out=out)
    return out


def _pure_adoption_slabs(params, n, i0, r0, m, gen, buf):
    """gamma = 0: the infection probability is num / (num + 0) = num / num,
    exactly 1 (above every uniform in [0, 1)) unless num is 0 or inf, where
    it is NaN (below none).  So every column follows one count path, stepped
    here in scalar floats with the lockstep expressions, and the holding
    times are -log1p(-u) / lam_k written block by block.  The jump-type
    uniforms are never read, and without T no uniform is.  Returns the
    number of jumps on the path."""
    beta, gamma, p = params.beta, params.gamma, params.p
    s, i, rr = n - i0 - r0, float(i0), float(r0)
    live = 0 < i < n
    lam = np.empty(m)
    counts = np.empty(m + 1, dtype=np.int64)
    alive = np.empty(m + 1, dtype=bool)
    infected = np.empty(m + 1, dtype=np.int64)
    steps = 0
    for k in range(1, m + 1):
        rate = (beta * s / n) * i + p * s + gamma * i
        if not (live and rate > 0):
            break
        num = s * (beta * i + p * n)
        if num != 0 and math.isfinite(num):
            s, i = s - 1.0, i + 1.0
        else:
            i, rr = i - 1.0, rr + 1.0
        live = 0 < i < n
        lam[k - 1] = rate
        counts[k] = int(i + rr)
        alive[k] = live
        infected[k] = int(i) if live else 0
        steps = k
    K, R = buf.C.shape[0] - 1, buf.C.shape[1]
    if buf.T is not None:
        blocks = _uniform_blocks(gen, steps, R, K, read=(0,))
    for k0 in range(0, steps, K):
        kb = min(K, steps - k0)
        if buf.T is not None:
            _, u = next(blocks)
            t = _exp_holding_numerators(u[:, 0], buf.T[:kb])
            t /= lam[k0 : k0 + kb, None]
        after = slice(k0 + 1, k0 + kb + 1)
        buf.C[1 : kb + 1] = counts[after, None]
        buf.alive[1 : kb + 1] = alive[after, None]
        buf.infected[1 : kb + 1] = infected[after, None]
        yield k0, _head(buf, kb)
        _carry(buf, kb)
    return steps


def _lockstep_slabs(params, n, i0, r0, m, gen, buf):
    """gamma > 0: each column is stepped through its count C alone.  Until
    it stops, a column has after k jumps S = n - C (the float S of C - c0
    unit decrements from n - c0, c0 = i0 + r0) and I = 2C - k - i0 - 2 r0,
    so per span of steps the infection probability of each (step, count)
    in the live columns' window is tabulated once, from the expressions of
    ``simulate_ledger``, NaN where no jump is taken (I <= 0, I >= n or a
    rate <= 0); a step is a lookup, a compare and an add.  While
    i0 + r0 + m < n only extinction stops a column, and I <= 0 marks it at
    every later step; otherwise stops (I = n, or a rate <= 0 once S < 0,
    which freezes a live column) are marked per step.  Stops drawing once
    no column is live.  Returns the number of steps simulated."""
    beta, gamma, p = params.beta, params.gamma, params.p
    T, C, alive, infected = buf.T, buf.C, buf.alive, buf.infected
    K, R = C.shape[0] - 1, C.shape[1]
    times, track = T is not None, i0 + r0 + m >= n
    blocks = _uniform_blocks(gen, m, R, K, read=(0, 1) if times else (1,))
    pn, ngamma, c0, base, span = p * n, n * gamma, i0 + r0, i0 + 2 * r0, min(K, _SPAN)
    s_of = np.subtract.accumulate(np.r_[n - i0 - r0, np.ones(m)])  # S at count c0 + u
    prob, up, flag = np.empty(R), np.empty(R, dtype=bool), np.empty(R, dtype=bool)
    e, at = np.empty((K, R)), np.empty((span, R), dtype=np.int64)
    ok = np.repeat(alive[:1], K + 1, axis=0)  # ok[j + 1]: step k0 + j + 1 taken (tracked)
    taken, tables, steps = np.zeros(R, dtype=np.int64), np.empty((4, 0)), 0  # jumps before the block
    for k0, u in blocks:
        kb = len(u)
        if not alive[0].any():
            break
        # The errstate is entered and left within the block, never across
        # a yield, so the consumer's code does not run under it.
        with np.errstate(divide="ignore", invalid="ignore"):
            for t0 in range(0, kb, span):
                rows, live = min(span, kb - t0), C[t0][alive[0]]
                lo, hi = int(live.min()), int(live.max()) + rows
                # Columns 1..w-2 are the counts lo..hi; the counts outside
                # are clipped onto columns 0 and w-1, which hold NaN.
                w = hi - lo + 3
                if tables.shape[1] < rows * w:
                    tables = np.empty((4, 2 * rows * w))
                i, tmp, P, lam = (t[: rows * w].reshape(rows, w) for t in tables)
                i, tmp, Pc, Lc = i[:, 1:-1], tmp[:, 1:-1], P[:, 1:-1], lam[:, 1:-1]
                s = s_of[lo - c0 : hi - c0 + 1]
                np.subtract(2.0 * np.arange(lo, hi + 1) - (k0 + t0 + base), np.arange(rows)[:, None], out=i)
                stop = (i <= 0) | (i >= n)
                if times or track:
                    # lam = (beta*s/n)*i + p*s + gamma*i, term by term; with
                    # p = 0 the +-0.0 terms p*s and p*n change no bit and are left out.
                    np.multiply(i, s * beta / n, out=Lc)
                    if p:
                        Lc += s * p
                    Lc += np.multiply(i, gamma, out=tmp)
                    stop |= Lc <= 0
                # p_inf = num / (num + (n*gamma)*i), num = s*(beta*i + p*n).
                np.multiply(i, beta, out=tmp)
                if p:
                    tmp += pn
                np.multiply(tmp, s, out=Pc)
                Pc /= np.add(np.multiply(i, ngamma, out=tmp), Pc, out=tmp)
                np.copyto(Pc, np.nan, where=stop)
                np.copyto(Lc, np.nan, where=stop)
                P[:, :: w - 1] = lam[:, :: w - 1] = np.nan
                x = C[t0 : t0 + rows + 1]  # counts less lo - 1 during the span
                x[0] -= lo - 1
                for j in range(rows):
                    P[j].take(x[j], out=prob, mode="clip")
                    np.less(u[t0 + j, 1], prob, out=up)
                    if track:
                        np.greater(ok[t0 + j], np.isnan(prob, out=flag), out=ok[t0 + j + 1])
                        up &= ok[t0 + j + 1]
                    np.add(x[j], up, out=x[j + 1])
                if times:
                    np.clip(x[:rows], 0, w - 1, out=at[:rows])
                    at[:rows] += np.arange(0, rows * w, w)[:, None]
                    lam.take(at[:rows], out=T[t0 : t0 + rows], mode="clip")
                x += lo - 1
            # I = 2C - (jumps taken) - i0 - 2 r0; the steps taken are a prefix.
            took = ok[1 : kb + 1].sum(axis=0) if track else kb
            I = np.multiply(C[1 : kb + 1], 2, out=infected[1 : kb + 1])
            I -= np.minimum(np.arange(1, kb + 1)[:, None], took) + (taken + base)
            taken += took
            ok[0] = ok[kb]
            np.greater(I, 0, out=alive[1 : kb + 1])
            alive[1 : kb + 1] &= I < n
            I *= alive[1 : kb + 1]
            if times:
                np.divide(_exp_holding_numerators(u[:, 0], e[:kb]), T[:kb], out=T[:kb])
                np.copyto(T[:kb], np.inf, where=~(ok[1 : kb + 1] if track else alive[:kb]))
        steps = k0 + kb
        yield k0, _head(buf, kb)
        _carry(buf, kb)
    return steps
