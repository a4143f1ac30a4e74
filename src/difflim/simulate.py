"""Exact event-driven simulation of the stochastic diffusion process.

Jumps occur at rate (beta*S/N)*I + p*S + gamma*I; each jump is a new
infection with probability S*(beta*I + p*N) / (S*(beta*I + p*N) + N*gamma*I)
and a recovery otherwise.  Two uniforms are consumed per jump in a fixed
order (holding time first, then jump type) so ledgers are reproducible.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
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
    validate_params,
)


class Terminated:
    """Sentinel returned by next_jump once i = 0 or i = n."""

    def __repr__(self) -> str:  # pragma: no cover
        return "Terminated"


TERMINATED = Terminated()


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
        if self.i0 < 1:
            raise ValidationError("i0 must be >= 1 (the process starts with an infected unit)")
        if self.r0 < 0:
            raise ValidationError("r0 must be >= 0")
        if self.i0 + self.r0 > self.params.n:
            raise ValidationError("i0 + r0 exceeds the population")


def jump_rate(state: DiffusionState, params: ModelParams) -> float:
    return (params.beta * state.s / params.n) * state.i + params.p * state.s + params.gamma * state.i


def infection_probability(state: DiffusionState, params: ModelParams) -> float:
    num = state.s * (params.beta * state.i + params.p * params.n)
    den = num + params.n * params.gamma * state.i
    return num / den


def next_jump(state: DiffusionState, params: ModelParams, gen: np.random.Generator):
    """One transition: returns (T, kind) or TERMINATED.

    Always consumes exactly two uniforms when a jump occurs, time first.
    """
    if state.i == 0 or state.i == params.n:
        return TERMINATED
    lam = jump_rate(state, params)
    if lam <= 0:
        raise ValidationError("degenerate rates: zero total jump rate in a live state")
    u_time = gen.random()
    u_kind = gen.random()
    t = -math.log1p(-u_time) / lam
    kind = JumpKind.INFECTION if u_kind < infection_probability(state, params) else JumpKind.RECOVERY
    return t, kind


def _apply(state: DiffusionState, kind: JumpKind) -> DiffusionState:
    if kind is JumpKind.INFECTION:
        return DiffusionState(s=state.s - 1, i=state.i + 1, r=state.r)
    return DiffusionState(s=state.s, i=state.i - 1, r=state.r + 1)


def simulate_ledger(spec: SimSpec) -> JumpLedger:
    """Ledger of exactly max_jumps entries.

    Entries past the stopping index repeat the frozen state with an
    infinite holding time, so observation sets always have full length.
    """
    gen = spec.rng.generator()
    params = spec.params
    n = int(params.n)
    ledger = JumpLedger(n=n, i0=spec.i0, r0=spec.r0)
    state = ledger.initial_state
    t = 0.0
    for k in range(1, spec.max_jumps + 1):
        if ledger.terminated_at is None:
            step = next_jump(state, params, gen)
            if step is TERMINATED:
                ledger.terminated_at = k - 1
            else:
                dt, kind = step
                t += dt
                state = _apply(state, kind)
                ledger.entries.append(
                    LedgerEntry(t=t, inter_arrival=dt, kind=kind, state_after=state)
                )
                if state.i == 0 or state.i == n:
                    ledger.terminated_at = k
                continue
        ledger.entries.append(
            LedgerEntry(t=t, inter_arrival=math.inf, kind=None, state_after=state)
        )
    return ledger


def _worker(args) -> JumpLedger:
    params_dict, i0, r0, max_jumps, seed, stream_id = args
    spec = SimSpec(
        params=ModelParams.from_json_dict(params_dict),
        i0=i0,
        r0=r0,
        max_jumps=max_jumps,
        rng=RngStream(seed=seed, stream_id=stream_id),
    )
    return simulate_ledger(spec)


def simulate_batch(spec: SimSpec, replicates: int, parallelism: int = 1) -> list[JumpLedger]:
    """Replicate r uses stream (seed, base_stream + r); output order is by
    replicate index regardless of the worker pool size."""
    if replicates < 1:
        raise ValidationError("replicates must be >= 1")
    args = [
        (
            spec.params.to_json_dict(),
            spec.i0,
            spec.r0,
            spec.max_jumps,
            spec.rng.seed,
            spec.rng.stream_id + r,
        )
        for r in range(replicates)
    ]
    if parallelism <= 1:
        return [_worker(a) for a in args]
    with ProcessPoolExecutor(max_workers=parallelism) as pool:
        return list(pool.map(_worker, args))


def dominated_walk(spec: SimSpec, p_bern: float) -> np.ndarray:
    """Comparison process A_0..A_m: A_0 = c0, steps are iid Bernoulli(p_bern)
    increments, frozen after the first index where A_k <= (i0 + k + 2*r0)/2.

    The walk is stochastically below the cumulative count of the diffusion
    whenever every infection probability along feasible paths exceeds
    p_bern, which makes its stopping time an upper bound in distribution.
    """
    if not 0 <= p_bern <= 1:
        raise ValidationError("p_bern must be in [0, 1]")
    gen = spec.rng.generator()
    m = spec.max_jumps
    c0 = spec.i0 + spec.r0
    out = np.empty(m + 1, dtype=np.int64)
    out[0] = c0
    frozen = False
    for k in range(1, m + 1):
        if frozen:
            out[k] = out[k - 1]
            continue
        out[k] = out[k - 1] + (1 if gen.random() < p_bern else 0)
        if 2 * out[k] <= spec.i0 + k + 2 * spec.r0:
            frozen = True
    return out


def walk_stopping_time(walk: np.ndarray, i0: int, r0: int) -> Optional[int]:
    """First index k >= 1 with A_k <= (i0 + k + 2*r0)/2, or None."""
    ks = np.arange(1, len(walk))
    hit = np.nonzero(2 * walk[1:] <= i0 + ks + 2 * r0)[0]
    return int(hit[0]) + 1 if hit.size else None


# ---------------------------------------------------------------------------
# Vectorized lockstep simulation over replicates.  Used by the Fisher and
# estimation Monte-Carlo machinery, where only (T_k, C_k) paths are needed.
# Per step all replicates draw a holding time, then a jump type, so the
# consumed stream is a fixed function of (seed, stream) alone.  The
# uniforms are drawn in (K, 2, R) blocks: block[j, 0] and block[j, 1] are
# the same draws as two successive random(R) calls for step k0 + j.
# ---------------------------------------------------------------------------

# At most this many uniforms per (K, 2, R) block, i.e. 512 KB of doubles.
_BLOCK_DOUBLES = 1 << 16


@dataclass
class PathBlock:
    """Columns are replicates.  T[k-1, r] is the k-th holding time (inf once
    stopped), C[k, r] the cumulative count after k jumps (frozen once
    stopped), alive[k, r] whether the process is still live after k jumps,
    infected[k, r] the live infected count (0 once stopped)."""

    T: np.ndarray
    C: np.ndarray
    alive: np.ndarray
    infected: np.ndarray

    @property
    def m(self) -> int:
        return self.T.shape[0]

    @property
    def replicates(self) -> int:
        return self.T.shape[1]


def simulate_paths(
    params: ModelParams,
    i0: int,
    r0: int,
    m: int,
    rng: RngStream,
    replicates: int,
) -> PathBlock:
    """R = ``replicates`` independent paths of m jumps, simulated in lockstep.

    Step k of every column computes the rate (beta*S/N)*I + p*S + gamma*I
    and the infection probability from the same float expressions as
    ``jump_rate`` and ``infection_probability``; a column whose process has
    stopped (i = 0 or i = n), or whose rate is zero, keeps its state and
    gets T = inf.  With gamma = 0 the counts are deterministic, so they are
    stepped once for all columns and only the holding times are drawn per
    column.
    """
    validate_params(params)
    if i0 < 1:
        raise ValidationError("i0 must be >= 1")
    n = float(params.n)
    R = replicates
    T = np.empty((m, R))
    C = np.empty((m + 1, R), dtype=np.int64)
    alive = np.empty((m + 1, R), dtype=bool)
    infected = np.empty((m + 1, R), dtype=np.int64)
    live = 0 < float(i0) < n
    C[0] = int(i0 + r0)
    alive[0] = live
    infected[0] = int(i0) if live else 0

    blocks = _uniform_blocks(rng.generator(), m, R)
    if params.gamma == 0:
        steps = _pure_adoption_steps(params, n, i0, r0, m, blocks, T, C, alive, infected)
    else:
        steps = _lockstep_steps(params, n, i0, r0, blocks, T, C, alive, infected)
    # Past the last simulated step no column can jump: the state is frozen.
    T[steps:] = np.inf
    C[steps + 1:] = C[steps]
    alive[steps + 1:] = alive[steps]
    infected[steps + 1:] = infected[steps]
    return PathBlock(T=T, C=C, alive=alive, infected=infected)


def _uniform_blocks(gen: np.random.Generator, m: int, R: int):
    """Yield (k0, U) with U of shape (K, 2, R): U[j, 0] is the holding-time
    and U[j, 1] the jump-type uniform of step k0 + j + 1.  U is one reused
    buffer, overwritten by the next block; a consumer that stops early
    leaves the rest of the stream undrawn."""
    K = max(1, _BLOCK_DOUBLES // max(2 * R, 1))
    buf = np.empty((min(K, m), 2, R))
    for k0 in range(0, m, K):
        u = buf[: min(K, m - k0)]
        gen.random(out=u)
        yield k0, u


def _exp_holding_numerators(u_time: np.ndarray, out: np.ndarray) -> np.ndarray:
    """-log1p(-u) into the contiguous ``out``: the operations, and the
    contiguity that picks numpy's log1p loop, of a per-step
    ``-np.log1p(-u_time)``."""
    np.negative(u_time, out=out)
    np.log1p(out, out=out)
    np.negative(out, out=out)
    return out


def _pure_adoption_steps(params, n, i0, r0, m, blocks, T, C, alive, infected) -> int:
    """gamma = 0: the infection probability is num / (num + 0) = num / num,
    exactly 1 (above every uniform in [0, 1)) unless num is 0 or inf, where
    it is NaN (below none).  So every column follows one count path, stepped
    here in scalar floats with the lockstep expressions, and the holding
    times are -log1p(-u) / lam_k written block by block.  The jump-type
    uniforms are drawn with the rest and never read.  Returns the number of
    jumps on the path."""
    beta, gamma, p = params.beta, params.gamma, params.p
    s, i, rr = n - i0 - r0, float(i0), float(r0)
    live = 0 < i < n
    lam = np.empty(m)
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
        C[k] = int(i + rr)
        alive[k] = live
        infected[k] = int(i) if live else 0
        steps = k
    for k0, u in blocks:
        k1 = min(k0 + len(u), steps)
        if k1 <= k0:
            break
        t = _exp_holding_numerators(u[: k1 - k0, 0], T[k0:k1])
        t /= lam[k0:k1, None]
    return steps


def _lockstep_steps(params, n, i0, r0, blocks, T, C, alive, infected) -> int:
    """gamma > 0: every column stepped in place, one block of K steps at a
    time.  Rates, holding-time numerators and per-step flags of a block are
    kept in (K, R) buffers, so T and the infected counts are written once
    per block.  Stops drawing once no column is live.  Returns the number
    of steps simulated."""
    beta, gamma, p = params.beta, params.gamma, params.p
    R = T.shape[1]
    pn, ngamma = p * n, n * gamma
    s = np.full(R, n - i0 - r0, dtype=float)
    tmp, num = np.empty(R), np.empty(R)
    down, flag = np.empty(R, dtype=bool), np.empty(R, dtype=bool)
    steps = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        for k0, u in blocks:
            kb = len(u)
            if not alive[k0].any():
                break
            if k0 == 0:
                e, lam = np.empty((kb, R)), np.empty((kb, R))
                stay, ups = np.empty((kb, R), dtype=bool), np.empty((kb, R), dtype=bool)
                i = np.empty((kb + 1, R))  # i[j]: infected before step k0 + j + 1
                i[0] = float(i0)
            _exp_holding_numerators(u[:, 0], e[:kb])
            for j in range(kb):
                k = k0 + j + 1
                # lam = (beta*s/n)*i + p*s + gamma*i, term by term.  With
                # p = 0 the p*s and p*n terms are +-0.0, and adding them
                # changes no bit, so they are left out.
                lj, ok, up, now = lam[j], stay[j], ups[j], alive[k]
                np.multiply(s, beta, out=lj)
                lj /= n
                lj *= i[j]
                if p:
                    np.multiply(s, p, out=tmp)
                    lj += tmp
                np.multiply(i[j], gamma, out=tmp)
                lj += tmp
                np.greater(lj, 0.0, out=ok)
                ok &= alive[k - 1]
                # p_inf = num / (num + (n*gamma)*i), num = s*(beta*i + p*n).
                np.multiply(i[j], beta, out=tmp)
                if p:
                    tmp += pn
                np.multiply(s, tmp, out=num)
                np.multiply(i[j], ngamma, out=tmp)
                tmp += num
                np.divide(num, tmp, out=num)
                np.less(u[j, 1], num, out=up)
                up &= ok
                np.not_equal(ok, up, out=down)
                s -= up
                np.add(i[j], up, out=i[j + 1])
                i[j + 1] -= down
                # After k jumps i0 - k <= i <= i0 + k, so a bound that cannot
                # be reached yet is not tested.
                now[:] = alive[k - 1]
                if k >= i0:
                    np.greater(i[j + 1], 0.0, out=flag)
                    now &= flag
                if i0 + k >= n:
                    np.less(i[j + 1], n, out=flag)
                    now &= flag
            rows = slice(k0, k0 + kb)
            np.divide(e[:kb], lam[:kb], out=T[rows])
            np.logical_not(stay[:kb], out=stay[:kb])
            np.copyto(T[rows], np.inf, where=stay[:kb])
            after = slice(k0 + 1, k0 + kb + 1)
            np.cumsum(ups[:kb], axis=0, out=C[after])
            C[after] += C[k0]
            np.multiply(i[1 : kb + 1], alive[after], out=infected[after], casting="unsafe")
            i[0] = i[kb]
            steps = k0 + kb
    return steps
