"""Reference versions of two Monte-Carlo kernels, kept only to check the
production code against bit for bit:

- ``reference_simulate_paths``: the straightforward per-step loop that
  ``difflim.simulate.simulate_paths`` replaced.  Each step draws random(R)
  twice and rebuilds the state through np.where temporaries.
- ``reference_score_variance_oracle``: ``difflim.fisher.score_variance_oracle``
  before it computed the n'-free terms once per block.
"""

import math

import numpy as np

from difflim.core import ModelParams, RngStream, ValidationError, validate_params
from difflim.simulate import PathBlock, simulate_paths


def reference_simulate_paths(
    params: ModelParams, i0: int, r0: int, m: int, rng: RngStream, replicates: int
) -> PathBlock:
    validate_params(params)
    if i0 < 1:
        raise ValidationError("i0 must be >= 1")
    n = float(params.n)
    beta, gamma, p = params.beta, params.gamma, params.p
    gen = rng.generator()

    R = replicates
    s = np.full(R, n - i0 - r0, dtype=float)
    i = np.full(R, float(i0), dtype=float)
    rr = np.full(R, float(r0), dtype=float)
    alive_now = (i > 0) & (i < n)

    T = np.full((m, R), np.inf)
    C = np.empty((m + 1, R), dtype=np.int64)
    alive = np.empty((m + 1, R), dtype=bool)
    infected = np.empty((m + 1, R), dtype=np.int64)
    C[0] = int(i0 + r0)
    alive[0] = alive_now
    infected[0] = np.where(alive_now, int(i0), 0)

    for k in range(1, m + 1):
        lam = (beta * s / n) * i + p * s + gamma * i
        u_time = gen.random(R)
        u_kind = gen.random(R)
        ok = alive_now & (lam > 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            dt = -np.log1p(-u_time) / lam
            num = s * (beta * i + p * n)
            p_inf = num / (num + n * gamma * i)
        T[k - 1, ok] = dt[ok]
        is_inf = u_kind < p_inf
        ds = np.where(ok & is_inf, -1.0, 0.0)
        di = np.where(ok, np.where(is_inf, 1.0, -1.0), 0.0)
        dr = np.where(ok & ~is_inf, 1.0, 0.0)
        s += ds
        i += di
        rr += dr
        alive_now = alive_now & (i > 0) & (i < n)
        C[k] = (i + rr).astype(np.int64)
        alive[k] = alive_now
        infected[k] = np.where(alive_now, i, 0.0).astype(np.int64)

    return PathBlock(T=T, C=C, alive=alive, infected=infected)


def reference_score_variance_oracle(params, i0, r0, m, replicates, rng, h=None, chunk=20000):
    validate_params(params)
    n = params.n
    beta, gamma, a = params.beta, params.gamma, params.a
    if h is None:
        h = 1e-4 * n

    scores = []
    done = 0
    n_chunks = 0
    while done < replicates:
        r = min(chunk, replicates - done)
        block = simulate_paths(params, i0, r0, m, rng.substream(1000 + n_chunks), r)
        c_prev = block.C[:m].astype(float)
        i_prev = block.infected[:m].astype(float)
        alive_prev = block.alive[:m]
        t_obs = block.T
        stepped = block.C[1:] > block.C[:m]

        def full_loglik(nprime):
            s = nprime - c_prev
            lam = (beta * s / nprime) * i_prev + (a / nprime) * s + gamma * i_prev
            with np.errstate(divide="ignore", invalid="ignore"):
                ll = np.log(lam) - lam * np.where(alive_prev, t_obs, 0.0)
                if gamma > 0:
                    num = s * (beta * i_prev + a)
                    eta = num / (num + nprime * gamma * i_prev)
                    ll = ll + np.where(stepped, np.log(eta), np.log1p(-eta))
            return np.where(alive_prev, ll, 0.0).sum(axis=0)

        score = (full_loglik(n + h) - full_loglik(n - h)) / (2.0 * h)
        scores.append(score)
        done += r
        n_chunks += 1

    scores = np.concatenate(scores)
    j_est = float(np.var(scores, ddof=1))
    centered = scores - scores.mean()
    mu4 = float(np.mean(centered ** 4))
    var_of_var = max(mu4 - j_est ** 2, 0.0) / len(scores)
    return j_est, math.sqrt(var_of_var)
