"""Reference versions of replaced kernels, kept only to check the
production code against:

- ``reference_simulate_ledger``: ``difflim.simulate.simulate_ledger`` as a
  loop over the one-jump step ``reference_next_jump``, which builds a
  ``DiffusionState`` per jump and returns None once i = 0 or i = n.
- ``reference_scan_peak_index``: the first k >= 2 with E[T_k] >= E[T_{k-1}],
  found by scanning the expected holding times, which
  ``difflim.estimate.bass_peak_indices`` used for p >= beta.
- ``reference_simulate_paths``: the straightforward per-step loop that
  ``difflim.simulate.simulate_paths`` replaced.  Each step draws random(R)
  twice and rebuilds the state through np.where temporaries.
- ``reference_score_variance_oracle``: ``difflim.fisher.score_variance_oracle``
  before it computed the n'-free terms once per block.
- ``reference_fisher_sir_mc``, ``reference_dominance_study`` and
  ``reference_coverage_study``: ``difflim.fisher.fisher_sir_mc`` and the
  Dominance and Coverage studies as they were before they reduced the
  slabs of ``difflim.simulate.path_slabs``: each materializes the whole
  ``simulate_paths`` block of a chunk and reduces it with whole-array
  numpy calls.
- ``reference_fit_mle``: ``difflim.discrete.fit_mle`` as a seeded
  multi-start Nelder-Mead search over (a, beta, log n).
- ``reference_mle_population_bass``: ``difflim.experiments.mle_population_bass``
  as one golden-section search per replicate, with its loglik scan
  ``reference_bass_loglik_scan``.
- ``reference_mle_population_bisect64``: ``mle_population_bass`` before its
  bisection stopped at the first iteration that moves no bracket end.
- ``reference_integrate``: ``difflim.fluid.integrate`` on scipy's
  ``solve_ivp(method="DOP853", dense_output=True)``.
- ``reference_simulate_discrete`` and ``reference_predict_peak``:
  ``difflim.discrete.simulate_discrete`` and ``predict_peak`` with the
  Poisson epoch step written out in each loop, as they were before they
  shared one step.
"""

import math

import numpy as np

from difflim.core import (
    DiffusionState,
    JumpKind,
    JumpLedger,
    LedgerEntry,
    ModelParams,
    Regime,
    RngStream,
    ValidationError,
    validate_params,
)
from difflim.discrete import CountSeries, FitResult, PeakForecast, _rollout, loglik
from difflim.estimate import bass_expected_jump_time, rate_band, recovery_band
from difflim.experiments import StudyResult
from difflim.fisher import _finish, compute_survival_threshold, highprob_rate_condition, sir_bracket
from difflim.fluid import FluidTrajectory, default_t_max
from difflim.simulate import PathBlock, simulate_paths


def reference_jump_rate(state: DiffusionState, params: ModelParams) -> float:
    return (params.beta * state.s / params.n) * state.i + params.p * state.s + params.gamma * state.i


def reference_infection_probability(state: DiffusionState, params: ModelParams) -> float:
    num = state.s * (params.beta * state.i + params.p * params.n)
    den = num + params.n * params.gamma * state.i
    return num / den


def reference_next_jump(state: DiffusionState, params: ModelParams, gen: np.random.Generator):
    """One transition: (T, kind), or None once i = 0 or i = n.  Consumes
    exactly two uniforms when a jump occurs, time first."""
    if state.i == 0 or state.i == params.n:
        return None
    lam = reference_jump_rate(state, params)
    if lam <= 0:
        raise ValidationError("degenerate rates: zero total jump rate in a live state")
    u_time = gen.random()
    u_kind = gen.random()
    t = -math.log1p(-u_time) / lam
    kind = JumpKind.INFECTION if u_kind < reference_infection_probability(state, params) else JumpKind.RECOVERY
    return t, kind


def reference_simulate_ledger(spec) -> JumpLedger:
    gen = spec.rng.generator()
    params = spec.params
    n = int(params.n)
    ledger = JumpLedger(n=n, i0=spec.i0, r0=spec.r0)
    state = ledger.initial_state
    t = 0.0
    for k in range(1, spec.max_jumps + 1):
        if ledger.terminated_at is None:
            step = reference_next_jump(state, params, gen)
            if step is None:
                ledger.terminated_at = k - 1
            else:
                dt, kind = step
                t += dt
                if kind is JumpKind.INFECTION:
                    state = DiffusionState(s=state.s - 1, i=state.i + 1, r=state.r)
                else:
                    state = DiffusionState(s=state.s, i=state.i - 1, r=state.r + 1)
                ledger.entries.append(LedgerEntry(t=t, inter_arrival=dt, kind=kind, state_after=state))
                if state.i == 0 or state.i == n:
                    ledger.terminated_at = k
                continue
        ledger.entries.append(LedgerEntry(t=t, inter_arrival=math.inf, kind=None, state_after=state))
    return ledger


def reference_scan_peak_index(n: float, p: float, beta: float, chunk: int = 1_000_000) -> int:
    """First k >= 2 with E[T_k] >= E[T_{k-1}], by chunked scan."""
    start = 2
    prev = bass_expected_jump_time(n, p, beta, 1)
    while start < n:
        stop = int(min(start + chunk, n))
        i = np.arange(start, stop, dtype=float)
        vals = n / ((p * n + beta * i) * (n - i))
        allv = np.concatenate(([prev], vals))
        hits = np.nonzero(np.diff(allv) >= 0)[0]
        if hits.size:
            return start + int(hits[0])
        prev = vals[-1]
        start = stop
    raise ValidationError("no peak index found")


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


def reference_fisher_sir_mc(params, i0, r0, m, replicates, rng, chunk=4096):
    validate_params(params)
    n, beta, gamma = params.n, params.beta, params.gamma
    per_k_sum = np.zeros(m)
    survival_sum = np.zeros(m)
    totals = []
    streams = []
    done = 0
    n_chunks = 0
    while done < replicates:
        r = min(chunk, replicates - done)
        stream = rng.substream(n_chunks)
        streams.append([stream.seed, stream.stream_id])
        block = simulate_paths(params, i0, r0, m, stream, r)
        c_prev = block.C[:m].astype(float)
        alive_prev = block.alive[:m]
        contrib = np.where(alive_prev, sir_bracket(c_prev, n, beta, gamma), 0.0)
        per_k_sum += contrib.sum(axis=1)
        survival_sum += alive_prev.sum(axis=1)
        totals.append(contrib.sum(axis=0))
        done += r
        n_chunks += 1
    totals = np.concatenate(totals)
    per_k = per_k_sum / replicates
    survival = survival_sum / replicates
    stderr = float(np.std(totals, ddof=1) / math.sqrt(replicates))
    return _finish(
        "sir", n, m, i0, r0, per_k,
        survival=survival, mc_replicates=replicates, mc_stderr=stderr,
        work={"path_steps": m * replicates, "chunks": n_chunks, "rng_streams": streams},
    )


def reference_dominance_study(config, walk_chunk_doubles=1 << 16):
    rows = []
    R = config.replicates
    for idx, pt in enumerate(config.grid["points"]):
        n, m = pt["n"], pt["m"]
        i0, r0 = pt.get("i0", 1), pt.get("r0", 0)
        beta, gamma = pt.get("beta", 0.5), pt.get("gamma", 0.25)
        params = ModelParams(n=n, beta=beta, gamma=gamma, regime=Regime.SIR)
        if not highprob_rate_condition(params, m, i0 + r0):
            raise ValidationError(f"point {pt} violates the rate condition")
        p_walk = compute_survival_threshold(beta, gamma).p
        rng = RngStream(seed=config.seed, stream_id=10_000 * idx)
        alive_m = simulate_paths(params, i0, r0, m, rng, R).alive[m]
        p_tau = float(1.0 - np.mean(alive_m))
        gen = rng.substream(1).generator()
        ks = np.arange(1, m + 1)
        chunk = max(1, walk_chunk_doubles // m)
        stopped = np.empty(R, dtype=bool)
        for start in range(0, R, chunk):
            stop = min(start + chunk, R)
            walk = i0 + r0 + np.cumsum(gen.random((stop - start, m)) < p_walk, axis=1, dtype=np.int64)
            stopped[start:stop] = np.any(2 * walk <= i0 + ks[None, :] + 2 * r0, axis=1)
        p_tau_walk = float(np.mean(stopped))
        sigma = math.sqrt(max(p_tau_walk * (1 - p_tau_walk), 0.25 / R) / R)
        rows.append({
            "n": n, "m": m, "i0": i0, "beta": beta, "gamma": gamma, "p_walk": p_walk,
            "replicates": R, "p_tau": p_tau, "p_tau_walk": p_tau_walk, "slack": 3.0 * sigma,
            "pass": bool(p_tau <= p_tau_walk + 3.0 * sigma),
        })
    return StudyResult(study="Dominance", rows=rows, summary={"pass_all": all(r["pass"] for r in rows)})


def reference_coverage_study(config):
    g = config.grid
    n, m = g["n"], g["m"]
    beta, gamma = g.get("beta", 0.5), g.get("gamma", 0.25)
    i0 = g.get("i0") or math.ceil(compute_survival_threshold(beta, gamma).d)
    r0 = g.get("r0", 0)
    c0 = i0 + r0
    R = config.replicates
    delta = math.sqrt(5.0 * math.log(m) / m)
    z = (n - m - c0) / n
    params = ModelParams(n=n, beta=beta, gamma=gamma, regime=Regime.SIR)
    block = simulate_paths(params, i0, r0, m, RngStream(seed=config.seed), R)
    t = np.where(block.alive[:m], block.T, 0.0)
    s_tilde = (block.infected[:m] * t).sum(axis=0)
    a_hat = (block.C[m] - (i0 + r0)) / m
    b_hat = s_tilde / m
    with np.errstate(divide="ignore", invalid="ignore"):
        beta_hat = a_hat / b_hat
        gamma_hat = 1.0 / b_hat - beta_hat
    b_lo, b_hi = rate_band(beta, delta, z)
    g_lo, g_hi = recovery_band(beta, gamma, delta, z)
    covered = (beta_hat >= b_lo) & (beta_hat <= b_hi) & (gamma_hat >= g_lo) & (gamma_hat <= g_hi)
    coverage = float(np.mean(covered))
    thr = compute_survival_threshold(beta, gamma)
    label = max(1.0 - 8.0 / m - 2.0 * thr.c1 * math.exp(-thr.c2 * i0), 0.0)
    sigma = math.sqrt(max(label * (1 - label), 0.25 / R) / R)
    threshold = label - 3.0 * sigma
    row = {
        "n": n, "m": m, "i0": i0, "beta": beta, "gamma": gamma, "delta": delta, "replicates": R,
        "coverage": coverage, "label": label, "threshold": threshold, "pass": bool(coverage >= threshold),
    }
    return StudyResult(study="Coverage", rows=[row], summary={"pass_coverage": row["pass"]})


def reference_fit_mle(
    series, gamma_known, n_max, starts=16, seed=0, fit_a=True, a_max=10.0, beta_max=2.0,
    ftol=1e-9, max_evals=5000,
):
    from scipy.optimize import minimize

    if series.delta_c.sum() <= 0:
        raise ValidationError("series has no positive counts")
    n_lo = max(series.c_total, 1.0)
    if n_max < n_lo:
        raise ValidationError("n_max is below the observed cumulative count")
    _, _, imputed = _rollout(series, n_lo, gamma_known)

    gen = RngStream(seed=seed, stream_id=0).generator()
    log_n_lo, log_n_hi = math.log(n_lo), math.log(n_max)
    penalty = -1e18

    def objective(x) -> float:
        a = x[0] if fit_a else 0.0
        beta, log_n = (x[1], x[2]) if fit_a else (x[0], x[1])
        val = loglik(series, a, beta, math.exp(log_n), gamma_known)
        return -val if math.isfinite(val) else -penalty

    n_grid = np.exp(np.linspace(log_n_lo, log_n_hi, max(starts // 4, 2)))
    beta_grid = np.geomspace(0.01, beta_max, 4)
    start_points = []
    for ln in np.log(n_grid):
        for b in beta_grid:
            start_points.append((b, ln))
    start_points = start_points[: max(starts, 1)]
    while len(start_points) < starts:
        start_points.append(
            (float(gen.uniform(0.01, beta_max)), float(gen.uniform(log_n_lo, log_n_hi)))
        )

    if fit_a:
        bounds = [(0.0, a_max), (0.0, beta_max), (log_n_lo, log_n_hi)]
    else:
        bounds = [(0.0, beta_max), (log_n_lo, log_n_hi)]

    best = None
    trace = []
    for b0, ln0 in start_points:
        x0 = [0.5, b0, ln0] if fit_a else [b0, ln0]
        res = minimize(
            objective, x0, method="Nelder-Mead", bounds=bounds,
            options={"fatol": ftol, "xatol": 1e-10, "maxfev": max_evals},
        )
        trace.append({"start": list(map(float, x0)), "loglik": -float(res.fun),
                      "nfev": int(res.nfev), "converged": bool(res.success)})
        if best is None or res.fun < best.fun:
            best = res

    if fit_a:
        a_hat, beta_hat, log_n_hat = best.x
    else:
        a_hat = 0.0
        beta_hat, log_n_hat = best.x
    return FitResult(
        a_hat=float(a_hat), beta_hat=float(beta_hat), n_hat=float(math.exp(log_n_hat)),
        loglik=-float(best.fun), converged=bool(best.success),
        bounds={"n_max": n_max, "a_max": a_max if fit_a else 0.0, "beta_max": beta_max},
        trace=trace, recoveries_imputed=imputed,
    )


def reference_bass_loglik_scan(t_col, i0, beta, a, n_grid):
    m = len(t_col)
    d = np.arange(m, dtype=float) + i0
    c_rate = beta * d + a
    v = float(np.dot(c_rate * d, t_col))
    out = np.empty(len(n_grid))
    for j, n in enumerate(n_grid):
        out[j] = float(np.sum(np.log(n - d))) - m * math.log(n) + v / n
    return out


def _reference_golden_max(f, lo, hi, iters=80):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def reference_mle_population_bass(t_col, i0, beta, a, upper_factor=1e3):
    m = len(t_col)
    c_m = m + i0
    lo, hi = math.log(c_m * (1.0 + 1e-9)), math.log(upper_factor * c_m)
    grid = np.exp(np.linspace(lo, hi, 64))
    vals = reference_bass_loglik_scan(t_col, i0, beta, a, grid)
    j = int(np.argmax(vals))
    lo_j = math.log(grid[max(j - 1, 0)])
    hi_j = math.log(grid[min(j + 1, len(grid) - 1)])

    def f(log_n):
        return reference_bass_loglik_scan(t_col, i0, beta, a, np.array([math.exp(log_n)]))[0]

    return math.exp(_reference_golden_max(f, lo_j, hi_j))


def reference_mle_population_bisect64(v, m, i0, upper_factor=1e3):
    """``mle_population_bass`` with its bisection run all 64 iterations."""
    from difflim.experiments import POPULATION_GRID, _digamma

    v = np.asarray(v, dtype=float)
    c_m = m + i0
    log_grid = np.linspace(math.log(c_m * (1.0 + 1e-9)), math.log(upper_factor * c_m), POPULATION_GRID)
    grid = np.exp(log_grid)
    d = np.arange(m, dtype=float) + i0
    n_term = np.log(grid[:, None] - d[None, :]).sum(axis=1) - m * np.log(grid)
    vals = n_term[None, :] + v[:, None] / grid[None, :]
    j = np.argmax(vals, axis=1)
    j_lo, j_hi = np.maximum(j - 1, 0), np.minimum(j + 1, POPULATION_GRID - 1)

    def slope(log_n):
        n = np.exp(log_n)
        psi = _digamma(np.concatenate((n - i0 + 1, n - i0 - m + 1)))
        return n * (psi[: len(n)] - psi[len(n) :]) - m - v / n

    lo, hi = log_grid[j_lo], log_grid[j_hi]
    rows = np.arange(len(v))
    ends = np.where(vals[rows, j_hi] > vals[rows, j_lo], hi, lo)
    bracketed = (slope(lo) > 0) & (slope(hi) <= 0)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        up = slope(mid) > 0
        lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
    return np.exp(np.where(bracketed, 0.5 * (lo + hi), ends))


def reference_integrate(params, s0, i0, r0, t_max=None, tol=1e-10, samples=1001):
    from scipy.integrate import solve_ivp

    validate_params(params)
    n = params.n
    if abs(s0 + i0 + r0 - n) > 1e-9 * n:
        raise ValidationError("s0 + i0 + r0 must equal n")
    if t_max is None:
        t_max = default_t_max(params)
    if t_max <= 0 or tol <= 0:
        raise ValidationError("t_max and tol must be positive")

    beta, gamma, p = params.beta, params.gamma, params.p

    def rhs(_t, y):
        xs, xi_, _xr, _xc, _exposure = y
        force = beta * xs * xi_ + p * xs
        return (-force, force - gamma * xi_, gamma * xi_, force, beta * xi_)

    y0 = np.array([s0 / n, i0 / n, r0 / n, (i0 + r0) / n, 0.0])
    atol = max(tol * 1e-3 * max(i0 / n, 1e-16), 1e-300)
    sol = solve_ivp(rhs, (0.0, t_max), y0, method="DOP853", rtol=tol, atol=atol, dense_output=True)
    if not sol.success:
        raise ArithmeticError(f"integration failed at t={sol.t[-1]:.6g}: {sol.message}")
    ts = np.linspace(0.0, t_max, samples)
    ys = sol.sol(ts)
    return FluidTrajectory(
        params=params, s0=s0, i0=i0, r0=r0, ts=ts,
        s=ys[0] * n, i=ys[1] * n, r=ys[2] * n, c=ys[3] * n, xi=ys[4],
        _dense=sol.sol,
    )


def reference_simulate_discrete(params, i_init, r_init, horizon, rng, instance_id="0", beta_t=None):
    validate_params(params)
    if horizon < 1:
        raise ValidationError("horizon must be >= 1")
    if beta_t is not None and len(beta_t) != horizon:
        raise ValidationError("beta_t must have one value per epoch")
    gen = rng.generator()
    n, a, gamma = params.n, params.a, params.gamma
    s = n - i_init - r_init
    i = float(i_init)
    dc = np.zeros(horizon, dtype=np.int64)
    dr = np.zeros(horizon, dtype=np.int64)
    for t in range(horizon):
        beta = params.beta if beta_t is None else float(beta_t[t])
        lam = max((a + beta * i) * max(s, 0.0) / n, 0.0)
        draw_c = int(gen.poisson(lam)) if lam > 0 else 0
        draw_c = min(draw_c, int(max(s, 0)))
        mu = gamma * i
        draw_r = int(gen.poisson(mu)) if mu > 0 else 0
        draw_r = min(draw_r, int(i) + draw_c)
        s -= draw_c
        i += draw_c - draw_r
        dc[t] = draw_c
        dr[t] = draw_r
    return CountSeries(instance_id=instance_id, i_init=i_init, r_init=r_init, delta_c=dc, delta_r=dr)


def reference_predict_peak(series, fit, gamma_known, horizon, replicates, rng):
    if not fit.converged:
        raise ValidationError("fit did not converge")
    s_path, i_path, _ = _rollout(series, fit.n_hat, gamma_known)
    past_max = float(i_path.max())
    params = ModelParams(n=fit.n_hat, beta=fit.beta_hat, gamma=gamma_known, p=fit.a_hat / fit.n_hat)
    gen = rng.generator()
    n = fit.n_hat
    s0, i0 = float(s_path[-1]), float(i_path[-1])
    maxima = np.empty(replicates)
    for rep in range(replicates):
        s, i = s0, i0
        peak = i
        for _ in range(horizon):
            lam = max((params.a + params.beta * i) * max(s, 0.0) / n, 0.0)
            dc = min(int(gen.poisson(lam)) if lam > 0 else 0, int(max(s, 0)))
            mu = gamma_known * i
            dr = min(int(gen.poisson(mu)) if mu > 0 else 0, int(i) + dc)
            s -= dc
            i += dc - dr
            peak = max(peak, i)
        maxima[rep] = max(peak, past_max)
    qs = {q: float(np.quantile(maxima, q)) for q in (0.1, 0.5, 0.9)}
    return PeakForecast(mean=float(maxima.mean()), quantiles=qs, past_max=past_max)
