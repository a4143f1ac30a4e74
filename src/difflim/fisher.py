"""Fisher information of the first m observations with respect to the
population size n, and the resulting Cramer-Rao floors.

Pure-adoption regime (gamma = 0): every jump is an infection, the counts
are deterministic, and only the holding times carry information,

    J = (1/n^2) * sum_k I_{k-1}^2 / (n - C_{k-1})^2,

with C_{k-1} = I_{k-1} = k - 1 + i0 on the live path.  The innovation
rate a = p*n is held fixed under d/dn throughout.

Recovery regime (p = 0): counts are random and the per-jump contribution,
conditioned on the process being live with cumulative count C, is

    C^2 / (n^2 (n - C) (n - C + (gamma/beta) n)),

the sum of an exponential leg (beta C / (n (beta (n-C) + gamma n)))^2 and
a Bernoulli leg beta gamma C^2 / ((n-C) n (beta (n-C) + gamma n)^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import ModelParams, RngStream, ValidationError, validate_params
from .simulate import simulate_paths

# Replicates per lockstep chunk in fisher_sir_mc; chunk c uses stream
# rng.substream(c).
MC_CHUNK = 4096


@dataclass
class FisherReport:
    regime: str
    n: float
    m: int
    i0: int
    r0: int
    per_k: np.ndarray
    total: float
    cr_floor: float
    survival: Optional[np.ndarray] = None
    mc_replicates: Optional[int] = None
    mc_stderr: Optional[float] = None
    # Work counters of a Monte-Carlo evaluation (path_steps, chunks,
    # rng_streams); run metadata, so not part of to_json_dict.
    work: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        out = {
            "regime": self.regime,
            "n": self.n,
            "m": self.m,
            "i0": self.i0,
            "r0": self.r0,
            "total": self.total,
            "cr_floor": self.cr_floor,
            "per_k": [float(x) for x in self.per_k],
        }
        if self.survival is not None:
            out["survival"] = [float(x) for x in self.survival]
        if self.mc_replicates is not None:
            out["mc_replicates"] = self.mc_replicates
            out["mc_stderr"] = self.mc_stderr
        return out

    @property
    def scaling_ratio(self) -> float:
        """J * n^4 / m^3, the quantity that stabilizes as n grows."""
        return self.total * self.n ** 4 / self.m ** 3 if self.m else math.nan


def _finish(regime, n, m, i0, r0, per_k, **kw) -> FisherReport:
    total = math.fsum(per_k)
    floor = 1.0 / (n * n * total) if total > 0 else math.inf
    return FisherReport(
        regime=regime, n=n, m=m, i0=i0, r0=r0, per_k=per_k, total=total, cr_floor=floor, **kw
    )


def fisher_bass(n: float, i0: int, m: int, shifted: bool = False) -> FisherReport:
    """Exact information sum for the pure-adoption regime.

    The k-th holding time is generated from the state with I = k - 1 + i0,
    which is what the default indexes each term by.  With ``shifted`` the
    term is indexed by k + i0 instead, the form the closed-form summaries
    of this sum are usually written in; the two differ by one boundary
    term and agree to O(1/m).
    """
    if m < 0:
        raise ValidationError("m must be non-negative")
    if i0 < 1:
        raise ValidationError("i0 must be >= 1")
    if m + i0 >= n:
        raise ValidationError("observation horizon exceeds population")
    ks = np.arange(1, m + 1, dtype=float)
    j = ks + i0 if shifted else ks - 1 + i0
    per_k = j ** 2 / (n ** 2 * (n - j) ** 2)
    return _finish("bass", n, m, i0, 0, per_k)


def sir_bracket(c, n: float, beta: float, gamma: float):
    """Per-jump information contribution at live cumulative count c."""
    c = np.asarray(c, dtype=float)
    return c ** 2 / (n ** 2 * (n - c) * (n - c + (gamma / beta) * n))


def fisher_sir_mc(
    params: ModelParams,
    i0: int,
    r0: int,
    m: int,
    replicates: int,
    rng: RngStream,
    chunk: int = MC_CHUNK,
) -> FisherReport:
    """Monte-Carlo evaluation of the information sum for the recovery
    regime: each summand is the unconditional mean of the live-path
    contribution, estimated over simulated paths.

    The per-replicate totals give the reported standard error.  Replicates
    are simulated in lockstep chunks with one substream per chunk, so the
    result depends only on (seed, stream, chunk).
    """
    validate_params(params)
    if params.p != 0:
        raise ValidationError("recovery-regime information requires p = 0")
    if params.beta <= 0:
        raise ValidationError("requires beta > 0")
    if replicates < 100:
        raise ValidationError("replicates must be >= 100")
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
        # C_{k-1} and E_{k-1} for k = 1..m are rows 0..m-1.
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
    if survival[0] == 0:
        raise ValidationError("no surviving paths at the first jump")
    stderr = float(np.std(totals, ddof=1) / math.sqrt(replicates))
    return _finish(
        "sir", n, m, i0, r0, per_k,
        survival=survival, mc_replicates=replicates, mc_stderr=stderr,
        work={"path_steps": m * replicates, "chunks": n_chunks, "rng_streams": streams},
    )


def fisher_sir_exact(params: ModelParams, i0: int, r0: int, m: int) -> FisherReport:
    """Exact forward recursion over the count distribution, for small n.

    The cumulative count is Markov: from a live count c it increments with
    probability beta (n-c) / (beta (n-c) + gamma n), and liveness is the
    threshold condition 2c > i0 + k + 2 r0.  Tracking the sub-probability
    vector over live counts gives every summand exactly.
    """
    validate_params(params)
    if params.p != 0:
        raise ValidationError("recovery-regime information requires p = 0")
    if params.n > 2000:
        raise ValidationError("exact recursion is for small n (<= 2000)")
    n, beta, gamma = params.n, params.beta, params.gamma
    c0 = i0 + r0
    size = int(min(c0 + m, n)) + 1
    prob = np.zeros(size)
    if 2 * c0 > i0 + 2 * r0:
        prob[c0] = 1.0

    per_k = np.zeros(m)
    survival = np.zeros(m)
    cs = np.arange(size, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        eta = beta * (n - cs) / (beta * (n - cs) + gamma * n)
        bracket = sir_bracket(cs, n, beta, gamma)
    for k in range(1, m + 1):
        survival[k - 1] = prob.sum()
        per_k[k - 1] = float(np.dot(prob, np.nan_to_num(bracket)))
        nxt = prob * (1.0 - eta)
        nxt[1:] += (prob * eta)[:-1]
        live = 2 * np.arange(size) > i0 + k + 2 * r0
        prob = np.where(live, nxt, 0.0)
    return _finish("sir", n, m, i0, r0, per_k, survival=survival)


# Doubles per array in a slab of rows of the score oracle (512 KB).
_ORACLE_SLAB_DOUBLES = 1 << 16


def _slab_loglik(block, k0: int, k1: int, beta: float, gamma: float, a: float):
    """Jump log-likelihood terms of rows k0..k1-1 of a path block as a
    function of n' (a = p*n held fixed): row k-1 holds

        log(lam) - lam*T_k  [+ log(eta) or log1p(-eta), gamma > 0]

    on live rows and 0 on stopped ones, with s = n' - C_{k-1},
    lam = (beta*s/n')*I + (a/n')*s + gamma*I and
    eta = s(beta*I + a) / (s(beta*I + a) + (n'gamma)*I).  The n'-free
    arrays are computed once here; each call evaluates those float
    operations, in that order, in place in the slab's buffers and returns a
    view that the next call overwrites."""
    c_prev = block.C[k0:k1].astype(float)
    i_prev = block.infected[k0:k1].astype(float)
    dead = ~block.alive[k0:k1]
    t_obs = np.where(dead, 0.0, block.T[k0:k1])
    s, lam = np.empty_like(c_prev), np.empty_like(c_prev)
    if gamma > 0:
        stepped = block.C[k0 + 1 : k1 + 1] > block.C[k0:k1]
        gamma_i = gamma * i_prev
        beta_i_a = beta * i_prev + a
        num = np.empty_like(c_prev)

    def loglik(nprime):
        np.subtract(nprime, c_prev, out=s)
        np.multiply(s, beta, out=lam)
        np.divide(lam, nprime, out=lam)
        np.multiply(lam, i_prev, out=lam)
        if gamma > 0:
            np.multiply(s, beta_i_a, out=num)
        np.multiply(s, a / nprime, out=s)
        np.add(lam, s, out=lam)
        if gamma > 0:
            np.add(lam, gamma_i, out=lam)
        with np.errstate(divide="ignore", invalid="ignore"):
            ll = np.log(lam, out=s)
            np.multiply(lam, t_obs, out=lam)
            ll -= lam
            if gamma > 0:
                np.multiply(i_prev, nprime * gamma, out=lam)
                np.add(lam, num, out=lam)
                eta = np.divide(num, lam, out=num)
                log_eta = np.log(eta, out=lam)
                np.negative(eta, out=eta)
                jump_term = np.log1p(eta, out=eta)
                np.copyto(jump_term, log_eta, where=stepped)
                ll += jump_term
        np.copyto(ll, 0.0, where=dead)
        return ll

    return loglik


def score_variance_oracle(
    params: ModelParams,
    i0: int,
    r0: int,
    m: int,
    replicates: int,
    rng: RngStream,
    h: Optional[float] = None,
    chunk: int = 20000,
) -> tuple[float, float]:
    """Fisher information as the variance of a central-difference score.

    Simulates observation sets at the true parameters, evaluates the exact
    jump log-likelihood at n + h and n - h (a = p*n held fixed, so the
    innovation term is a (n' - C)/n'), and returns (variance of the
    difference quotient, standard error of that variance estimate).

    This route never touches the closed-form information sums, so it
    serves as their independent check.
    """
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
        # A column's log-likelihood is a sum of per-row terms.  Rows are
        # taken a cache-sized slab at a time and added in row order from
        # 0.0, which is how sum(axis=0) adds them.
        total_hi, total_lo = np.zeros(r), np.zeros(r)
        rows = max(1, _ORACLE_SLAB_DOUBLES // max(r, 1))
        for k0 in range(0, m, rows):
            loglik = _slab_loglik(block, k0, min(k0 + rows, m), beta, gamma, a)
            for total, nprime in ((total_hi, n + h), (total_lo, n - h)):
                for row in loglik(nprime):
                    total += row
        del block
        score = (total_hi - total_lo) / (2.0 * h)
        scores.append(score)
        done += r
        n_chunks += 1

    scores = np.concatenate(scores)
    j_est = float(np.var(scores, ddof=1))
    centered = scores - scores.mean()
    mu4 = float(np.mean(centered ** 4))
    var_of_var = max(mu4 - j_est ** 2, 0.0) / len(scores)
    return j_est, math.sqrt(var_of_var)


def cramer_rao_rel_error(report: FisherReport) -> float:
    """Floor on the expected relative error of any unbiased estimator of n:
    1 / (n^2 J)."""
    if report.total <= 0:
        return math.inf
    return 1.0 / (report.n ** 2 * report.total)


@dataclass(frozen=True)
class SurvivalThreshold:
    p: float
    c1: float
    c2: float
    d: float


def compute_survival_threshold(beta: float, gamma: float) -> SurvivalThreshold:
    """Constants for the survival lower bound of the comparison walk.

    p  = (beta/(beta+gamma) + 1/2) / 2           (> 1/2 when beta > gamma)
    c1 = sum_{k>=1} exp(-(p k / 2) (1 - 1/(2p))^2)   (geometric series)
    c2 = 1/2 - 1/(4p)
    d  solves c1 * exp(-c2 * d) = 1/2, i.e. d = log(2 c1) / c2.

    A start with at least d infected keeps the survival probability of the
    first m observations at 1/2 or better whenever every infection
    probability along the horizon exceeds p.
    """
    if not beta > gamma:
        raise ValidationError("requires beta > gamma (so p > 1/2)")
    p = 0.5 * (beta / (beta + gamma) + 0.5)
    q = math.exp(-(p / 2.0) * (1.0 - 1.0 / (2.0 * p)) ** 2)
    c1 = q / (1.0 - q)
    c2 = 0.5 - 1.0 / (4.0 * p)
    d = math.log(2.0 * c1) / c2
    return SurvivalThreshold(p=p, c1=c1, c2=c2, d=d)


def highprob_rate_condition(params: ModelParams, m: int, c0: int) -> bool:
    """Whether beta (n - m - c0) / (beta (n - m - c0) + n gamma) exceeds the
    walk probability p, the hypothesis under which survival >= 1/2 holds."""
    thr = compute_survival_threshold(params.beta, params.gamma)
    n = params.n
    w = params.beta * (n - m - c0)
    return w / (w + n * params.gamma) > thr.p
