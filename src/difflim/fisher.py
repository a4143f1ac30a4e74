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

from .core import ModelParams, RngStream, ValidationError, is_integer, validate_params
from .simulate import ColumnTotals, path_slabs

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
    """Per-jump information contribution at live cumulative count c.  At
    c = n, where no path is live, it is inf without a warning; callers
    mask those entries."""
    c = np.asarray(c, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return c ** 2 / (n ** 2 * (n - c) * (n - c + (gamma / beta) * n))


def _check_sir_horizon(params: ModelParams, c0: int, m: int) -> None:
    """With gamma > 0 a path can be live at every count up to c0 + m - 1; at
    c = n the bracket is infinite, so such a horizon is refused.  With
    gamma = 0 the path stops when it fills the population."""
    if params.gamma > 0 and c0 + m > params.n:
        raise ValidationError("observation horizon exceeds population")


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
    if m < 0:
        raise ValidationError("m must be non-negative")
    if replicates < 100:
        raise ValidationError("replicates must be >= 100")
    if r0 < 0:
        raise ValidationError("r0 must be >= 0")
    n, beta, gamma = params.n, params.beta, params.gamma
    _check_sir_horizon(params, i0 + r0, m)
    # 0 <= C_{k-1} <= i0 + r0 + m - 1, so the bracket is tabulated once on
    # those counts and gathered per slab.
    table = sir_bracket(np.arange(i0 + r0 + m), n, beta, gamma)

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
        chunk_totals = ColumnTotals(m, r)
        for k0, slab in path_slabs(params, i0, r0, m, stream, r, times=False):
            # C_{k-1} and E_{k-1} for k = k0+1..k1 are the slab's rows but its last.
            rows = slice(k0, k0 + slab.m)
            alive_prev = slab.alive[:-1]
            contrib = np.where(alive_prev, table[slab.C[:-1]], 0.0)
            per_k_sum[rows] += contrib.sum(axis=1)
            survival_sum[rows] += alive_prev.sum(axis=1)
            chunk_totals.add(contrib)
        totals.append(chunk_totals.total())
        done += r
        n_chunks += 1

    totals = np.concatenate(totals)
    per_k = per_k_sum / replicates
    survival = survival_sum / replicates
    if m and survival[0] == 0:
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
    if m < 0:
        raise ValidationError("m must be non-negative")
    n, beta, gamma = params.n, params.beta, params.gamma
    c0 = i0 + r0
    _check_sir_horizon(params, c0, m)
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


def _rate(nprime, c, i, beta: float, gamma: float, a: float):
    """lam = (beta*s/n')*I + (a/n')*s + gamma*I with s = n' - C, the jump
    rate under population n' (a = p*n held fixed)."""
    s = nprime - c
    return (beta * s / nprime) * i + (a / nprime) * s + gamma * i


def _slab_score(slab, beta: float, gamma: float, a: float, n: float, h: float):
    """Column sums over the slab's steps of loglik(n + h) - loglik(n - h),
    taken as one difference per term: step k contributes

        log(lam+) - log(lam-) - (lam+ - lam-)*T_k
            [+ log(eta+) - log(eta-) after an infection,
             log1p(-eta+) - log1p(-eta-) after a recovery, gamma > 0]

    with lam of ``_rate`` at C_{k-1}, I_{k-1} and
    eta = s(beta*I + a) / (s(beta*I + a) + (n'gamma)*I).  Steps that take
    no jump (T = inf) are left out, never multiplied.

    With gamma = 0 every column has the same counts and every jump is an
    infection, so the steps that jump are those whose count rises, a prefix
    of the slab, and D = log(lam+) - log(lam-) and Delta = lam+ - lam- are
    per row: the slab reduces to sum(D) - Delta @ T.  With gamma > 0 the
    terms are evaluated in place over the slab and summed down its rows."""
    if gamma == 0:
        C = slab.C[:, 0]
        kj = int(np.count_nonzero(C[1:] > C[:-1]))
        c, i = C[:kj].astype(float), slab.infected[:kj, 0].astype(float)
        hi, lo = _rate(n + h, c, i, beta, gamma, a), _rate(n - h, c, i, beta, gamma, a)
        return np.sum(np.log(hi) - np.log(lo)) - (hi - lo) @ slab.T[:kj]

    c = slab.C[:-1].astype(float)
    i = slab.infected[:-1].astype(float)
    recovered = slab.C[1:] == slab.C[:-1]
    gamma_i, beta_i_a = gamma * i, beta * i + a
    s, num = np.empty_like(c), np.empty_like(c)
    lam_hi, lam_lo, jump_hi, jump_lo = (np.empty_like(c) for _ in range(4))

    def evaluate(nprime, lam, jump):
        """lam and the jump term at n', into lam and jump."""
        np.subtract(nprime, c, out=s)
        np.multiply(s, beta, out=lam)
        lam /= nprime
        lam *= i
        np.multiply(s, beta_i_a, out=num)
        lam += np.multiply(s, a / nprime, out=s)
        lam += gamma_i
        np.multiply(i, nprime * gamma, out=jump)
        jump += num
        eta = np.divide(num, jump, out=num)
        np.log(eta, out=jump)
        np.negative(eta, out=eta)
        np.copyto(jump, np.log1p(eta, out=eta), where=recovered)

    # Stopped columns have T = inf and rates that may be 0; they are
    # zeroed at the end.
    with np.errstate(divide="ignore", invalid="ignore"):
        evaluate(n + h, lam_hi, jump_hi)
        evaluate(n - h, lam_lo, jump_lo)
        jump_hi -= jump_lo
        np.subtract(lam_hi, lam_lo, out=s)
        s *= slab.T
        terms = np.log(lam_hi, out=lam_hi)
        terms -= np.log(lam_lo, out=lam_lo)
        terms -= s
        terms += jump_hi
    np.copyto(terms, 0.0, where=~slab.alive[:-1])
    return terms.sum(axis=0)


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

    Simulates observation sets at the true parameters, takes the
    difference of the exact jump log-likelihood at n + h and n - h term by
    term (a = p*n held fixed, so the innovation term is a (n' - C)/n'; see
    ``_slab_score``), and returns (variance of the difference quotient,
    standard error of that variance estimate).  Chunk c of at most
    ``chunk`` replicates is simulated on ``rng.substream(1000 + c)``.

    ``replicates`` >= 2, and h (default 1e-4 n) must be finite with
    0 < h < n - (i0 + r0 + m), so that both n + h and n - h exceed every
    count the paths can reach; anything else is a ValidationError.

    This route never touches the closed-form information sums, so it
    serves as their independent check.
    """
    validate_params(params)
    n = params.n
    beta, gamma, a = params.beta, params.gamma, params.a
    if not is_integer(replicates) or replicates < 2:
        raise ValidationError("replicates must be an integer >= 2")
    if h is None:
        h = 1e-4 * n
    room = n - (i0 + r0 + m)
    if not (math.isfinite(h) and 0 < h < room):
        raise ValidationError(f"h must be finite with 0 < h < n - (i0 + r0 + m) = {room:g}, got {h!r}")

    scores = []
    done = 0
    n_chunks = 0
    while done < replicates:
        r = min(chunk, replicates - done)
        diff = np.zeros(r)
        for _, slab in path_slabs(params, i0, r0, m, rng.substream(1000 + n_chunks), r):
            diff += _slab_score(slab, beta, gamma, a, n, h)
        scores.append(diff / (2.0 * h))
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
