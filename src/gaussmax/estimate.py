"""Probability estimators for the scaled maximum events.

Two crude Monte Carlo estimators target the two event definitions (the
componentwise maximum landing in the scaled set; at least one of the n
vectors landing in it), a mean-shift importance sampler targets the
single-vector probability, and closed-form references, in log space
throughout, cover block sets under diagonal covariances
(``exact_block_diagonal_log``) and single-vector halfspace events
(``exact_single_log``).  A small regression helper turns a ladder of log
probabilities into an empirical decay rate.

Both crude estimators come from one pass: each chunk of trials is drawn
once and yields the componentwise hits, the at-least-one hits and the
conspiracies (maximum inside, no single vector inside) together.

``plan_rung`` is the one place that decides which of these a ladder
rung runs (exact rows or importance sampling, then crude rows unless
``crude_skip`` gives a reason not to); the command line only runs what
it lists.  A rung skips its crude pass when it exceeds a scalar budget,
or when its exact componentwise probability bounds the expected hits of
both crude rows at or below ``CRUDE_MIN_EXPECTED_HITS``.

Determinism contract: every estimator consumes a RandomStream and draws
in fixed-size chunks, chunk ``i`` from ``stream.substream(i)``.  Chunks
may run on an executor's threads, but their results are combined in
chunk order (integer sums for hit counts, ``math.fsum`` for importance
weights).  Results are therefore a pure function of (arguments, stream)
regardless of how callers schedule the work.
"""

from __future__ import annotations

import enum
import math
import threading
from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr

from .dominate import LadderEntry
from .model import GaussianMixture, GaussianModel, RandomStream, sample_mixture_into
from .sets import Block, ConvexSet, Halfspace

__all__ = [
    "Method",
    "EstimateReport",
    "SlopeFit",
    "plan_rung",
    "crude_skip",
    "mc_crude",
    "is_single",
    "union_combine",
    "union_combined_report",
    "exact_block_diagonal_log",
    "exact_block_reports",
    "exact_single_log",
    "slope_fit",
    "conspiracy_rate",
]

# Upper bound on scalars drawn per chunk; chunk boundaries depend only on
# the problem shape, never on timing, so runs replay exactly.
CHUNK_SCALARS = 4_000_000

# A rung gets crude rows only while n * trials * dimension stays within
# this many scalars; larger rungs rely on their exact or IS rows.
CRUDE_SCALAR_BUDGET = 200_000_000

# A rung with exact rows skips its crude pass when they put the expected
# componentwise hits, an upper bound on the at-least-one hits too, at or
# below this.  By Markov's inequality it is also the largest chance that
# a skipped row would have seen any hit.
CRUDE_MIN_EXPECTED_HITS = 0.01


class Method(str, enum.Enum):
    CRUDE_COMPONENTWISE = "crude_componentwise"
    CRUDE_AT_LEAST_ONE = "crude_at_least_one"
    IMPORTANCE_SAMPLED_SINGLE = "importance_sampled_single"
    UNION_COMBINED = "union_combined"
    EXACT_BLOCK_DIAGONAL = "exact_block_diagonal"


@dataclass(frozen=True)
class EstimateReport:
    """One estimated (or exact) probability with its provenance."""

    p_hat: float
    std_error: float
    log_p_hat: float
    trials: int
    method: Method
    seed: int
    n: int
    scaling_norm_sq: float
    degenerate_weights: bool = False


@dataclass(frozen=True)
class SlopeFit:
    """Least-squares fit of log probability against the speed variable."""

    points: tuple
    slope: float
    intercept: float
    r_squared: float
    predicted_rate: float
    relative_gap: float


def _resolve_entry(entry) -> tuple[int, np.ndarray, float]:
    """Accept a LadderEntry or a raw ``(n, A_n)`` pair."""
    if isinstance(entry, LadderEntry):
        return entry.n, np.asarray(entry.scale_diag, dtype=float), entry.speed
    n, matrix = entry
    n = int(n)
    if n < 1:
        raise ValueError(f"block size must be >= 1, got {n}")
    diag = np.asarray(matrix, dtype=float)
    if diag.ndim == 2:
        off = diag - np.diag(np.diag(diag))
        if np.abs(off).max(initial=0.0) != 0.0:
            raise ValueError("scaling matrix must be diagonal")
        diag = np.diag(diag)
    if np.any(diag <= 0.0):
        raise ValueError("scaling diagonal entries must be positive")
    return n, diag, float(diag.max()) ** 2


def _is_diagonal(sigma: np.ndarray) -> bool:
    off = sigma - np.diag(np.diag(sigma))
    return float(np.abs(off).max(initial=0.0)) <= 1e-14 * float(np.abs(sigma).max())


def _exact_block(model, target: ConvexSet, diag: np.ndarray) -> bool:
    """Whether the exact block formulas cover this rung."""
    return (
        isinstance(model, GaussianModel)
        and isinstance(target, Block)
        and _is_diagonal(model.covariance.sigma)
        and np.all(model.mean == 0.0)
        and np.all(diag * target.corner > 0.0)
    )


def crude_skip(model, target: ConvexSet, entry, trials: int) -> dict | None:
    """Why a ladder rung runs no crude pass, or None when it runs one.

    ``{"n", "reason": "scalar_budget", "scalars"}`` when ``n * trials *
    dimension`` exceeds ``CRUDE_SCALAR_BUDGET``;  ``{"n", "reason":
    "expected_hits", "expected_hits"}`` when the rung has exact rows and
    ``trials * p_componentwise <= CRUDE_MIN_EXPECTED_HITS``.  On a block
    the at-least-one event implies the componentwise one, so the bound
    covers both crude rows.  The comparison is made in log space, so a
    probability below double range still skips.
    """
    n, diag, _ = _resolve_entry(entry)
    scalars = n * trials * model.dimension
    if scalars > CRUDE_SCALAR_BUDGET:
        return {"n": n, "reason": "scalar_budget", "scalars": scalars}
    if _exact_block(model, target, diag):
        sigma_diag = np.diag(model.covariance.sigma)
        log_cw, _ = exact_block_diagonal_log(sigma_diag, diag * target.corner, 1.0, n)
        if log_cw + math.log(trials) <= math.log(CRUDE_MIN_EXPECTED_HITS):
            return {"n": n, "reason": "expected_hits", "expected_hits": trials * math.exp(log_cw)}
    return None


def plan_rung(model, target: ConvexSet, entry, trials: int) -> tuple[Method, ...]:
    """The estimators one ladder rung runs, in the order their rows are written.

    A block with a positive corner under a centred diagonal Gaussian gets
    ``EXACT_BLOCK_DIAGONAL`` (its exact componentwise and union_combined
    rows); any other Gaussian gets ``IMPORTANCE_SAMPLED_SINGLE`` (one
    union_combined row).  The crude pair, one ``mc_crude`` pass, follows
    unless ``crude_skip`` names a reason: the rung is over the scalar
    budget, or its exact rows expect at most ``CRUDE_MIN_EXPECTED_HITS``
    crude hits.  A rung without exact rows keeps its pair within the
    budget, so an over-budget mixture rung runs nothing.
    """
    _, diag, _ = _resolve_entry(entry)
    plan = []
    if isinstance(model, GaussianModel):
        exact = _exact_block(model, target, diag)
        plan.append(Method.EXACT_BLOCK_DIAGONAL if exact else Method.IMPORTANCE_SAMPLED_SINGLE)
    if crude_skip(model, target, entry, trials) is None:
        plan += [Method.CRUDE_COMPONENTWISE, Method.CRUDE_AT_LEAST_ONE]
    return tuple(plan)


def _map_chunks(task, total: int, chunk: int, executor) -> list:
    """``task(index, take)`` over the chunks of ``total`` items, results in chunk order."""
    jobs = [(i, min(chunk, total - start)) for i, start in enumerate(range(0, total, chunk))]
    if executor is None:
        return [task(*job) for job in jobs]
    return list(executor.map(lambda job: task(*job), jobs))


def _per_thread(make):
    """Per-thread scratch arrays from ``make()``, reused by every chunk a thread runs.

    Fresh arrays for each chunk would make every chunk fault its pages in
    again; these live as long as the call that made the source.
    """
    local = threading.local()

    def buffers() -> list[np.ndarray]:
        if not hasattr(local, "arrays"):
            local.arrays = make()
        return local.arrays

    return buffers


def _gaussian_into(mean, chol, stream: RandomStream, z: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``mean + z @ chol.T`` drawn into ``x``; bit-identical to ``sample_gaussian``."""
    stream.generator().standard_normal(out=z)
    np.matmul(z, chol.T, out=x)
    x += mean
    return x


def _crude_counts(model, target: ConvexSet, entry, trials: int, stream: RandomStream, executor):
    """Chunked crude pass; returns ``(n, speed, (componentwise, at_least_one, conspiracies))``."""
    n, diag, speed = _resolve_entry(entry)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    d = model.dimension
    scaled = target.scale(diag)
    chunk = max(1, CHUNK_SCALARS // (n * d))
    rows = min(chunk, trials)
    mixture = isinstance(model, GaussianMixture)

    def make() -> list[np.ndarray]:
        arrays = [np.empty((rows * n, d)), np.empty((rows * n, d)), np.empty((rows, d))]
        if mixture:
            masks = np.empty((len(model.components) - 1, rows * n, d), bool)
            arrays += [np.empty((rows * n, d)), masks]
        return arrays

    buffers = _per_thread(make)

    def count(index: int, take: int) -> tuple[int, int, int]:
        sub = stream.substream(index)
        z, x, top, *scratch = buffers()
        z, x, top = z[: take * n], x[: take * n], top[:take]
        if mixture:
            y, masks = scratch
            sample_mixture_into(model, sub, x, z, y[: take * n], masks[:, : take * n])
        else:
            _gaussian_into(model.mean, model.covariance.chol_lower, sub, z, x)
        any_in = scaled.contains_many(x).reshape(take, n).any(axis=1)
        # Column by column: a strided maximum per coordinate is about ten
        # times faster than reducing the middle axis of (take, n, d).
        blocks = x.reshape(take, n, d)
        for j in range(d):
            np.max(blocks[:, :, j], axis=1, out=top[:, j])
        top_in = scaled.contains_many(top)
        return int(top_in.sum()), int(any_in.sum()), int((top_in & ~any_in).sum())

    counts = _map_chunks(count, trials, chunk, executor)
    return n, speed, tuple(map(sum, zip(*counts)))


def _crude_report(hits: int, trials: int, method: Method, seed: int, n: int, speed: float):
    p = hits / trials
    se = math.sqrt(max(p * (1.0 - p), 0.0) / trials)
    log_p = math.log(p) if p > 0.0 else -math.inf
    return EstimateReport(p, se, log_p, trials, method, seed, n, speed)


def mc_crude(
    model, target: ConvexSet, entry, trials: int, stream: RandomStream, executor=None
) -> tuple[EstimateReport, EstimateReport]:
    """Crude Monte Carlo of both events from one set of draws.

    Each trial draws ``n`` vectors once; the componentwise report counts
    trials whose componentwise maximum lands in ``scale(target, A_n)``,
    the at-least-one report trials where any of the vectors does.  Chunks
    run on ``executor`` when given (anything with an ordered ``map``),
    inline otherwise; the reports do not depend on which.
    """
    n, speed, (cw, alo, _) = _crude_counts(model, target, entry, trials, stream, executor)
    return (
        _crude_report(cw, trials, Method.CRUDE_COMPONENTWISE, stream.seed, n, speed),
        _crude_report(alo, trials, Method.CRUDE_AT_LEAST_ONE, stream.seed, n, speed),
    )


def is_single(
    model: GaussianModel,
    target: ConvexSet,
    shift,
    samples: int,
    stream: RandomStream,
    *,
    n: int = 1,
    scaling_norm_sq: float = math.nan,
    executor=None,
) -> EstimateReport:
    """Mean-shift importance sampling of the single-vector probability.

    Samples ``x' ~ Gaussian(mean + shift, sigma)`` and averages the
    likelihood ratio ``exp(-<shift, sigma_inv (x' - shift/2 - mean)>)``
    over hits.  A zero shift reproduces crude Monte Carlo exactly.  If
    no sample lands in the target the report carries ``p_hat = 0`` with
    ``degenerate_weights`` set instead of raising.  Chunks run on
    ``executor`` when given, inline otherwise, with the same result.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if not isinstance(model, GaussianModel):
        raise TypeError("importance sampling requires a single Gaussian model")
    d = model.dimension
    shift = np.asarray(shift, dtype=float)
    if shift.shape != (d,):
        raise ValueError(f"shift must have shape ({d},)")
    theta = model.covariance.sigma_inv @ shift
    shifted_mean = model.mean + shift
    chol = model.covariance.chol_lower
    chunk = max(1, CHUNK_SCALARS // d)
    rows = min(chunk, samples)
    buffers = _per_thread(lambda: [np.empty((rows, d)), np.empty((rows, d))])

    def weigh(index: int, take: int) -> tuple[float, float, int]:
        z, x = (b[:take] for b in buffers())
        _gaussian_into(shifted_mean, chol, stream.substream(index), z, x)
        hit = target.contains_many(x)
        w = np.exp(-(x[hit] - model.mean - 0.5 * shift) @ theta)
        return float(w.sum()), float((w * w).sum()), int(hit.sum())

    sums, sq_sums, hits = zip(*_map_chunks(weigh, samples, chunk, executor))
    hit_count = sum(hits)
    if hit_count == 0:
        return EstimateReport(
            0.0, 0.0, -math.inf, samples, Method.IMPORTANCE_SAMPLED_SINGLE,
            stream.seed, n, scaling_norm_sq, degenerate_weights=True,
        )
    total = math.fsum(sums)
    total_sq = math.fsum(sq_sums)
    p = total / samples
    variance = max(total_sq / samples - p * p, 0.0)
    se = math.sqrt(variance / samples)
    log_p = math.log(p) if p > 0.0 else -math.inf
    return EstimateReport(
        p, se, log_p, samples, Method.IMPORTANCE_SAMPLED_SINGLE,
        stream.seed, n, scaling_norm_sq,
    )


def union_combine(q: float, n: int) -> float:
    """Exact identity ``1 - (1 - q)**n`` on stable log1p/expm1 paths."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0, 1], got {q}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if q == 1.0:
        return 1.0
    return -math.expm1(n * math.log1p(-q))


def _log_union_combine(log_q: float, n: int) -> float:
    """log of ``1 - (1 - q)**n`` from ``log q``, robust below double range."""
    if log_q == -math.inf:
        return -math.inf
    if log_q >= 0.0:
        return 0.0
    if log_q >= -700.0:
        u = n * math.log1p(-math.exp(log_q))
        tail = -math.expm1(u)
        if tail >= 1.0:
            return 0.0
        return math.log(tail)
    # q below double underflow: p = n q to relative accuracy ~ n q.
    return math.log(n) + log_q


def union_combined_report(single: EstimateReport, n: int, scaling_norm_sq: float) -> EstimateReport:
    """Lift a single-vector estimate to the at-least-one event over n draws.

    The standard error propagates through the derivative
    ``n (1 - q)**(n - 1)`` of the combining identity.
    """
    q = single.p_hat
    p = union_combine(q, n)
    derivative = n * math.exp((n - 1) * math.log1p(-q)) if q < 1.0 else 0.0
    se = derivative * single.std_error
    log_p = _log_union_combine(single.log_p_hat, n)
    return EstimateReport(
        p, se, log_p, single.trials, Method.UNION_COMBINED,
        single.seed, n, scaling_norm_sq, degenerate_weights=single.degenerate_weights,
    )


def exact_block_diagonal_log(sigma_diag, corner, a_n: float, n: int) -> tuple[float, float]:
    """Log of both exact block probabilities for a diagonal covariance.

    All tail evaluations and products stay in log space, so results are
    meaningful even when the probabilities underflow double precision.
    """
    sd = np.atleast_1d(np.asarray(sigma_diag, dtype=float))
    cr = np.atleast_1d(np.asarray(corner, dtype=float))
    if sd.shape != cr.shape:
        raise ValueError("sigma_diag and corner must have matching shapes")
    if np.any(sd <= 0.0):
        raise ValueError("diagonal variances must be positive")
    if np.any(cr <= 0.0):
        raise ValueError("block corner must be positive for the exact formulas")
    if a_n <= 0.0:
        raise ValueError(f"scaling a_n must be positive, got {a_n}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    t = a_n * cr / np.sqrt(sd)
    log_q = log_ndtr(-t)
    log_cw = math.fsum(_log_union_combine(float(lq), n) for lq in log_q)
    log_alo = _log_union_combine(math.fsum(float(lq) for lq in log_q), n)
    return log_cw, log_alo


def exact_block_reports(sigma_diag, corner, entry, seed: int) -> tuple[EstimateReport, EstimateReport]:
    """Exact ladder rows: componentwise product and combined at-least-one.

    Both carry zero standard error and zero trials; ``log_p_hat`` comes
    from the log-space path so it stays finite when ``p_hat`` underflows.
    """
    n, diag, speed = _resolve_entry(entry)
    scaled_corner = diag * np.atleast_1d(np.asarray(corner, dtype=float))
    log_cw, log_alo = exact_block_diagonal_log(sigma_diag, scaled_corner, 1.0, n)
    cw = EstimateReport(
        math.exp(log_cw), 0.0, log_cw, 0, Method.EXACT_BLOCK_DIAGONAL, seed, n, speed
    )
    alo = EstimateReport(
        math.exp(log_alo), 0.0, log_alo, 0, Method.UNION_COMBINED, seed, n, speed
    )
    return cw, alo


def exact_single_log(model: GaussianModel, target: ConvexSet, entry) -> float | None:
    """Exact log of the single-vector probability: diagonal blocks and halfspaces, else None."""
    _, diag, _ = _resolve_entry(entry)
    if isinstance(target, Block) and _is_diagonal(model.covariance.sigma):
        corner = diag * target.corner - model.mean
        sd = np.sqrt(np.diag(model.covariance.sigma))
        return float(np.sum(log_ndtr(-corner / sd)))
    if isinstance(target, Halfspace):
        normal = target.normal / diag
        spread = math.sqrt(float(normal @ model.covariance.sigma @ normal))
        return float(log_ndtr(-(target.offset - float(normal @ model.mean)) / spread))
    return None


def slope_fit(points, predicted_rate: float) -> SlopeFit:
    """Least-squares slope of log probability against speed.

    ``points`` is an iterable of ``(speed, log_p)`` pairs; at least three
    distinct speeds with finite log probabilities are required.
    """
    pts = tuple((float(s), float(v)) for s, v in points)
    speeds = np.array([s for s, _ in pts])
    values = np.array([v for _, v in pts])
    if len(pts) < 3 or len(set(speeds.tolist())) < 3:
        raise ValueError("insufficient points: need >= 3 distinct speeds")
    if not np.all(np.isfinite(values)) or not np.all(np.isfinite(speeds)):
        raise ValueError("slope fit requires finite speeds and log probabilities")
    slope, intercept = np.polyfit(speeds, values, 1)
    fitted = slope * speeds + intercept
    ss_res = float(((values - fitted) ** 2).sum())
    ss_tot = float(((values - values.mean()) ** 2).sum())
    if ss_tot == 0.0:
        r_squared = 1.0 if ss_res <= 1e-24 else 0.0
    else:
        r_squared = 1.0 - ss_res / ss_tot
    if predicted_rate != 0.0:
        relative_gap = abs(slope - predicted_rate) / abs(predicted_rate)
    else:
        relative_gap = math.nan
    return SlopeFit(
        points=pts,
        slope=float(slope),
        intercept=float(intercept),
        r_squared=r_squared,
        predicted_rate=float(predicted_rate),
        relative_gap=relative_gap,
    )


def conspiracy_rate(
    model, target: ConvexSet, entry, trials: int, stream: RandomStream, exact_union: float | None = None
) -> tuple[float, float]:
    """Estimate how often the maximum lands in the set with no single vector inside.

    Returns ``(p_conspiracy, ratio_to_union)`` where the ratio divides by
    the exact at-least-one probability when provided and by the in-run
    estimate otherwise.  In dimension one the event is impossible.
    """
    _, _, (_, union_hits, conspiracies) = _crude_counts(model, target, entry, trials, stream, None)
    p_conspiracy = conspiracies / trials
    denom = exact_union if exact_union is not None else union_hits / trials
    if p_conspiracy == 0.0:
        ratio = 0.0
    elif denom == 0.0:
        ratio = math.inf
    else:
        ratio = p_conspiracy / denom
    return p_conspiracy, ratio
