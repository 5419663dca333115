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
once and yields the componentwise hits and the at-least-one hits
together.  The crude pass and the importance sampler share one chunk
driver, the only code here that tells a Gaussian draw from a mixture
draw.  The importance sampler likewise weighs one draw for several
shifts: ``estimate``'s shifted row and its crude (zero-shift)
counterpart come from the same chunks, each drawn once.

``plan_rung`` is the one place that decides which of these a ladder
rung runs (exact rows or importance sampling, then crude rows) and, when
it drops the crude pair, returns why; the command line only runs what it
lists.  A rung skips its crude pass when it exceeds a scalar budget, or
when its exact componentwise probability bounds the expected hits of
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
import functools
import math
import threading
from dataclasses import dataclass

import numpy as np

from .dominate import LadderEntry
from .model import GaussianMixture, GaussianModel, RandomStream, sample_gaussian, sample_mixture
from .sets import Block, ConvexSet, Halfspace

__all__ = [
    "Method",
    "EstimateReport",
    "SlopeFit",
    "plan_rung",
    "mc_crude",
    "is_single",
    "union_combine",
    "union_combined_report",
    "exact_block_diagonal_log",
    "exact_block_reports",
    "exact_single_log",
    "slope_fit",
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

_EPS = np.finfo(float).eps
_SQRT1_2 = math.sqrt(0.5)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


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


def _is_diagonal(sigma: np.ndarray) -> bool:
    off = sigma - np.diag(np.diag(sigma))
    return float(np.abs(off).max(initial=0.0)) <= 1e-14 * float(np.abs(sigma).max())


def plan_rung(
    model, target: ConvexSet, entry: LadderEntry, trials: int
) -> tuple[tuple[Method, ...], dict | None]:
    """``(methods, skip)``: the estimators one ladder rung runs, and why it runs no crude pair.

    ``methods`` is in row order.  A block with a positive corner under a
    centred diagonal Gaussian gets ``EXACT_BLOCK_DIAGONAL`` (its exact
    componentwise and union_combined rows); any other Gaussian gets
    ``IMPORTANCE_SAMPLED_SINGLE`` (one union_combined row).  The crude
    pair, one ``mc_crude`` pass, follows when ``skip`` is None.  Else
    ``skip`` is ``{"n", "reason": "scalar_budget", "scalars"}`` when ``n *
    trials * dimension`` exceeds ``CRUDE_SCALAR_BUDGET``, or ``{"n",
    "reason": "expected_hits", "expected_hits"}`` when the rung has exact
    rows and ``trials * p_componentwise <= CRUDE_MIN_EXPECTED_HITS``,
    compared in log space so that underflow still skips.  On a block the
    at-least-one event implies the componentwise one, so the bound covers
    both crude rows.  A rung without exact rows keeps its pair within the
    budget, so an over-budget mixture rung runs nothing.
    """
    n, diag = entry.n, entry.scale_diag
    exact = (
        isinstance(model, GaussianModel)
        and isinstance(target, Block)
        and _is_diagonal(model.covariance.sigma)
        and np.all(model.mean == 0.0)
        and np.all(diag * target.corner > 0.0)
    )
    methods = []
    if isinstance(model, GaussianModel):
        methods.append(Method.EXACT_BLOCK_DIAGONAL if exact else Method.IMPORTANCE_SAMPLED_SINGLE)
    skip = None
    scalars = n * trials * model.dimension
    if scalars > CRUDE_SCALAR_BUDGET:
        skip = {"n": n, "reason": "scalar_budget", "scalars": scalars}
    elif exact:
        sigma_diag = np.diag(model.covariance.sigma)
        log_cw, _ = exact_block_diagonal_log(sigma_diag, diag * target.corner, n)
        if log_cw + math.log(trials) <= math.log(CRUDE_MIN_EXPECTED_HITS):
            skip = {"n": n, "reason": "expected_hits", "expected_hits": trials * math.exp(log_cw)}
    if skip is None:
        methods += [Method.CRUDE_COMPONENTWISE, Method.CRUDE_AT_LEAST_ONE]
    return tuple(methods), skip


def _draw_chunks(model, units: int, unit_rows: int, stream: RandomStream, executor, body) -> list:
    """``body(x, free)`` per chunk of ``units`` draws of ``unit_rows`` rows, results in chunk order.

    Chunk ``i`` holds at most ``CHUNK_SCALARS // (unit_rows * d)`` units,
    drawn into ``x`` from ``stream.substream(i)`` by ``sample_gaussian``
    or, for a mixture, ``sample_mixture``; ``free`` is a scratch array
    shaped like ``x`` whose contents the body may overwrite.  Chunks run
    on ``executor`` when given (anything with an ordered ``map``), inline
    otherwise.  Each thread keeps its scratch arrays for all its chunks,
    so pages fault in once.
    """
    d = model.dimension
    chunk = max(1, CHUNK_SCALARS // (unit_rows * d))
    rows = min(chunk, units) * unit_rows
    mixture = isinstance(model, GaussianMixture)
    local = threading.local()

    def draw(index: int):
        if not hasattr(local, "arrays"):
            local.arrays = [np.empty((rows, d)) for _ in range(3 if mixture else 2)]
            if mixture:
                local.arrays.append(np.empty((len(model.components) - 1, rows, d), bool))
        take = min(chunk, units - index * chunk) * unit_rows
        # The row axis is second to last in every array, masks included.
        x, z, *scratch = (a[..., :take, :] for a in local.arrays)
        if mixture:
            sample_mixture(model, stream.substream(index), x, z, *scratch)
        else:
            sample_gaussian(model, stream.substream(index), x, z)
        return body(x, z)

    jobs = range(-(-units // chunk))
    return list(map(draw, jobs) if executor is None else executor.map(draw, jobs))


def _crude_report(hits: int, trials: int, method: Method, seed: int, n: int, speed: float):
    p = hits / trials
    se = math.sqrt(max(p * (1.0 - p), 0.0) / trials)
    log_p = math.log(p) if p > 0.0 else -math.inf
    return EstimateReport(p, se, log_p, trials, method, seed, n, speed)


def mc_crude(
    model, target: ConvexSet, entry: LadderEntry, trials: int, stream: RandomStream, executor=None
) -> tuple[EstimateReport, EstimateReport]:
    """Crude Monte Carlo of both events from one set of draws.

    Each trial draws ``n`` vectors once; the componentwise report counts
    trials whose componentwise maximum lands in ``scale(target, A_n)``,
    the at-least-one report trials where any of the vectors does.  Chunks
    run on ``executor`` when given (anything with an ordered ``map``),
    inline otherwise; the reports do not depend on which.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    n, d = entry.n, model.dimension
    scaled = target.scale(entry.scale_diag)

    def count(x: np.ndarray, _free) -> tuple[int, int]:
        any_in = scaled.contains_many(x).reshape(-1, n).any(axis=1)
        # Column by column: a strided maximum per coordinate is about ten
        # times faster than reducing the middle axis of (take, n, d).
        blocks = x.reshape(-1, n, d)
        top = np.empty((len(blocks), d))
        for j in range(d):
            np.max(blocks[:, :, j], axis=1, out=top[:, j])
        return int(scaled.contains_many(top).sum()), int(any_in.sum())

    counts = _draw_chunks(model, trials, n, stream, executor, count)
    cw, alo = map(sum, zip(*counts))
    return (
        _crude_report(cw, trials, Method.CRUDE_COMPONENTWISE, stream.seed, n, entry.speed),
        _crude_report(alo, trials, Method.CRUDE_AT_LEAST_ONE, stream.seed, n, entry.speed),
    )


def _is_single_shifts(
    model: GaussianModel,
    target: ConvexSet,
    shifts,
    samples: int,
    stream: RandomStream,
    *,
    scaling_norm_sq: float = math.nan,
    executor=None,
) -> tuple[tuple[EstimateReport, ...], tuple[int, ...]]:
    """``is_single`` for each of ``shifts`` from one draw; ``(reports, hits)`` in shift order.

    Each chunk is drawn once from the centred model; every shift then
    adds ``mean + shift`` to the draw in the chunk's free scratch array.
    Adding the zero mean is exact, so each report equals the one
    ``is_single`` gives for its shift alone on the same stream, bit for
    bit.  ``hits`` counts the samples that landed in ``target``.  Every
    report is a single-vector row (``n = 1``); ``union_combined_report``
    lifts it to a rung's ``n``.  The kernel is private so that wrappers
    of the public functions (such as ``benchmarks/tracer.py``) see the IS
    time as ``is_single``'s own.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if not isinstance(model, GaussianModel):
        raise TypeError("importance sampling requires a single Gaussian model")
    d = model.dimension
    shifts = [np.asarray(shift, dtype=float) for shift in shifts]
    if any(shift.shape != (d,) for shift in shifts):
        raise ValueError(f"shift must have shape ({d},)")
    mean = model.mean
    passes = [(shift, mean + shift, model.covariance.sigma_inv @ shift) for shift in shifts]
    centred = GaussianModel(np.zeros(d), model.covariance)

    def weigh(y: np.ndarray, x: np.ndarray) -> list[tuple[float, float, int]]:
        sums = []
        for shift, centre, theta in passes:
            np.add(y, centre, out=x)
            hit = target.contains_many(x)
            # Likelihood ratio exp(-<theta, x - mean - shift/2>) over the hits.
            lifted = np.compress(hit, x, axis=0)
            lifted -= mean
            lifted -= 0.5 * shift
            w = lifted @ theta
            np.exp(np.negative(w, out=w), out=w)
            sums.append((float(w.sum()), float((w * w).sum()), len(w)))
        return sums

    per_chunk = _draw_chunks(centred, samples, 1, stream, executor, weigh)
    reports, hits = [], []
    for chunks in zip(*per_chunk):
        sums, sq_sums, counts = zip(*chunks)
        hits.append(sum(counts))
        p = math.fsum(sums) / samples
        # No hits, or hits whose weights underflow to zero or overflow.
        if not 0.0 < p < math.inf:
            reports.append(EstimateReport(
                0.0, 0.0, -math.inf, samples, Method.IMPORTANCE_SAMPLED_SINGLE,
                stream.seed, 1, scaling_norm_sq, degenerate_weights=True,
            ))
            continue
        variance = max(math.fsum(sq_sums) / samples - p * p, 0.0)
        reports.append(EstimateReport(
            p, math.sqrt(variance / samples), math.log(p), samples,
            Method.IMPORTANCE_SAMPLED_SINGLE, stream.seed, 1, scaling_norm_sq,
        ))
    return tuple(reports), tuple(hits)


def is_single(
    model: GaussianModel,
    target: ConvexSet,
    shift,
    samples: int,
    stream: RandomStream,
    *,
    scaling_norm_sq: float = math.nan,
    executor=None,
) -> EstimateReport:
    """Mean-shift importance sampling of the single-vector probability.

    Samples ``x' ~ Gaussian(mean + shift, sigma)`` and averages the
    likelihood ratio ``exp(-<shift, sigma_inv (x' - shift/2 - mean)>)``
    over hits.  A zero shift reproduces crude Monte Carlo exactly.  If
    no sample lands in the target, or the weights of the hits sum to
    zero or overflow, the report carries ``p_hat = 0`` with
    ``degenerate_weights`` set instead of raising.  Chunks run on
    ``executor`` when given, inline otherwise, with the same result.
    This is ``_is_single_shifts`` with one shift.
    """
    reports, _ = _is_single_shifts(
        model, target, (shift,), samples, stream,
        scaling_norm_sq=scaling_norm_sq, executor=executor,
    )
    return reports[0]


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


@functools.partial(np.vectorize, otypes=[float])
def _log_ndtr(a: float) -> float:
    """``log Phi(a)`` per element, to a few ulps relative on the whole line.

    From -1 up (scipy.special.log_ndtr's split), ``log1p(-Phi(-a))``, which
    keeps its relative accuracy as the value nears zero; down to -20,
    ``log Phi(a)``, with ``Phi(a)`` from ``erfc``, which is relatively
    accurate in the lower tail; below, where ``Phi(a)`` underflows by -38,
    the Mills ratio's asymptotic series ``Phi(a) = phi(a) / -a * sum_k
    (-1)^k (2k - 1)!! / a^(2k)``, summed until a term falls below machine
    epsilon.  NaN is returned before any comparison can flag it invalid.
    """
    if math.isnan(a):
        return a
    if a >= -1.0:
        return math.log1p(-0.5 * math.erfc(a * _SQRT1_2))
    if a > -20.0:
        return math.log(0.5 * math.erfc(-a * _SQRT1_2))
    inv_a2 = 1.0 / (a * a)
    total, term, k = 1.0, 1.0, 0
    while abs(term) > _EPS:
        k += 1
        term *= -(2 * k - 1) * inv_a2
        total += term
    return -0.5 * a * a - math.log(-a) - _HALF_LOG_2PI + math.log(total)


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


def exact_block_diagonal_log(sigma_diag, corner, n: int) -> tuple[float, float]:
    """Log of both exact block probabilities for a diagonal covariance.

    ``corner`` is the block's scaled corner ``A_n c``.  All tail
    evaluations and products stay in log space, so results are
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
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    t = cr / np.sqrt(sd)
    log_q = _log_ndtr(-t)
    log_cw = math.fsum(_log_union_combine(float(lq), n) for lq in log_q)
    log_alo = _log_union_combine(math.fsum(float(lq) for lq in log_q), n)
    return log_cw, log_alo


def exact_block_reports(
    sigma_diag, corner, entry: LadderEntry, seed: int
) -> tuple[EstimateReport, EstimateReport]:
    """Exact ladder rows: componentwise product and combined at-least-one.

    Both carry zero standard error and zero trials; ``log_p_hat`` comes
    from the log-space path so it stays finite when ``p_hat`` underflows.
    """
    n, diag, speed = entry.n, entry.scale_diag, entry.speed
    scaled_corner = diag * np.atleast_1d(np.asarray(corner, dtype=float))
    log_cw, log_alo = exact_block_diagonal_log(sigma_diag, scaled_corner, n)
    cw = EstimateReport(
        math.exp(log_cw), 0.0, log_cw, 0, Method.EXACT_BLOCK_DIAGONAL, seed, n, speed
    )
    alo = EstimateReport(
        math.exp(log_alo), 0.0, log_alo, 0, Method.UNION_COMBINED, seed, n, speed
    )
    return cw, alo


def exact_single_log(model: GaussianModel, target: ConvexSet, entry: LadderEntry) -> float | None:
    """Exact log of the single-vector probability: diagonal blocks and halfspaces, else None."""
    diag = entry.scale_diag
    if isinstance(target, Block) and _is_diagonal(model.covariance.sigma):
        corner = diag * target.corner - model.mean
        sd = np.sqrt(np.diag(model.covariance.sigma))
        return float(np.sum(_log_ndtr(-corner / sd)))
    if isinstance(target, Halfspace):
        normal = target.normal / diag
        spread = math.sqrt(float(normal @ model.covariance.sigma @ normal))
        return float(_log_ndtr(-(target.offset - float(normal @ model.mean)) / spread))
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
