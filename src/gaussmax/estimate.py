"""Probability estimators for the scaled maximum events.

Two crude Monte Carlo estimators target the two event definitions (the
componentwise maximum landing in the scaled set; at least one of the n
vectors landing in it), an importance sampler with cone proposals from
the active set targets the single-vector probability, and closed-form
references, in log space throughout, cover block sets under diagonal
covariances (``exact_block_diagonal_log``) and single-vector halfspace
events (``exact_single_log``).  A small regression helper turns a ladder
of log probabilities into an empirical decay rate.

Both crude estimators come from one pass, which takes one of two forms.
The full draw draws every vector of each trial.  On a set with finite
lower bounds ``t`` (a block or an ellipsoid), the exceedance pass draws
only the vectors with some ``x_j >= t_j``, exactly in law, from their
one-dimensional tails: no other vector can land in the set or lift the
componentwise maximum into it.  ``_crude_pass`` holds the one rule that
picks between them: the exceedance pass whenever its expected scalars
are fewer.  Both passes draw a chunk's trials by cells (``_draw_cells``):
per-trial multinomial counts over the cells, then each cell's rows at
once; the full draw has one unconditioned cell per mixture component, a
Gaussian being a mixture of one.  Each chunk of trials reduces the same
way, to one componentwise maximum and one at-least-one flag per trial,
and yields both hit counts together.

Importance sampling runs in one loop (``_importance_sample``), which
draws standard normals ``z`` and standard exponentials ``E`` and weighs
any number of passes on that draw; each pass is a proposal that maps its
target once into the frame ``x = mean + C z`` (``C C^T = sigma``;
``ConvexSet.whitened``), so no pass forms ``x``.  Every pass is a cone
proposal (``_cone_pass``; Glasserman, *Monte Carlo Methods in Financial
Engineering*, 2004, ch. 4.6 and 9), and one entry point serves both
commands, ``is_cones``, which builds the cone and pass of each rung
it is given and weighs them all on one draw: ``verify`` gives it every
importance-sampled rung, and ``estimate`` its top rung beside that
rung's crude counterpart, the cone without rows (``_plain_cone``),
unless that cannot hit (``_zero_shift_skip``).  A rung's scaled set lies
in the cone ``{z : G z >= h}`` of the k constraints active at ``z*``,
its point nearest the mean, with positive multipliers ``mu = (G G^T)^-1
h`` (``_active_cone``, ``_cone``).  Across each active face the target
density falls like ``exp(-mu_i u_i)``, which the proposal follows with
the exponential draws, so its weights stay bounded where a Gaussian
shifted to ``z*`` would spread them.  On a linear set with
``0 < k < d``, a cone pass integrates one null-space coordinate of each
draw exactly (``_chord``): along the unit projection ``e = P a / |P a|``
(``P = I - G^T S^-1 G``) of the set row ``a`` whose face is nearest the
apex, the smallest ``slack(apex) / |P a|``, the set cuts the line
through the draw to a chord ``[lo, hi]``, and the hit indicator becomes
``Phi(hi) - Phi(lo)`` (``_log_ndtr_interval``).  ``z.e`` is standard
normal and independent of ``u`` and of the rest of ``z``, and the weight
depends on ``u`` alone, so this conditional expectation keeps the pass
unbiased, can only lower its variance, and draws nothing more.
Every pass samples to a stated precision (Glynn & Whitt, *Ann. Appl.
Prob.* 2, 1992): it stops at the first chunk, in chunk order, at which
its relative standard error is at most ``IS_TARGET_RELATIVE_SE`` with at
least ``IS_MIN_HITS`` hits, so ``is_samples`` is only its cap, and the
draw ends when the last pass stops.  Chunks double up to
``IS_LARGEST_CHUNK`` samples and then repeat it, so late stops come
every ``IS_LARGEST_CHUNK`` samples, and every pass weighs each chunk
whole, inline, so its arrays stay a few megabytes however large the cap.
Passes weighed on one draw share common random numbers, so their errors
are correlated, while each stays unbiased with its own standard error.

``plan_rung`` is the one place that decides which of these a ladder
rung runs (exact rows or importance sampling, then crude rows) and, when
it drops the crude pair, returns why; ``verify`` runs what it lists, and
``estimate`` reads it for which top rung gets a mixture's crude pair and
whether to report the exact componentwise probability.  A rung skips its
crude pass when the chosen pass's scalars exceed a budget, or when its
exact componentwise probability bounds the expected hits of both crude
rows at or below ``CRUDE_MIN_EXPECTED_HITS``.

Determinism contract: every estimator consumes a RandomStream and draws
in chunks whose sizes depend only on the problem shape, chunk ``i`` from
``stream.substream(i)``.  Crude chunks may run on an executor's threads,
but their hit counts are summed in chunk order; importance sampling runs
inline, combines its chunks in chunk order (``math.fsum`` of each
chunk's weights scaled by its largest log-weight) and decides every stop
in chunk order.  Results are therefore a pure function of (arguments,
stream) regardless of how callers schedule the work.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .dominate import LadderEntry, _kkt_fit, _solve
from .errors import NotAtypical
from .model import GaussianMixture, GaussianModel, RandomStream
from .sets import Block, ConvexSet, Halfspace

__all__ = [
    "Method",
    "EstimateReport",
    "SlopeFit",
    "plan_rung",
    "mc_crude",
    "is_cones",
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

# A rung gets crude rows only while its crude pass's expected scalars
# (n * trials * dimension for the full draw) stay within this many;
# larger rungs rely on their exact or IS rows.
CRUDE_SCALAR_BUDGET = 200_000_000

# A rung with exact rows skips its crude pass when they put the expected
# componentwise hits, an upper bound on the at-least-one hits too, at or
# below this.  By Markov's inequality it is also the largest chance that
# a skipped row would have seen any hit.
CRUDE_MIN_EXPECTED_HITS = 0.01

# Importance-sampled rows sample to a stated precision: a row stops once
# its relative standard error is at most IS_TARGET_RELATIVE_SE and it has
# at least IS_MIN_HITS hits, a floor against the small-count bias of
# sequential stopping; is_samples caps it.  Its chunks double in size
# from IS_FIRST_CHUNK samples up to IS_LARGEST_CHUNK and then repeat
# that size, so the stop has a fine grain early, a late one comes every
# IS_LARGEST_CHUNK samples, and a chunk's arrays stay small; no row can
# stop on fewer samples than IS_MIN_HITS, so the first chunk is the
# smallest power of two that holds them.
IS_TARGET_RELATIVE_SE = 0.005
IS_MIN_HITS = 1000
IS_FIRST_CHUNK = 1 << (IS_MIN_HITS - 1).bit_length()
IS_LARGEST_CHUNK = 8 * IS_FIRST_CHUNK

_EPS = np.finfo(float).eps
_LOG_MAX = math.log(np.finfo(float).max)
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


def _components(model) -> tuple:
    """``(weights, components)``: a Gaussian is a mixture of one."""
    if isinstance(model, GaussianMixture):
        return model.weights, model.components
    return (1.0,), (model,)


def _crude_pass(model, scaled: ConvexSet, n: int):
    """``(scalars_per_trial, cells)`` of the crude pass ``mc_crude`` runs on ``scaled``.

    ``cells`` is what ``_draw_cells`` draws: ``(t, q)`` for the
    exceedance pass and ``(None, weights)`` for the full draw, a
    Gaussian's weights being ``(1.0,)``.  The exceedance pass needs a
    set with finite lower bounds ``t`` (``scaled.lower_bound()``);
    ``q[k, j] = w_k P_k(X_j >= t_j)`` per component k and coordinate j,
    and ``r = q.sum()``.  Its expected scalars a trial are ``q.size + n
    r (d + 2)``: one count per cell ``(k, j)``, and per candidate ``d``
    normals and a tail proposal of two scalars.  It is chosen when that
    is below the full draw's ``n d``, which needs ``r < 1``.  The full
    draw counts ``n d``, a mixture's component counts aside.
    """
    d = model.dimension
    t = scaled.lower_bound()
    if t is not None:
        q = np.array([
            w * np.exp(_log_ndtr((c.mean - t) / np.sqrt(np.diag(c.covariance.sigma))))
            for w, c in zip(*_components(model))
        ])
        per_trial = q.size + n * float(q.sum()) * (d + 2)
        if per_trial < n * d:
            return per_trial, (t, q)
    return n * d, (None, _components(model)[0])


def plan_rung(
    model, target: ConvexSet, entry: LadderEntry, trials: int
) -> tuple[tuple[Method, ...], dict | None]:
    """``(methods, skip)``: the estimators one ladder rung runs, and why it runs no crude pair.

    ``methods`` is in row order.  A block with a positive corner under a
    centred diagonal Gaussian gets ``EXACT_BLOCK_DIAGONAL`` (its exact
    componentwise and union_combined rows); any other Gaussian gets
    ``IMPORTANCE_SAMPLED_SINGLE`` (one union_combined row).  The crude
    pair, one ``mc_crude`` pass, follows when ``skip`` is None.

    That pass is one of two, by one rule (``_crude_pass``): on a set with
    finite lower bounds ``t`` (a block or an ellipsoid, scaled), the
    exceedance pass when its expected scalars, about ``n r (d + 2)`` a
    trial with ``r`` the summed tails ``P(X_j >= t_j)``, are below the
    full draw's ``n d``; else the full draw of ``n d`` scalars a trial.

    ``skip`` is ``{"n", "reason": "scalar_budget", "scalars"}`` when the
    chosen pass's expected scalars over all trials exceed
    ``CRUDE_SCALAR_BUDGET``, or ``{"n", "reason": "expected_hits",
    "expected_hits"}`` when the rung has exact rows and ``trials *
    p_componentwise <= CRUDE_MIN_EXPECTED_HITS``, compared in log space
    so that underflow still skips.  On a block the at-least-one event
    implies the componentwise one, so the bound covers both crude rows.
    A rung without exact rows keeps its pair within the budget, so an
    over-budget mixture rung runs nothing.
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
    scalars = math.ceil(trials * _crude_pass(model, target.scale(diag), n)[0])
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


def _zero_shift_skip(model: GaussianModel, point: np.ndarray, samples: int, n: int) -> dict | None:
    """Why ``estimate`` weighs no crude row (its plain draw) beside its IS row, or None.

    ``point`` is the scaled dominating point ``y* = A_n x*``, the point of
    the scaled set nearest the origin in the metric ``sigma_inv``, so the
    halfspace ``{y : <sigma_inv y*, y - y*> >= 0}`` supports the set at
    ``y*`` and contains it.  A draw lands in that halfspace with
    probability ``Phi_bar(delta)``, with ``delta`` the whitened distance
    from the mean to it (to the set itself for a centred model), so
    ``samples * Phi_bar(delta)`` bounds the row's expected hits.  At or
    below ``CRUDE_MIN_EXPECTED_HITS`` the record ``{"n", "reason":
    "expected_hits", "expected_hits"}`` is returned; the comparison is
    made in log space, so that underflow still skips.
    """
    u = model.covariance.whitener @ point
    delta = float(u @ (model.covariance.whitener @ (point - model.mean))) / math.sqrt(u @ u)
    log_hits = math.log(samples) + float(_log_ndtr(-delta))
    if log_hits > math.log(CRUDE_MIN_EXPECTED_HITS):
        return None
    return {"n": n, "reason": "expected_hits", "expected_hits": math.exp(log_hits)}


def _normal_tail(a: float, size: int, rng: np.random.Generator) -> np.ndarray:
    """``size`` standard normal draws conditioned on ``z >= a``.

    For ``a > 0``, Robert's exponential rejection (Stat. Comput. 5,
    1995): propose ``a + E / lam``, with ``E`` standard exponential and
    ``lam = (a + sqrt(a^2 + 4)) / 2``, and accept with probability
    ``exp(-(z - lam)^2 / 2)``.  Otherwise plain rejection: standard
    normal draws, keeping those at or above ``a``.  Either accepts over
    half its proposals; each round proposes as many as are still missing.
    """
    lam = 0.5 * (a + math.sqrt(a * a + 4.0))
    rounds = []
    missing = size
    while missing:
        if a > 0.0:
            prop = a + rng.standard_exponential(missing) / lam
            prop = prop[rng.random(missing) <= np.exp(-0.5 * (prop - lam) ** 2)]
        else:
            prop = rng.standard_normal(missing)
            prop = prop[prop >= a]
        rounds.append(prop)
        missing -= len(prop)
    return np.concatenate(rounds)


def _draw_cells(model, t, q, n: int, trials: int, rng):
    """Yield ``(x, counts)`` per cell drawn for ``trials`` blocks of ``n`` draws.

    The first ``counts[0]`` rows of ``x`` belong to block 0, the next
    ``counts[1]`` to block 1, and so on.  Each of a block's ``n`` draws
    falls in cell ``c`` with probability ``q.flat[c]``, so the counts are
    multinomial; cells are drawn in order, each with all its rows at once.

    With ``t`` None, ``q`` holds a mixture's weights and this is its full
    draw: cell k draws plain rows from component k.

    Otherwise it is the exceedance pass, which yields of each block just
    the vectors with some ``x_j >= t_j``.  A draw is a candidate of cell
    ``(k, j)`` with probability ``q[k, j]``, or no candidate (``1 - r``,
    ``r = q.sum()``), the same law as ``Binomial(n, r)`` candidates, each
    picking ``(k, j)`` with probability ``q[k, j] / r``.  A candidate of
    ``(k, j)`` draws ``x_j`` from component k given ``x_j >= t_j``
    (``_normal_tail``), before its normals, and its other coordinates from
    component k's conditional normal given ``x_j``; it is kept when j is
    its first coordinate at or above ``t``.  Every point of ``E = {x :
    x_j >= t_j for some j}`` is thus kept under one j only, so each draw
    is independently a kept row with density ``f 1_E``: the kept rows are
    the block's draws in E, in law.
    """
    d = model.dimension
    comps = _components(model)[1]
    if t is None:
        counts = rng.multinomial(n, q, size=trials)
    else:
        # The last column counts the draws that are no candidate (1 - r).
        counts = rng.multinomial(n, [*q.ravel(), 0.0], size=trials)[:, :-1]
    for cell in np.flatnonzero(counts.any(axis=0)):
        k, j = (int(cell), None) if t is None else divmod(int(cell), d)
        comp = comps[k]
        mean, sigma = comp.mean, comp.covariance.sigma
        size = counts[:, cell]
        if j is not None:
            sd = math.sqrt(sigma[j, j])
            trial = np.repeat(np.arange(trials), size)
            tail = mean[j] + sd * _normal_tail((t[j] - mean[j]) / sd, len(trial), rng)
            # Rounding may leave mean + sd * z an ulp below t_j.
            np.maximum(tail, t[j], out=tail)
        x = rng.standard_normal((int(size.sum()), d)) @ comp.covariance.chol_lower.T
        x += mean
        if j is None:
            yield x, size
            continue
        # An unconditioned draw x plus sigma[:, j] / sigma[j, j] times
        # (tail - x_j) has component k's law given x_j = tail.
        x += np.outer(tail - x[:, j], sigma[:, j] / sigma[j, j])
        x[:, j] = tail
        # Kept under its first exceeded coordinate only.
        kept = ~(x[:, :j] >= t[:j]).any(axis=1)
        yield x[kept], np.bincount(trial[kept], minlength=trials)


def _crude_report(hits: int, trials: int, method: Method, seed: int, n: int, speed: float):
    p = hits / trials
    se = math.sqrt(max(p * (1.0 - p), 0.0) / trials)
    log_p = math.log(p) if p > 0.0 else -math.inf
    return EstimateReport(p, se, log_p, trials, method, seed, n, speed)


def mc_crude(
    model, target: ConvexSet, entry: LadderEntry, trials: int, stream: RandomStream, executor=None
) -> tuple[EstimateReport, EstimateReport]:
    """Crude Monte Carlo of both events from one pass.

    The componentwise report counts trials whose componentwise maximum
    of ``n`` draws lands in ``scale(target, A_n)``, the at-least-one
    report trials where any of the draws does.  ``_crude_pass`` picks
    the pass, and ``_draw_cells`` draws it.  The full draw draws all
    ``n`` vectors of a trial, by per-trial component counts (one
    component for a Gaussian).  The exceedance pass draws only the
    vectors that exceed the scaled set's lower bounds ``t`` somewhere:
    the set lies in ``{x >= t}``, so the others can neither land in it
    nor lift the maximum into it, and a trial without such a vector
    misses both.  Trials are chunked by the pass's scalars, chunk ``i``
    drawn from ``stream.substream(i)``, and every chunk reduces the same
    way: each cell's rows of one trial to their maximum
    (``np.maximum.reduceat``) and to whether any lands in the set
    (``np.logical_or.reduceat``), then the cells to one maximum per
    trial.  Chunks run on ``executor`` when given (anything with an
    ordered ``map``), inline otherwise; the reports do not depend on
    which.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    n, d = entry.n, model.dimension
    scaled = target.scale(entry.scale_diag)
    per_trial, cells = _crude_pass(model, scaled, n)
    chunk = max(1, int(CHUNK_SCALARS // per_trial))

    def count(index: int) -> tuple[int, int]:
        take = min(chunk, trials - index * chunk)
        rng = stream.substream(index).generator()
        top = np.full((take, d), -np.inf)
        any_in = np.zeros(take, bool)
        for x, sizes in _draw_cells(model, *cells, n, take, rng):
            (owners,) = np.nonzero(sizes)
            starts = (np.cumsum(sizes) - sizes)[owners]
            top[owners] = np.maximum(top[owners], np.maximum.reduceat(x, starts, axis=0))
            any_in[owners] |= np.logical_or.reduceat(scaled.contains_many(x), starts)
        # A trial without rows (exceedance pass) misses both events.
        seen = top[:, 0] > -np.inf
        return int(scaled.contains_many(top[seen]).sum()), int(any_in.sum())

    jobs = range(-(-trials // chunk))
    counts = list(map(count, jobs) if executor is None else executor.map(count, jobs))
    cw, alo = map(sum, zip(*counts))
    return (
        _crude_report(cw, trials, Method.CRUDE_COMPONENTWISE, stream.seed, n, entry.speed),
        _crude_report(alo, trials, Method.CRUDE_AT_LEAST_ONE, stream.seed, n, entry.speed),
    )


def _log_weight_sums(lw: np.ndarray) -> tuple[float, float, float, int]:
    """One chunk's reduction of its hits' log-weights ``lw``, which it overwrites.

    ``(max, sum exp(lw - max), sum exp(2 (lw - max)), hits)``; no hits
    reduce to ``(-inf, 0, 0, 0)``.
    """
    if not len(lw):
        return -math.inf, 0.0, 0.0, 0
    top = float(lw.max())
    np.exp(np.subtract(lw, top, out=lw), out=lw)
    return top, float(lw.sum()), float(lw @ lw), len(lw)


class _WeightSums:
    """One pass's chunk reductions (``_log_weight_sums``) under their running maximum.

    ``terms`` holds each chunk's ``(s exp(t - top), s2 exp(2 (t - top)))``
    for the largest chunk maximum ``top`` so far, in chunk order.  They are
    rebuilt only when a chunk raises ``top``, else the new chunk's are
    appended, so the terms are those a rescaling of every chunk would give,
    at one pair of ``exp`` a chunk while the maximum holds.
    """

    def __init__(self):
        self.chunks, self.terms, self.top, self.hits = [], [], -math.inf, 0

    def add(self, chunk: tuple[float, float, float, int]) -> None:
        self.chunks.append(chunk)
        self.hits += chunk[3]
        if chunk[0] > self.top:
            self.top = chunk[0]
            self.terms = [self._scaled(c) for c in self.chunks]
        else:
            self.terms.append(self._scaled(chunk))

    def _scaled(self, chunk) -> tuple[float, float]:
        top, s, sq, _ = chunk
        return s * math.exp(top - self.top), sq * math.exp(2.0 * (top - self.top))


def _weighed_report(sums: _WeightSums, samples: int, seed: int):
    """``(report, relative_se, ess)`` of one pass from its chunks' ``_WeightSums``.

    The chunks combine in chunk order under their common maximum, each sum
    by ``math.fsum``, so a probability below double range keeps a finite
    ``log_p_hat`` and a relative standard error, even where ``p_hat``
    itself underflows to zero.  ``ess`` is the effective sample size
    ``(sum w)^2 / sum w^2``.  A pass without hits, with log-weights that
    are not finite, or with an estimate past double range gives a
    degenerate report, relative standard error ``inf`` and ``ess`` 0.
    The report's ``scaling_norm_sq`` is NaN; ``is_cones`` sets its rung's.
    """
    top = sums.top
    log_p = math.nan
    if math.isfinite(top):
        s1 = math.fsum(s for s, _ in sums.terms)
        s2 = math.fsum(sq for _, sq in sums.terms)
        log_p = top + math.log(s1 / samples)
    if not log_p < _LOG_MAX:
        report = EstimateReport(
            0.0, 0.0, -math.inf, samples, Method.IMPORTANCE_SAMPLED_SINGLE,
            seed, 1, math.nan, degenerate_weights=True,
        )
        return report, math.inf, 0.0
    p = math.exp(log_p)
    # var(w) / p^2 = E[w^2] / p^2 - 1, free of the common factor exp(top).
    relative_se = math.sqrt(max(s2 * samples / (s1 * s1) - 1.0, 0.0) / samples)
    report = EstimateReport(
        p, p * relative_se, log_p, samples, Method.IMPORTANCE_SAMPLED_SINGLE, seed, 1, math.nan
    )
    return report, relative_se, s1 * s1 / s2


def _doubling_chunks(cap: int, d: int) -> list[int]:
    """Chunk sizes of ``_importance_sample``, summing to ``cap``.

    They double from ``IS_FIRST_CHUNK`` up to ``IS_LARGEST_CHUNK``, or to
    ``CHUNK_SCALARS // d`` where that is smaller, then repeat that size.
    """
    largest = max(1, min(IS_LARGEST_CHUNK, CHUNK_SCALARS // d))
    sizes, size = [], min(IS_FIRST_CHUNK, largest)
    while cap > 0 and size < largest:
        sizes.append(min(size, cap))
        cap -= size
        size *= 2
    full, rest = divmod(max(cap, 0), largest)
    return sizes + [largest] * full + [rest] * (rest > 0)


def _importance_sample(
    model: GaussianModel,
    passes,
    cap: int,
    stream: RandomStream,
) -> tuple[tuple[EstimateReport, ...], tuple[dict, ...]]:
    """``(reports, records)``: importance sampling of ``(k, weigh)`` passes on one draw.

    Each pass is a proposal (``_cone_pass``) whose ``weigh(z0, exps)``
    gives the log-weights of one chunk's hits, in sample order.  Chunk
    ``i`` draws ``m`` standard normal vectors ``z0``, then standard
    exponentials ``exps`` as a ``(k_max, m)`` array, from
    ``stream.substream(i)``.  A pass with ``k`` rows reads the first ``k``
    and no pass writes to the draw, so a pass weighed alone gets the same
    bits.  Each live pass weighs the whole chunk, inline, and its hits'
    log-weights reduce to one chunk sum.  Chunk sizes
    (``_doubling_chunks``) depend only on ``(cap, d)``.  A pass stops at
    the first chunk, in chunk order, after which its relative standard
    error is at most ``IS_TARGET_RELATIVE_SE`` with at least
    ``IS_MIN_HITS`` hits, or at ``cap`` samples; the draw ends when every
    pass has stopped.  Each report is a single-vector row (``n = 1``)
    whose ``trials`` are the samples its pass used, and each record is
    ``{samples, hits, relative_se, effective_sample_size, target_met}``.
    """
    if cap < 1:
        raise ValueError(f"samples must be >= 1, got {cap}")
    d = model.dimension
    k_max = max((k for k, _ in passes), default=0)
    sums = [_WeightSums() for _ in passes]
    reports, records = [None] * len(passes), [None] * len(passes)
    live = list(range(len(passes)))
    drawn = 0
    for index, size in enumerate(_doubling_chunks(cap, d)):
        if not live:
            break
        drawn += size
        rng = stream.substream(index).generator()
        z0 = rng.standard_normal((size, d))
        exps = rng.standard_exponential((k_max, size))
        for j in live:
            sums[j].add(_log_weight_sums(passes[j][1](z0, exps)))
            reports[j], relative_se, ess = _weighed_report(sums[j], drawn, stream.seed)
            hits = sums[j].hits
            records[j] = {
                "samples": drawn,
                "hits": hits,
                "relative_se": relative_se,
                "effective_sample_size": ess,
                "target_met": relative_se <= IS_TARGET_RELATIVE_SE and hits >= IS_MIN_HITS,
            }
        live = [j for j in live if not records[j]["target_met"]]
    return tuple(reports), tuple(records)


class _Cone(NamedTuple):
    """The cone ``{z : rows @ z >= offsets}``, its ``k`` rows independent.

    ``mu = S^-1 offsets > 0``, with ``S = rows rows^T``, whose inverse is
    ``gram_inv`` and whose log determinant is ``log_det``.
    """

    rows: np.ndarray
    offsets: np.ndarray
    mu: np.ndarray
    gram_inv: np.ndarray
    log_det: float


def _cone(rows, offsets) -> _Cone:
    """The cone of ``rows @ z >= offsets`` on the rows kept, in order.

    A row is kept while the kept rows stay independent with positive ``mu
    = S^-1 offsets``.  Each candidate ``i`` borders the kept rows' ``S``
    with ``s = S[kept, i]`` and ``S_ii``; with ``t = S^-1 s``, the Schur
    complement ``c = S_ii - s^T t`` is the squared distance of row ``i``
    from the kept rows' span.  The row counts as dependent when ``c <= d
    eps S_ii``, ``d`` the dimension: rounding in ``S`` resolves no finer.
    Else the bordered ``mu`` is ``(mu - t m, m)``, ``m = (h_i - s^T mu) /
    c``, and the bordered inverse and ``log det S += log c`` follow.  The
    rows are few, so this runs on plain floats.
    """
    gram, h = (rows @ rows.T).tolist(), offsets.tolist()
    floor = rows.shape[1] * _EPS
    keep, inv, mu, log_det = [], [], [], 0.0
    for i, row in enumerate(gram):
        s = [row[j] for j in keep]
        t = [sum(a * b for a, b in zip(r, s)) for r in inv]
        c = row[i] - sum(a * b for a, b in zip(s, t))
        if c <= floor * row[i]:
            continue
        m = (h[i] - sum(a * b for a, b in zip(s, mu))) / c
        trial = [a - b * m for a, b in zip(mu, t)] + [m]
        if min(trial) > 0.0:
            inv = [[a + ti * tj / c for a, tj in zip(r, t)] + [-ti / c] for r, ti in zip(inv, t)]
            inv.append([-tj / c for tj in t] + [1.0 / c])
            keep.append(i)
            mu, log_det = trial, log_det + math.log(c)
    k = len(keep)
    return _Cone(rows[keep], offsets[keep], np.array(mu), np.array(inv).reshape(k, k), log_det)


def _plain_cone(d: int) -> _Cone:
    """The cone without rows, whose proposal is the plain draw of weight 1."""
    return _cone(np.zeros((0, d)), np.zeros(0))


def _active_cone(model: GaussianModel, target: ConvexSet, limit, entry: LadderEntry, x_star):
    """The active cone ``{z : rows @ z >= offsets}`` of a rung's scaled set (``_Cone``).

    ``z`` is the whitened frame ``A_n x = mean + C z``.  The cone's apex
    is ``z*``, the point of the scaled set nearest the mean: for a centred
    model ``C^-1 A_n x*``, else the solve from ``A_n^-1 mean``.  Its rows
    are the rows of ``_kkt_fit`` at ``z*`` with positive multipliers (an
    ellipsoid's one gradient row, so its supporting halfspace), the
    largest multipliers first, keeping a row only while the kept rows stay
    independent with positive ``mu = S^-1 offsets``, ``S = rows rows^T``
    (``_cone``).  The scaled set lies in the cone.  A mean in the scaled
    set, on its boundary to rounding or without an active row gives
    ``k = 0`` rows.
    """
    a = entry.scale_diag
    cov = model.covariance
    center = model.mean / a
    x = x_star
    if model.mean.any():
        try:
            x = _solve(target, cov, limit, center)[0]
        except NotAtypical:
            return _plain_cone(model.dimension)
    fit = _kkt_fit(target, cov, a, center, x)
    if fit is None:
        return _plain_cone(model.dimension)
    g, z_star, values, multipliers = fit
    order = sorted(np.flatnonzero(multipliers > 0.0), key=lambda i: -multipliers[i])
    return _cone(g[order], (g @ z_star - values)[order])


def _chord(model: GaussianModel, scaled: ConvexSet, cone: _Cone):
    """``(row, e, rows, offsets, pace)``: the direction a cone pass integrates exactly, or None.

    ``rows @ z >= offsets`` is ``scaled`` in the frame ``x = mean + C z``.
    With ``G`` the cone's rows, ``S = G G^T`` and ``P = I - G^T S^-1 G``
    the projection on their null space, a set row ``a`` moves along ``e``
    only through ``P a``; a row with ``|P a|^2 <= d eps |a|^2`` (``_cone``'s
    rounding floor) lies in the rows' span, and its slack does not change
    along any null-space direction.  Of the other rows, ``row`` is the one
    whose face is nearest the cone's apex ``G^T mu`` along its own
    null-space direction, the smallest ``slack(apex) / |P a|``, and ``e =
    P a / |P a|``.  ``pace`` holds each row's ``a.e``, the rate its slack
    changes along ``e``, set to 0 for the rows in the span.  None for a
    cone with no row or no null space (``k = 0`` or ``k = d``), a set
    without inequalities (an ellipsoid), or one whose every row lies in
    the cone rows' span (a halfspace).
    """
    k, d = len(cone.mu), model.dimension
    if not 0 < k < d or not hasattr(scaled, "inequalities"):
        return None
    rows, offsets = scaled.inequalities()
    a = rows @ model.covariance.chol_lower
    b = offsets - rows @ model.mean
    moved = a - (a @ cone.rows.T) @ (cone.gram_inv @ cone.rows)
    reach_sq = np.einsum("ij,ij->i", moved, moved)
    free = reach_sq > d * _EPS * np.einsum("ij,ij->i", a, a)
    if not free.any():
        return None
    reach = np.sqrt(reach_sq[free])
    depth = np.full(len(b), np.inf)
    depth[free] = (a[free] @ (cone.rows.T @ cone.mu) - b[free]) / reach
    row = int(np.argmin(depth))
    e = moved[row] / math.sqrt(reach_sq[row])
    return row, e, a, b, np.where(free, a @ e, 0.0)


def _chord_measure(chord):
    """``measure(z)``: each sample's chord along ``e``, and its normal mass in log space.

    ``chord`` is ``_chord``'s ``(row, e, rows, offsets, pace)``.  The
    line ``z - (z.e) e + xi e`` through a sample meets each row with
    ``pace > 0`` above a lower end and each row with ``pace < 0`` below an
    upper end, and intersecting them gives the chord ``[lo, hi]``; a row
    with ``pace = 0``, which includes every row in the cone rows' span,
    must hold at ``z`` itself, since its slack does not change along the
    line.
    ``measure`` returns the boolean mask of samples whose chord is not
    empty (``lo < hi``) and, for those, ``log(Phi(hi) - Phi(lo))``
    (``_log_ndtr_interval``).  Rows are sorted once into lower, upper and
    fixed ones.
    """
    _, e, a, b, pace = chord
    lower, upper = pace > 0.0, pace < 0.0
    order = np.concatenate([np.flatnonzero(lower), np.flatnonzero(upper)])
    lowers, moving = int(lower.sum()), len(order)
    order = np.concatenate([order, np.flatnonzero(~(lower | upper))])
    a, b, back = a[order], b[order], -pace[order[:moving], None]

    def measure(z):
        slack = a @ z.T
        slack -= b[:, None]
        hit = np.logical_and.reduce(slack[moving:] >= 0.0, axis=0)
        # The end of row r lies where its slack reaches 0: xi_z - slack_r / (a_r.e).
        ends = np.divide(slack[:moving], back, out=slack[:moving])
        ends += z @ e
        lo = np.maximum.reduce(ends[:lowers], axis=0)
        hi = np.minimum.reduce(ends[lowers:], axis=0, initial=np.inf)
        hit &= lo < hi
        return hit, _log_ndtr_interval(lo[hit], hi[hit])

    return measure


def _cone_pass(model: GaussianModel, scaled: ConvexSet, cone: _Cone, chord):
    """``(k, weigh)``: the cone proposal of ``scaled`` inside ``cone``.

    The cone is ``{z : G z >= h}`` (``_cone``) in the frame ``x = mean +
    C z``, with ``k`` rows, ``S = G G^T`` and ``mu = S^-1 h > 0``.  The
    proposal draws ``u = G z = h + E / mu``, ``E ~ Exp(1)^k`` the first
    ``k`` rows of ``exps``, and standard normals in the null space of
    ``G``: ``z = z0 + G^T S^-1 (u - G z0)``.  A hit weighs ``log w = -u^T
    S^-1 u / 2 - log det(2 pi S) / 2 - sum log mu + sum E``; outside the
    cone the target density is 0, so the estimate is unbiased.  With ``k
    = 0`` it is a plain draw of weight 1.

    ``chord`` is ``_chord(model, scaled, cone)``, which the caller computes
    once and may record.  When it is not None (a linear set with a row
    outside the cone rows' span), the pass integrates one null-space
    coordinate exactly instead of testing the sample (conditional Monte
    Carlo; Asmussen & Glynn, *Stochastic Simulation*, 2007, V.4).  Along the
    unit direction ``e`` of the face nearest the apex, ``xi = z.e = z0.e``
    is standard normal and independent of ``u`` and of the rest of ``z``,
    and the weight depends on ``u`` alone, so replacing the hit indicator by
    its conditional mean ``Phi(hi) - Phi(lo)``, ``[lo, hi]`` the sample's
    chord along ``e`` (``_chord_measure``), keeps the estimate unbiased, can
    only lower its variance, keeps every weight at most the bound of ``log
    w`` with ``E = 0``, and draws nothing more.  A hit is then a sample
    whose chord is not empty.
    """
    rows, offsets, mu, gram_inv, log_det = cone
    if not (mu > 0.0).all():
        raise ValueError("a cone needs positive mu = S^-1 offsets")
    k = len(mu)
    constant = -0.5 * log_det - float(np.log(mu).sum()) - k * _HALF_LOG_2PI
    if chord is None:
        contains, measure = scaled.whitened(model.mean, model.covariance.chol_lower), None
    else:
        measure = _chord_measure(chord)
    lift = gram_inv @ rows

    def weigh(z0, exps) -> np.ndarray:
        e = exps[:k]
        u = e / mu[:, None]
        u += offsets[:, None]
        gap = u - rows @ z0.T
        z = gap.T @ lift
        z += z0
        if measure is None:
            hit = contains(z)
        else:
            hit, log_mass = measure(z)
        u = np.compress(hit, u, axis=1)
        lw = np.compress(hit, e, axis=1).sum(axis=0)
        lw -= 0.5 * np.einsum("ij,ij->j", u, gram_inv @ u)
        lw += constant
        if measure is not None:
            lw += log_mass
        return lw

    return k, weigh


def is_cones(
    model: GaussianModel, target: ConvexSet, limit, x_star, rungs, samples: int,
    stream: RandomStream,
) -> tuple[list[EstimateReport], list[dict]]:
    """``(reports, records)``: cone importance sampling of ladder rungs on one draw.

    ``rungs`` is a list of ``(entry, active)`` pairs.  An active rung
    draws from its active cone (``_active_cone``, from ``x_star`` under
    ``limit``), any other from the plain draw, the cone without rows
    (``_plain_cone``); each is weighed on its own scaled set
    (``_cone_pass``), with its chord (``_chord``) computed once.
    ``_importance_sample`` weighs all of them on one draw from
    ``stream``, capped at ``samples``, inline; an empty ``rungs`` draws
    nothing.  Each report carries its rung's speed as ``scaling_norm_sq``,
    and each record adds its cone's row count, ``active_rows``, and
    ``chord_row``, the index of the set row whose direction its pass
    integrates exactly, or None.  A mixture raises ``TypeError`` unless
    ``rungs`` is empty.
    """
    if rungs and not isinstance(model, GaussianModel):
        raise TypeError("importance sampling requires a single Gaussian model")
    d = model.dimension
    cones = [
        _active_cone(model, target, limit, e, x_star) if active else _plain_cone(d)
        for e, active in rungs
    ]
    scaled = [target.scale(e.scale_diag) for e, _ in rungs]
    chords = [_chord(model, s, c) for s, c in zip(scaled, cones)]
    passes = [_cone_pass(model, *job) for job in zip(scaled, cones, chords)]
    reports, records = _importance_sample(model, passes, samples, stream)
    return (
        [replace(r, scaling_norm_sq=e.speed) for (e, _), r in zip(rungs, reports)],
        [
            {"active_rows": len(c.offsets), "chord_row": None if h is None else h[0], **r}
            for c, h, r in zip(cones, chords, records)
        ],
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


def _log_ndtr_interval(lo, hi) -> np.ndarray:
    """``log(Phi(hi) - Phi(lo))`` per element, for ``lo < hi``, to a few ulps relative.

    By symmetry the interval is taken as ``[a, b]`` with ``a + b >= 0``
    (``[-hi, -lo]`` when ``lo + hi < 0``), so its mass lies mostly above
    0, and one of three forms applies, each without cancellation:

    * narrow, half-width ``h <= 1`` and ``m h <= 1`` about the midpoint
      ``m``: ``phi(m) (b - a)`` times the mean of ``exp(-m s - s^2 / 2)``
      over ``s`` in ``[-h, h]``, by 12-point Gauss-Legendre, whose error
      is below 1e-15 relative there; this covers ends one ulp apart, where
      any difference of two tails cancels;
    * upper, ``a >= 0``: ``log Phi_bar(a) + log(1 - Phi_bar(b) /
      Phi_bar(a))``; outside the narrow case the log ratio is below -1.5;
    * straddling 0: ``log(1 - Phi(a) - Phi_bar(b))``, where outside the
      narrow case ``[a, b]`` holds ``[0, 1]``, so the two tails sum to at
      most 0.66, each ``erfc(|end| / sqrt 2) / 2``, relatively accurate
      and 0 at an infinite end.

    Only the upper form takes logs of tails, by ``_log_ndtr`` at its finite
    ends; the straddling form, most chords of a cone pass, calls
    ``math.erfc`` alone, a third of ``_log_ndtr``'s cost an element.
    """
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    flip = hi < -lo
    a, b = np.where(flip, -hi, lo), np.where(flip, -lo, hi)
    half = 0.5 * (b - a)
    narrow = half <= 1.0
    narrow[narrow] = (a[narrow] + half[narrow]) * half[narrow] <= 1.0
    upper = ~narrow & (a >= 0.0)
    straddle = ~(narrow | upper)
    out = np.empty(a.shape)
    if narrow.any():
        nodes, weights = _legendre_rule()
        h = half[narrow]
        m = a[narrow] + h
        mean = np.exp(-(m * h)[:, None] * nodes - (0.5 * h * h)[:, None] * nodes**2)
        mean = (mean * (0.5 * weights)).sum(axis=1)
        out[narrow] = np.log(mean) + np.log(b[narrow] - a[narrow]) - 0.5 * m * m - _HALF_LOG_2PI
    if upper.any():
        log_a = _log_ndtr(-a[upper])
        log_b = np.full(len(log_a), -np.inf)
        finite = b[upper] < np.inf
        log_b[finite] = _log_ndtr(-b[upper][finite])
        out[upper] = log_a + np.log(-np.expm1(log_b - log_a))
    if straddle.any():
        tails = _erfc(-_SQRT1_2 * a[straddle]) + _erfc(_SQRT1_2 * b[straddle])
        out[straddle] = np.log1p(-0.5 * tails)
    return out


_erfc = np.vectorize(math.erfc, otypes=[float])


@functools.cache
def _legendre_rule() -> tuple[np.ndarray, np.ndarray]:
    """The 12-point Gauss-Legendre rule on ``[-1, 1]`` of ``_log_ndtr_interval``, made once."""
    return np.polynomial.legendre.leggauss(12)


def union_combined_report(single: EstimateReport, n: int, scaling_norm_sq: float) -> EstimateReport:
    """Lift a single-vector estimate to the at-least-one event over n draws.

    The standard error propagates through the derivative
    ``n (1 - q)**(n - 1)`` of the combining identity.  An importance-sampled
    ``q`` above 1 (unbiased, but past the probability range) saturates the
    row at ``p = 1`` with standard error 0.
    """
    q = min(single.p_hat, 1.0)
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
    if (values == values[0]).all():
        # Exact, where polyfit would return a rounding-noise slope.
        slope, intercept = 0.0, values[0]
    else:
        slope, intercept = np.polyfit(speeds, values, 1)
    fitted = slope * speeds + intercept
    ss_res = float(((values - fitted) ** 2).sum())
    ss_tot = float(((values - values.mean()) ** 2).sum())
    # ss_tot vanishes only on equal values, which fit exactly.
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0
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
