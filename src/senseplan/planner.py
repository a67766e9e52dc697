"""Sequential measurement planning over a fixed candidate set.

Each episode starts from the prior, then repeats for a fixed horizon:
pick a candidate location (greedily by expected information gain, or
uniformly at random), take one noisy reading there, append its row to
the Gram-factor rows the episode carries over targets and candidates,
and keep the targets' posterior variances.  A greedy episode also
carries the candidates' variances given the targets' values; the next
decision scores each candidate from its two variances.  Neither planner
reads the values read, so the targets' means at every step are replayed
from the kept rows once the loop ends, and every step is scored from
them into the step object that run.json prints.  No step conditions on
the whole log afresh.
Episodes are deterministic given the scenario seed; noise and planner
randomness come from separate substreams so paired comparisons stay
paired.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import InvalidInputError, PlanningError, SensorPlanError
from .gp import (
    GaussianBelief,
    KernelSpec,
    MeanSpec,
    MeasurementLog,
    as_points,
    kernel_matrix,
    _CarriedRows,
    _clamped,
    _finite,
    _integer_at_least,
    _sorted_first,
    _targets_after,
    _variance_pair,
)
from .environment import GroundTruthField
from .infogain import _explained_share
from .metrics import intersection_indices
from .seeding import STREAM_NOISE, STREAM_PLANNER, substream

#: Recognized planner kinds, in the order used for seed derivation.
PLANNER_KINDS = ("greedy-edg", "random")

TIE_RTOL = 1e-10  #: Greedy scores within this fraction of the best are tied.


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    """Everything needed to reproduce one planning episode.

    ``seed`` is the run-level master seed; ``trial_index`` and the
    planner kind select the episode's noise and planner substreams, so
    two planners on the same trial share the field but draw independent
    measurement noise.
    """

    targets: np.ndarray
    candidates: np.ndarray
    noise_sd: float
    horizon: int
    kernel: KernelSpec
    mean: MeanSpec
    planner_kind: str
    seed: int
    trial_index: int = 0

    def __post_init__(self):
        targets = as_points(self.targets)
        candidates = as_points(self.candidates)
        if len(targets) == 0 or len(candidates) == 0:
            raise InvalidInputError("targets and candidates must be nonempty")
        if self.planner_kind not in PLANNER_KINDS:
            raise InvalidInputError(
                f"unknown planner kind {self.planner_kind!r}; choose from {PLANNER_KINDS}"
            )
        if not _integer_at_least(self.horizon, 1):
            raise InvalidInputError("horizon must be an integer >= 1")
        if not (_integer_at_least(self.seed, 0) and _integer_at_least(self.trial_index, 0)):
            raise InvalidInputError("seed and trial_index must be integers >= 0")
        if not (_finite(self.noise_sd) and self.noise_sd >= 0):
            raise InvalidInputError("noise_sd must be finite and >= 0")
        if not isinstance(self.kernel, KernelSpec) or not isinstance(self.mean, MeanSpec):
            raise InvalidInputError("kernel and mean must be KernelSpec and MeanSpec")
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "candidates", candidates)
        object.__setattr__(self, "noise_sd", float(self.noise_sd))
        object.__setattr__(self, "horizon", int(self.horizon))
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "trial_index", int(self.trial_index))


@dataclass(frozen=True, eq=False)
class EpisodeTrace:
    """Steps of one episode, each the step object run.json prints, plus the
    belief after the final measurement."""

    config: ScenarioConfig
    steps: tuple[dict, ...]
    final_belief: Optional[GaussianBelief] = field(default=None, repr=False)


def _greedy_choice(kernel: KernelSpec, noise_sd: float, var, explained) -> tuple[int, np.ndarray]:
    """Index of the highest-gain candidate, and every candidate's gain.

    The gain is the reading's mutual information with the targets,
    ``-0.5 * log1p(-rho)``, with ``rho`` from
    :func:`~senseplan.infogain._explained_share` on the candidates'
    noise-free variances ``var`` given the log and the parts ``explained``
    of them that the targets' values would remove.  ``O(C)`` for ``C``
    candidates.  Degenerate candidates gain ``-inf``; scores within
    ``TIE_RTOL`` of the best tie, lowest index first.
    """
    share = _explained_share(kernel, noise_sd, var, explained)
    if np.all(np.isnan(share)):
        count = len(share)
        message = f"none of the {count} candidates produced a usable gain score"
        raise PlanningError(message, failed_candidates=list(range(count)))
    gains = np.where(np.isnan(share), -math.inf, -0.5 * np.log1p(-share))
    return int(np.flatnonzero(gains >= (1.0 - TIE_RTOL) * gains.max())[0]), gains


def greedy_select(kernel: KernelSpec, log: MeasurementLog, candidates, targets) -> tuple[np.ndarray, float]:
    """Location of the highest-gain candidate, and its score."""
    cands, pts = as_points(candidates), as_points(targets)
    if len(cands) == 0 or len(pts) == 0:
        raise InvalidInputError("candidates and targets must be nonempty")
    idx, gains = _greedy_choice(kernel, log.noise_sd, *_variance_pair(kernel, log, pts, cands))
    return cands[idx], float(gains[idx])


def run_episode(config: ScenarioConfig, fld: GroundTruthField) -> EpisodeTrace:
    """Play one full episode of ``config.horizon`` measurements.

    The truth over targets and candidates is read once, up front, so a
    point outside the field's region raises FieldDomainError before the
    first step.  The episode's noise draws (none at zero noise) and the
    random planner's picks are taken up front too, one call each; on
    PCG64 they are the draws one call per step would make.  The loop only
    decides, appends rows and keeps each step's target variances, with one
    kernel row per distinct pick; the means are replayed and the steps
    scored after it, by :func:`_trace`.  Numerical or planning failures
    abort the episode; the raised error carries the completed steps as
    ``exc.partial_trace``.
    """
    planner_idx = PLANNER_KINDS.index(config.planner_kind)
    noise_rng = substream(config.seed, STREAM_NOISE, config.trial_index, planner_idx)
    planner_rng = substream(config.seed, STREAM_PLANNER, config.trial_index, planner_idx)

    greedy = config.planner_kind == "greedy-edg"
    targets, H = config.targets, config.horizon
    n = len(targets)
    points = np.vstack([targets, config.candidates])
    truth_t, truth_c = np.split(fld.values(points), [n])
    truth_c = truth_c.tolist()
    noise = noise_rng.normal(0.0, config.noise_sd, size=H).tolist() if config.noise_sd else None
    picks = None if greedy else planner_rng.integers(len(config.candidates), size=H).tolist()

    state = _CarriedRows(config.kernel, points, H)
    chosen, scores, readings, kernel_rows = [], [], [], {}
    variances = np.empty((H, n))
    try:
        if greedy:
            # The candidates' variances given the targets' values, then the readings.
            given = _targets_after(config.kernel, _sorted_first(targets, config.candidates), n)
            known = _CarriedRows(config.kernel, config.candidates, H, given.W[: given.k, n:], given.var[n:])
        for k in range(H):
            if greedy:
                v = _clamped(config.kernel, state.var[n:])
                idx, gains = _greedy_choice(config.kernel, config.noise_sd, v, v - known.var)
                scores.append(float(gains[idx]))
            else:
                idx = picks[k]
            if (row := kernel_rows.get(idx)) is None:
                row = kernel_rows[idx] = kernel_matrix(config.kernel, points[n + idx : n + idx + 1], points)[0]
            # Nothing below raises: a step is complete once its row is pushed.
            state._push(n + idx, row, config.noise_sd**2, config.kernel.jitter)
            if greedy:
                known._push(idx, row[n:], config.noise_sd**2, config.kernel.jitter)
            variances[k] = state.var[:n]
            chosen.append(idx)
            readings.append(truth_c[idx] if noise is None else truth_c[idx] + noise[k])
    except SensorPlanError as exc:
        exc.partial_trace = _trace(config, state, truth_t, chosen, scores, readings, variances)
        raise
    return _trace(config, state, truth_t, chosen, scores, readings, variances)


def _steps(config: ScenarioConfig, truth_t, chosen, scores, readings, means, variances) -> list:
    """The step object run.json prints for each of the ``K`` complete steps
    in ``chosen``, scored from the target means (``K`` rows, turned into
    residuals in place) and variances (the first ``K`` rows) after each.

    Each row is scored as one step's vector would be: the norm is
    ``sqrt(r @ r)`` of a contiguous row, a mean variance its row sum over
    its length.  The shared targets' columns are copied contiguous first,
    so their rows sum and dot as fresh vectors do.  A column that has no
    value is None throughout: ``score`` for the random planner (``scores``
    is empty), the ``_shared`` ones when no target is a candidate.
    """
    n, K = len(truth_t), len(chosen)
    residual, variances = np.subtract(means, truth_t, out=means), variances[:K]
    norm = _row_norms(residual)
    error_shared = variance_shared = [None] * K
    try:
        shared_t, _ = intersection_indices(config.targets, config.candidates)
    except InvalidInputError:
        pass
    else:
        r_s = np.ascontiguousarray(residual[:, shared_t])
        error_shared = (_row_norms(r_s) / len(shared_t)).tolist()
        variance_shared = (np.ascontiguousarray(variances[:, shared_t]).sum(axis=1) / len(shared_t)).tolist()
    return [
        {
            "step": k,
            "chosen_index": idx,
            "chosen": xy,
            "score": score,
            "measurement": reading,
            "error": err,
            "variance": var,
            "error_shared": err_i,
            "variance_shared": var_i,
            "rmse": rmse,
        }
        for k, idx, xy, score, reading, err, var, err_i, var_i, rmse in zip(
            range(1, K + 1),
            chosen,
            config.candidates[chosen].tolist(),
            scores[:K] if scores else [None] * K,
            readings,
            (norm / n).tolist(),
            (variances.sum(axis=1) / n).tolist(),
            error_shared,
            variance_shared,
            (norm / math.sqrt(n)).tolist(),
        )
    ]


def _row_norms(R: np.ndarray) -> np.ndarray:
    """``sqrt(r @ r)`` of each row ``r`` of a C-contiguous ``R``, a batch of
    row-by-column products with the bits of one ``r @ r`` each."""
    return np.sqrt((R[:, None, :] @ R[:, :, None])[:, 0, 0])


def _trace(config: ScenarioConfig, state: _CarriedRows, truth_t, chosen, scores, readings, variances) -> EpisodeTrace:
    """Trace of the steps in ``chosen``, scored by :func:`_steps` from the
    targets' means that one replay of ``readings`` gives for every step.
    The final belief has the last means and ``K(T, T) - W_T' W_T`` over
    the targets, with diagonal ``var[:n]``."""
    if not chosen:
        return EpisodeTrace(config=config, steps=())
    n = len(config.targets)
    means, after = state._means(config.mean.constant, readings, n)
    steps = _steps(config, truth_t, chosen, scores, readings, means[after], variances)
    W_t = state.W[: state.k, :n]
    cov = kernel_matrix(config.kernel, config.targets, config.targets) - W_t.T @ W_t
    np.fill_diagonal(cov, state.var[:n])
    belief = GaussianBelief(config.targets, means[-1], cov)
    return EpisodeTrace(config=config, steps=tuple(steps), final_belief=belief)
