"""Sequential measurement planning over a fixed candidate set.

Each episode starts from the prior, then repeats for a fixed horizon:
pick a candidate location (greedily by expected information gain, or
uniformly at random), take one noisy reading there, fold it into the
measurement log, and score the posterior over the target set.  Episodes
are deterministic given the scenario seed; noise and planner randomness
come from separate substreams so paired comparisons stay paired.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg import solve_triangular

from .errors import (
    InvalidInputError,
    NumericalDegeneracyError,
    PlanningError,
    SensorPlanError,
)
from .gp import (
    JITTER_LADDER,
    GaussianBelief,
    KernelSpec,
    MeanSpec,
    MeasurementLog,
    as_points,
    jittered_cholesky,
    posterior,
    predictive_moments,
)
from .environment import GroundTruthField, field_value, measure
from .metrics import (
    estimating_error,
    estimating_variance,
    intersection_indices,
    rmse,
)
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
        if not (isinstance(self.horizon, (int, np.integer)) and self.horizon >= 1):
            raise InvalidInputError("horizon must be an integer >= 1")
        if not (np.isfinite(self.noise_sd) and self.noise_sd >= 0):
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
class EpisodeStep:
    """Record of one measurement and the belief scored right after it."""

    index: int
    chosen_index: int
    chosen: tuple[float, float]
    score: float
    measurement: float
    error: float
    variance: float
    error_shared: float
    variance_shared: float
    rmse: float


@dataclass(frozen=True, eq=False)
class EpisodeTrace:
    """Steps of one episode plus the belief after the final measurement."""

    config: ScenarioConfig
    steps: tuple[EpisodeStep, ...]
    final_belief: Optional[GaussianBelief] = field(default=None, repr=False)


def _greedy_choice(
    mean: MeanSpec,
    kernel: KernelSpec,
    log: MeasurementLog,
    candidates: np.ndarray,
    targets: np.ndarray,
) -> tuple[int, np.ndarray]:
    """Index of the highest-gain candidate, and every candidate's gain.

    The gain is the reading's mutual information with the targets,
    ``-0.5 * log1p(-g' S^-1 g / v)`` (target covariance ``S``, cross-covariance
    ``g``, reading variance ``v``).  One conditioning on the log, over the
    targets followed by the candidates, gives ``S`` as the target block of its
    cross-covariance with the targets and ``g`` and ``v`` as the candidate
    block.  ``v`` and ``v - g' S^-1 g`` are floored at ``JITTER_LADDER[0]`` of
    the prior variance so noise-free readings score finite.  Degenerate
    candidates gain ``-inf``; scores within ``TIE_RTOL`` of the best tie,
    lowest index first.
    """
    n = len(targets)
    try:
        _, var, cross = predictive_moments(mean, kernel, log, np.vstack([targets, candidates]), targets)
        L, _ = jittered_cholesky(cross[:, :n])
        var_f, cross = var[n:], cross[:, n:]
    except NumericalDegeneracyError:
        var_f = np.full(len(candidates), np.nan)
    failed = np.flatnonzero(np.isnan(var_f)).tolist()
    if len(failed) == len(candidates):
        raise PlanningError(
            f"none of the {len(failed)} candidates produced a usable gain score",
            failed_candidates=failed,
        )
    floor = JITTER_LADDER[0] * kernel.signal_variance
    v = np.maximum(var_f + log.noise_sd**2, floor)
    explained = np.minimum(np.sum(solve_triangular(L, cross, lower=True) ** 2, axis=0), v - floor)
    gains = np.where(np.isnan(v), -math.inf, -0.5 * np.log1p(-explained / v))
    return int(np.flatnonzero(gains >= (1.0 - TIE_RTOL) * gains.max())[0]), gains


def greedy_select(
    mean: MeanSpec,
    kernel: KernelSpec,
    log: MeasurementLog,
    candidates,
    targets,
) -> tuple[np.ndarray, float]:
    """Location of the highest-gain candidate, and its score."""
    cands = as_points(candidates)
    if len(cands) == 0:
        raise InvalidInputError("candidate set must be nonempty")
    idx, gains = _greedy_choice(mean, kernel, log, cands, as_points(targets))
    return cands[idx], float(gains[idx])


def random_select(candidates, rng: np.random.Generator) -> np.ndarray:
    """Uniformly drawn candidate location."""
    cands = as_points(candidates)
    if len(cands) == 0:
        raise InvalidInputError("candidate set must be nonempty")
    return cands[int(rng.integers(len(cands)))]


def run_episode(config: ScenarioConfig, fld: GroundTruthField) -> EpisodeTrace:
    """Play one full episode of ``config.horizon`` measurements.

    Numerical or planning failures abort the episode; the raised error
    carries the completed steps as ``exc.partial_trace``.
    """
    planner_idx = PLANNER_KINDS.index(config.planner_kind)
    noise_rng = substream(config.seed, STREAM_NOISE, config.trial_index, planner_idx)
    planner_rng = substream(config.seed, STREAM_PLANNER, config.trial_index, planner_idx)

    targets = config.targets
    truth = np.array([field_value(fld, pt) for pt in targets])
    try:
        shared_t, _ = intersection_indices(targets, config.candidates)
    except InvalidInputError:
        shared_t = None

    log = MeasurementLog.empty(config.noise_sd)
    steps: list[EpisodeStep] = []
    belief: Optional[GaussianBelief] = None
    try:
        for k in range(1, config.horizon + 1):
            if config.planner_kind == "greedy-edg":
                idx, gains = _greedy_choice(
                    config.mean, config.kernel, log, config.candidates, targets
                )
                score = gains[idx]
            else:
                idx = int(planner_rng.integers(len(config.candidates)))
                score = math.nan
            location = config.candidates[idx]
            reading = measure(fld, location, config.noise_sd, noise_rng)
            log = log.append(location, reading)
            belief = posterior(config.mean, config.kernel, log, targets)

            err = estimating_error(belief.mean, truth)
            var = estimating_variance(belief.cov)
            if shared_t is not None:
                err_i = estimating_error(belief.mean[shared_t], truth[shared_t])
                var_i = estimating_variance(belief.cov[np.ix_(shared_t, shared_t)])
            else:
                err_i = math.nan
                var_i = math.nan
            steps.append(
                EpisodeStep(
                    index=k,
                    chosen_index=idx,
                    chosen=(float(location[0]), float(location[1])),
                    score=float(score),
                    measurement=float(reading),
                    error=err,
                    variance=var,
                    error_shared=err_i,
                    variance_shared=var_i,
                    rmse=rmse(belief.mean, truth),
                )
            )
    except SensorPlanError as exc:
        exc.partial_trace = EpisodeTrace(
            config=config, steps=tuple(steps), final_belief=belief
        )
        raise
    return EpisodeTrace(config=config, steps=tuple(steps), final_belief=belief)
