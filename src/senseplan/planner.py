"""Sequential measurement planning over a fixed candidate set.

Each episode starts from the prior, then repeats for a fixed horizon:
pick a candidate location (greedily by expected information gain, or
uniformly at random), take one noisy reading there, fold it into the
measurement log, and score the posterior over the target set, whose one
conditioning per step also scores the next greedy decision.  Episodes are
deterministic given the scenario seed; noise and planner randomness come
from separate substreams so paired comparisons stay paired.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    InvalidInputError,
    NumericalDegeneracyError,
    PlanningError,
    SensorPlanError,
)
from .gp import (
    GaussianBelief,
    KernelSpec,
    MeanSpec,
    MeasurementLog,
    as_points,
    _symmetrize,
    predictive_moments,
)
from .environment import GroundTruthField, noisy_reading
from .infogain import _explained_share
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


def _no_usable_gain(count: int) -> PlanningError:
    message = f"none of the {count} candidates produced a usable gain score"
    return PlanningError(message, failed_candidates=list(range(count)))


def _greedy_choice(kernel: KernelSpec, noise_sd: float, var, cross) -> tuple[int, np.ndarray]:
    """Index of the highest-gain candidate, and every candidate's gain.

    The gain is the reading's mutual information with the targets,
    ``-0.5 * log1p(-rho)``, with ``rho`` from
    :func:`~senseplan.infogain._explained_share` on the moments ``var`` and
    ``cross``.  Degenerate candidates gain ``-inf``; scores within
    ``TIE_RTOL`` of the best tie, lowest index first.
    """
    try:
        share = _explained_share(kernel, noise_sd, var, cross)
    except NumericalDegeneracyError:
        raise _no_usable_gain(len(var) - len(cross)) from None
    if np.all(np.isnan(share)):
        raise _no_usable_gain(len(share))
    gains = np.where(np.isnan(share), -math.inf, -0.5 * np.log1p(-share))
    return int(np.flatnonzero(gains >= (1.0 - TIE_RTOL) * gains.max())[0]), gains


def _greedy_on_log(mean: MeanSpec, kernel: KernelSpec, log: MeasurementLog, candidates, targets):
    """:func:`_greedy_choice` on one conditioning of ``log``; a Gram matrix
    that cannot be factorized fails every candidate."""
    try:
        _, var, cross = predictive_moments(mean, kernel, log, np.vstack([targets, candidates]), len(targets))
    except NumericalDegeneracyError:
        raise _no_usable_gain(len(candidates)) from None
    return _greedy_choice(kernel, log.noise_sd, var, cross)


def greedy_select(
    mean: MeanSpec,
    kernel: KernelSpec,
    log: MeasurementLog,
    candidates,
    targets,
) -> tuple[np.ndarray, float]:
    """Location of the highest-gain candidate, and its score."""
    cands, pts = as_points(candidates), as_points(targets)
    if len(cands) == 0 or len(pts) == 0:
        raise InvalidInputError("candidates and targets must be nonempty")
    idx, gains = _greedy_on_log(mean, kernel, log, cands, pts)
    return cands[idx], float(gains[idx])


def random_select(candidates, rng: np.random.Generator) -> np.ndarray:
    """Uniformly drawn candidate location."""
    cands = as_points(candidates)
    if len(cands) == 0:
        raise InvalidInputError("candidate set must be nonempty")
    return cands[int(rng.integers(len(cands)))]


def run_episode(config: ScenarioConfig, fld: GroundTruthField) -> EpisodeTrace:
    """Play one full episode of ``config.horizon`` measurements.

    The truth over targets and candidates is read once, up front, so a
    point outside the field's region raises FieldDomainError before the
    first step.  Numerical or planning failures later abort the episode;
    the raised error carries the completed steps as ``exc.partial_trace``.
    """
    planner_idx = PLANNER_KINDS.index(config.planner_kind)
    noise_rng = substream(config.seed, STREAM_NOISE, config.trial_index, planner_idx)
    planner_rng = substream(config.seed, STREAM_PLANNER, config.trial_index, planner_idx)

    greedy = config.planner_kind == "greedy-edg"
    targets = config.targets
    n = len(targets)
    both = np.vstack([targets, config.candidates])
    points = both if greedy else targets
    truth_t, truth_c = np.split(fld.values(both), [n])
    try:
        shared_t, _ = intersection_indices(targets, config.candidates)
    except InvalidInputError:
        shared_t = None

    log = MeasurementLog.empty(config.noise_sd)
    steps: list[EpisodeStep] = []
    mu, var, cross = predictive_moments(config.mean, config.kernel, log, points, n)
    try:
        for k in range(1, config.horizon + 1):
            if greedy:
                idx, gains = _greedy_choice(config.kernel, config.noise_sd, var, cross)
                score = gains[idx]
            else:
                idx = int(planner_rng.integers(len(config.candidates)))
                score = math.nan
            location = config.candidates[idx]
            reading = noisy_reading(truth_c[idx], config.noise_sd, noise_rng)
            log = log.append(location, reading)
            mu, var, cross = predictive_moments(config.mean, config.kernel, log, points, n)

            mu_t, var_t = mu[:n], cross[:, :n].diagonal()
            if shared_t is not None:
                err_i = estimating_error(mu_t[shared_t], truth_t[shared_t])
                var_i = estimating_variance(var_t[shared_t])
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
                    error=estimating_error(mu_t, truth_t),
                    variance=estimating_variance(var_t),
                    error_shared=err_i,
                    variance_shared=var_i,
                    rmse=rmse(mu_t, truth_t),
                )
            )
    except SensorPlanError as exc:
        exc.partial_trace = _trace(config, steps, mu, cross)
        raise
    return _trace(config, steps, mu, cross)


def _trace(config: ScenarioConfig, steps: list, mu: np.ndarray, cross: np.ndarray) -> EpisodeTrace:
    """Trace whose final belief is the target block of the last moments."""
    n = len(config.targets)
    belief = GaussianBelief(config.targets, mu[:n], _symmetrize(cross[:, :n])) if steps else None
    return EpisodeTrace(config=config, steps=tuple(steps), final_belief=belief)
