"""Monte-Carlo outage estimation.

Each realization draws the interferer point processes on every lane of a
finite road segment, thins them by the Aloha access probability, attaches
unit-mean exponential power fades, draws the gamma signal fade, and checks
the resulting SIR against the threshold.

The engine works on fixed blocks of _BLOCK trials, each driven by its own
PCG64DXSM stream seeded by SeedSequence((master_seed mod 2**64,
block_index)).  Within a block every draw is vectorized: per lane, one call
draws all the trials' interferer counts with the Aloha thinning folded in
(Poisson(p * lambda * 2 * half_length)), positions and fades are drawn in
slices of at most _SLICE interferers, and np.bincount reduces the received
powers per trial.

Runs that differ only in their channel and SIR threshold share their
draws (common random numbers): estimates() groups its (scenario, seed)
runs by their interferer field, equal Scenario.lanes() and p, and runs
each group once, under the seed of its first run.  A group's blocks draw
the field once, form each interferer's squared distance once, and sum the
received power once per distinct path-loss exponent; each distinct signal
fading (m, mu) takes one gamma draw per block, in order of first
appearance, and each scenario makes its own SIR decision.  estimate() is
a run of one, so the first run of a group gets the very numbers it gets
alone.

With workers > 1, estimates() forks one pool of worker processes for all
its groups, at most one per block and per CPU, and maps each group's
blocks over it, one contiguous range of blocks per worker.  It stops the
pool before it returns.  A worker that dies leaves its blocks to this
process.  The estimate is bit-identical for any worker count.

Only the total interference from both roads decides an outage, so the
engine carries one interference sum per trial over all lanes, each lane in
the frame of Scenario.lanes(): an interferer at along-lane coordinate u is
at squared distance (u - c)^2 + h^2 from the destination.

The per-trial functions (trial_rng, sample_interferers, _aggregate,
outage_from_interference) simulate one realization at a time, with a
stream per trial keyed like a block's.  They are the small reference
oracle the tests check the block engine against.
"""

from __future__ import annotations

import math
import os
import warnings
from collections.abc import Sequence
from contextlib import nullcontext
from dataclasses import dataclass, replace
from itertools import repeat
from statistics import NormalDist

import numpy as np

from .model import Lane, Scenario

_MASK64 = (1 << 64) - 1
_BLOCK = 1024  # trials per work unit; fixed so reductions never reorder
# Interferers drawn per vectorized slice.  Small enough that a slice's
# temporaries stay well under a megabyte, large enough to amortize the
# per-call numpy overhead.
_SLICE = 8192
#: Largest mean numpy's Poisson sampler takes (its POISSON_LAM_MAX).
_POISSON_MAX = float(np.iinfo(np.int64).max) - 10.0 * math.sqrt(
    np.iinfo(np.int64).max)


@dataclass(frozen=True)
class SimConfig:
    """Simulation protocol: realization count, road extent, seeding."""

    trials: int = 50_000
    half_length: float = 1000.0   # road half-extent around the intersection, m
    master_seed: int = 0
    confidence: float = 0.95

    def __post_init__(self):
        for name in ("trials", "master_seed"):
            value = getattr(self, name)
            if (isinstance(value, bool)
                    or not isinstance(value, (int, np.integer))):
                raise ValueError(f"{name} must be an integer")
            object.__setattr__(self, name, int(value))
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not (0.0 < self.half_length < math.inf):
            raise ValueError("half_length must be positive and finite")
        # The interval's normal quantile is taken at (1 + confidence)/2,
        # which rounds to 1 for the largest doubles below 1.
        if not (0.0 < self.confidence and 0.5 * (1.0 + self.confidence) < 1.0):
            raise ValueError("confidence must lie in (0, 1)")


@dataclass(frozen=True)
class OutageEstimate:
    """Point estimate of the outage probability with its uncertainty."""

    p_hat: float
    stderr: float
    ci_low: float
    ci_high: float
    trials: int
    excluded_interferers: int = 0


def _stream(master_seed: int, index: int) -> np.random.Generator:
    """PCG64DXSM generator keyed by (master_seed, index).  SeedSequence
    takes nonnegative entropy only, so the seed enters modulo 2**64: -1 and
    2**64 - 1 name the same streams."""
    seq = np.random.SeedSequence((master_seed & _MASK64, index))
    return np.random.Generator(np.random.PCG64DXSM(seq))


def trial_rng(master_seed: int, trial_index: int) -> np.random.Generator:
    """Generator for one trial, keyed by (seed, trial index)."""
    return _stream(master_seed, trial_index)


def sample_interferers(lane: Lane, sim: SimConfig,
                       rng: np.random.Generator) -> np.ndarray:
    """Along-lane coordinates of one lane's interferers for one realization.

    Draws N ~ Poisson(lambda * 2 * half_length) points placed uniformly on
    the lane segment centered on the intersection.
    """
    half = sim.half_length
    n = rng.poisson(lane.intensity * 2.0 * half)
    return rng.uniform(-half, half, n)


def _aggregate(scenario: Scenario, sim: SimConfig,
               rng: np.random.Generator) -> tuple[float, int]:
    """(interference, excluded) for one realization.

    Per lane, in layout order: sample the point process, keep each point
    with probability p, attach an exponential fade, convert to received
    power through the path loss.  Interferers landing exactly on D have
    an undefined path loss and are dropped (and counted).
    """
    alpha = scenario.channel.alpha
    total = 0.0
    excluded = 0
    for lane in scenario.lanes():
        along = sample_interferers(lane, sim, rng)
        along = along[rng.random(len(along)) < scenario.p]
        fades = rng.exponential(1.0, len(along))
        with np.errstate(over="ignore"):     # beyond the float range: inf
            dist_sq = (along - lane.c) * (along - lane.c) + lane.h * lane.h
        at_dest = dist_sq == 0.0
        if at_dest.any():
            excluded += int(at_dest.sum())
            fades, dist_sq = fades[~at_dest], dist_sq[~at_dest]
        total += float(np.sum(fades * dist_sq ** (-0.5 * alpha)))
    return total, excluded


def outage_from_interference(scenario: Scenario, signal_fade: float,
                             interference: float) -> bool:
    """SIR < Theta decision given a drawn signal fade and interference.

    Zero interference means infinite SIR, never an outage; an exact tie
    with the threshold counts as success.
    """
    if interference == 0.0:
        return False
    sir = signal_fade * scenario.link_path_loss / interference
    return sir < scenario.theta_threshold


def _received_power(fades: np.ndarray, dist_sq: np.ndarray,
                    alpha: float) -> np.ndarray:
    """fades * dist**-alpha from squared distances; alpha 2 and 4 avoid pow."""
    if alpha == 2.0:
        return fades / dist_sq
    if alpha == 4.0:
        with np.errstate(over="ignore"):     # beyond the float range: inf
            return fades / (dist_sq * dist_sq)
    return fades * dist_sq ** (-0.5 * alpha)


def _slice_interference(lane: Lane, alphas: list[float], along: np.ndarray,
                        fades: np.ndarray, owner: np.ndarray, n_trials: int
                        ) -> tuple[list[np.ndarray], int]:
    """Received power per trial from one slice of a lane's interferers,
    one array per path-loss exponent in `alphas`.

    `along` holds the interferers' coordinates along the lane, `fades`
    their power fades and `owner` the trial (0 .. n_trials-1) each belongs
    to.  Interferers exactly on D have an undefined path loss; they are
    dropped and returned as the exclusion count.  A squared distance beyond
    the float range is inf, which receives zero power.
    """
    dist_sq = along - lane.c
    with np.errstate(over="ignore"):
        dist_sq *= dist_sq
    dist_sq += lane.h * lane.h
    at_dest = dist_sq == 0.0
    excluded = int(np.count_nonzero(at_dest))
    if excluded:
        keep = ~at_dest
        dist_sq, fades, owner = dist_sq[keep], fades[keep], owner[keep]
    return [np.bincount(owner, weights=_received_power(fades, dist_sq, alpha),
                        minlength=n_trials) for alpha in alphas], excluded


def _slices(counts: np.ndarray):
    """(lo, hi, n): consecutive trial ranges [lo, hi) holding n <= _SLICE
    interferers in all.  A trial with more than _SLICE forms its own range."""
    ends = np.cumsum(counts)
    lo = base = 0
    while lo < len(counts):
        hi = max(int(np.searchsorted(ends, base + _SLICE, side="right")),
                 lo + 1)
        top = int(ends[hi - 1])
        yield lo, hi, top - base
        lo, base = hi, top


def _block_interference(scenarios: tuple[Scenario, ...], sim: SimConfig,
                        rng: np.random.Generator, count: int
                        ) -> tuple[tuple[np.ndarray, ...], int]:
    """(interference of each scenario, excluded) for `count` realizations
    drawn from `rng` in the interferer field the scenarios share.

    Per lane, in layout order: all trials' Aloha-thinned interferer counts
    in one Poisson draw, then positions and fades slice by slice.
    Scenarios with one path-loss exponent share one array.
    """
    first = scenarios[0]
    alphas = list(dict.fromkeys(sc.channel.alpha for sc in scenarios))
    half = sim.half_length
    totals = np.zeros((len(alphas), count))
    excluded = 0
    for lane in first.lanes():
        mean = first.p * lane.intensity * 2.0 * half
        if not mean <= _POISSON_MAX:
            raise ValueError(
                f"a lane's mean interferer count per trial, p * lambda * 2 * "
                f"half_length = {mean:g}, is beyond the Poisson sampler's "
                f"range ({_POISSON_MAX:g})")
        counts = rng.poisson(mean, count)
        for lo, hi, n in _slices(counts):
            if n == 0:
                continue
            owner = np.repeat(np.arange(hi - lo), counts[lo:hi])
            # Bit for bit the draws of uniform(-half, half, n) and
            # exponential(1.0, n), without their per-call parameter handling.
            along = rng.random(n)
            along *= 2.0 * half
            along -= half
            fades = rng.standard_exponential(n)
            powers, ex = _slice_interference(lane, alphas, along, fades,
                                             owner, hi - lo)
            for total, power in zip(totals, powers):
                total[lo:hi] += power
            excluded += ex
    return tuple(totals[alphas.index(sc.channel.alpha)]
                 for sc in scenarios), excluded


def _outage_events(scenario: Scenario, signal_fades: np.ndarray,
                   interference: np.ndarray) -> np.ndarray:
    """Elementwise outage_from_interference over arrays of trials."""
    with np.errstate(divide="ignore", invalid="ignore"):
        # Zero interference gives an SIR of inf (nan for a zero signal
        # fade); neither compares below the threshold, so neither fails.
        sir = signal_fades * scenario.link_path_loss / interference
    return sir < scenario.theta_threshold


def _run_block(scenarios: tuple[Scenario, ...], sim: SimConfig, start: int,
               count: int) -> tuple[tuple[int, ...], int]:
    """(Outage count of each scenario, exclusion count) over trials
    [start, start + count) of scenarios that share their interferer field.

    The range must be (a prefix of) one fixed block: its draws come from
    the block's own stream, keyed by (master_seed, start // _BLOCK).  After
    the interference, each distinct (m, mu) draws its signal fades, in the
    order the scenarios first name it.
    """
    if start % _BLOCK or not 0 < count <= _BLOCK:
        raise ValueError(f"trials [{start}, {start + count}) are not a "
                         f"prefix of one {_BLOCK}-trial block")
    rng = _stream(sim.master_seed, start // _BLOCK)
    interference, excluded = _block_interference(scenarios, sim, rng, count)
    signal = {}
    for sc in scenarios:
        ch = sc.channel
        if (ch.m, ch.mu) not in signal:
            signal[ch.m, ch.mu] = rng.gamma(ch.m, ch.mu / ch.m, count)
    return tuple(int(np.count_nonzero(_outage_events(
        sc, signal[sc.channel.m, sc.channel.mu], power)))
        for sc, power in zip(scenarios, interference)), excluded


def _confidence_interval(count: int, trials: int,
                         confidence: float) -> tuple[float, float]:
    """Normal interval, switching to Wilson near the 0/1 boundaries where
    the normal approximation is unusable."""
    z = NormalDist().inv_cdf(0.5 * (1.0 + confidence))
    p = count / trials
    if min(count, trials - count) < 10:
        denom = 1.0 + z * z / trials
        center = (p + z * z / (2.0 * trials)) / denom
        half = (z / denom) * math.sqrt(p * (1.0 - p) / trials
                                       + z * z / (4.0 * trials * trials))
        low, high = center - half, center + half
    else:
        se = math.sqrt(p * (1.0 - p) / trials)
        low, high = p - z * se, p + z * se
    # Clamp away rounding dust so the interval always brackets p.
    return min(max(low, 0.0), p), max(min(high, 1.0), p)


def _fork_pool(processes: int):
    """A pool of `processes` workers for _run_block, all forked at its first
    map, so they see the modules as they were then; the caller stops it."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor(
        processes, mp_context=multiprocessing.get_context("fork"))


def estimate(scenario: Scenario, sim: SimConfig,
             workers: int = 1) -> OutageEstimate:
    """Outage probability averaged over sim.trials realizations, seeded by
    sim.master_seed: a run of one (estimates).  Raises the run's error."""
    [result] = estimates([(scenario, sim.master_seed)], sim, workers)
    if isinstance(result, Exception):
        raise result
    return result


def estimates(runs: Sequence[tuple[Scenario, int]], sim: SimConfig,
              workers: int = 1) -> list[OutageEstimate | Exception]:
    """The estimate, or the error, of each (scenario, seed) run.

    Runs whose scenarios share their interferer field (equal lanes() and
    p; they differ at most in channel and SIR threshold) form a group that
    runs once, from one set of draws, under the seed of its first run.
    That run's estimate equals its estimate alone; the others see the same
    interferers, and the same signal fades where their (m, mu) is the same.

    Trials are split into fixed blocks, mapped through _run_block in order.
    With workers > 1 and more than one block, one pool of
    min(workers, blocks, os.cpu_count()) processes serves every group of
    the call, each process one contiguous range of a group's blocks; a
    broken pool (a worker died) leaves the blocks to this process.  Counts
    are integers, so the reduction is exact and the result does not depend
    on the worker count.  Interferers exactly at D are dropped, with one
    warning per group.  A group that raises ValueError, ArithmeticError or
    MemoryError gets the error as the result of each of its runs.
    """
    groups: dict[tuple, list[int]] = {}
    for i, (scenario, _) in enumerate(runs):
        groups.setdefault((tuple(scenario.lanes()), scenario.p),
                          []).append(i)
    starts = range(0, sim.trials, _BLOCK)
    sizes = [min(_BLOCK, sim.trials - start) for start in starts]
    ranges = min(workers, len(starts), os.cpu_count() or 1)
    results: list = [None] * len(runs)
    with (_fork_pool(ranges) if ranges > 1 else nullcontext()) as pool:
        for members in groups.values():
            blocks = (_run_block, repeat(tuple(runs[i][0] for i in members)),
                      repeat(replace(sim, master_seed=runs[members[0]][1])),
                      starts, sizes)
            try:
                if pool is None:
                    counts = list(map(*blocks))
                else:
                    from concurrent.futures import BrokenExecutor
                    try:
                        counts = list(pool.map(
                            *blocks, chunksize=-(-len(starts) // ranges)))
                    except BrokenExecutor:
                        counts = list(map(*blocks))  # blocks are deterministic
            except (ValueError, ArithmeticError, MemoryError) as exc:
                for i in members:
                    results[i] = exc
                continue
            excluded = sum(ex for _, ex in counts)
            if excluded:
                warnings.warn(f"excluded {excluded} interferer(s) located "
                              "exactly at the destination", RuntimeWarning,
                              stacklevel=2)
            for i, column in zip(members, zip(*(outages
                                                for outages, _ in counts))):
                results[i] = _outage_estimate(sum(column), sim, excluded)
    return results


def _outage_estimate(outages: int, sim: SimConfig,
                     excluded: int) -> OutageEstimate:
    p_hat = outages / sim.trials
    stderr = math.sqrt(p_hat * (1.0 - p_hat) / sim.trials)
    ci_low, ci_high = _confidence_interval(outages, sim.trials,
                                           sim.confidence)
    return OutageEstimate(
        p_hat=p_hat,
        stderr=stderr,
        ci_low=ci_low,
        ci_high=ci_high,
        trials=sim.trials,
        excluded_interferers=excluded,
    )
