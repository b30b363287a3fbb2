"""Agent-based lifetime simulation of the heart population.

Each agent carries a fading value (delta E) that grows linearly at an
agent-specific rate k drawn from a normal distribution. Weekly repainting
events reset selected agents to zero under one of four strategies, and
each replicate keeps one running total of its repaints, not one per agent.
Replicates advance together in blocks, each one (replicates, agents)
population, a week at a time: delta E is read only on the weekly grid and
on the horizon day, so each recorded interval adds k·days once. Each
replicate consumes its own random stream derived deterministically from
(master_seed, replicate index), so results do not depend on how
replicates are grouped or ordered. A row draws from its stream only when
it has more candidates than capacity; a forced pick (every candidate fits)
takes all of them and draws nothing. A block takes its draws from the one
chooser `_draws` builds for it: RANDOM_A's and THRESHOLD_C's draws computed
from each stream's raw words where that is exact and faster (RANDOM_A's a
chunk of weeks at once), or else one `Generator.choice` per row-week. Both
give the same numbers in the same order and consume the same words, so
the stream contract (0.2.0) is unchanged. A run that cannot repaint stops
stepping once every agent is above the threshold (rates are positive, so
none can fall back below it); the outputs are the same as stepping on to
the horizon. Nor does THRESHOLD_C skipping its candidate pass while no
agent can be above the threshold change an output. A run steps every block
in its calling process; only a sweep forks, one worker per usable CPU. The
step functions (`init_population`, `advance_day`, `repaint_event`) are
internal but stay module-level, one call per row, interval or repaint
week, for a tracer.
"""

from __future__ import annotations

import math
import numbers
import os
import pickle
from collections.abc import Sequence
from dataclasses import asdict, dataclass, replace
from enum import Enum
from pathlib import Path

import numpy as np

from ._text import json_object

__all__ = [
    "Strategy",
    "SimConfig",
    "ConfigError",
    "SimResult",
    "SweepRow",
    "run_simulation",
    "sweep_fractions",
    "paint1_config",
    "paint2_config",
]

_MASK64 = (1 << 64) - 1

# stream labels for the two k-envelope bounding runs; replicate indices
# are small non-negative integers so these cannot collide
_ENVELOPE_LO_STREAM = 1 << 32
_ENVELOPE_HI_STREAM = (1 << 32) + 1

# replicates are simulated in blocks of at most this many agent cells
# (replicates x agents), which bounds memory for large populations; the
# presets fit in one block
_BLOCK_CELLS = 1 << 20
# and of at most this many replicates: each row also holds its own
# Generator (~1.2 KiB), which the cell budget does not count
_BLOCK_ROWS = 4096
# RANDOM_A takes raw words where a (row-weeks x agents) bool mask of this
# many bytes, about 5 weeks of 50 x 1000 agents, holds as many row-weeks as
# slots, drawing 2 such chunks at once; streams are read ahead as many bytes
_DRAW_BYTES = 1 << 18
# one replicate's row must fit in a block
_MAX_AGENTS = _BLOCK_CELLS
# replicates x recorded days: each (replicates, days) output array of
# float64 stays within 128 MiB; a run at the cap (1 agent) peaked at 424 MiB
_MAX_OUTPUT_CELLS = 1 << 24
# replicates x agents x days, the work of a run: about 14 minutes at the
# slowest throughput measured (1.4e9 agent-days/s, GREEDY_B at 5%, 2 vCPUs)
_MAX_AGENT_DAYS = 1 << 40

# one row per numeric field, checked in this order: (name, integer or else
# a finite real, low bound or None, low bound excluded, high bound or None);
# a field with an excluded low bound has a high bound
_FIELD_RULES = (
    ("n_agents", True, 1, False, _MAX_AGENTS),
    ("horizon_days", True, 1, False, None),
    ("replicates", True, 1, False, None),
    ("master_seed", True, None, False, None),
    ("k_mean", False, 0, True, 1000),  # delta E per day, so k·days stays finite
    ("k_sd", False, 0, False, 1000),
    ("initial_spread_max", False, 0, False, None),
    ("perception_threshold", False, None, False, None),
    ("repaint_fraction_weekly", False, 0, False, 1),
)


class ConfigError(ValueError):
    """Invalid simulation configuration; message names the field."""


class Strategy(str, Enum):
    BASELINE = "baseline"  # no intervention
    RANDOM_A = "random_a"  # uniform choice, fading state ignored
    GREEDY_B = "greedy_b"  # most faded first, ties to lowest index
    THRESHOLD_C = "threshold_c"  # uniform choice among visibly faded


@dataclass
class Population:
    """A block's agent state: (replicates, agents) arrays, and each row's
    repaint total and last count above the threshold, (replicates,) each."""

    delta_e: np.ndarray
    k: np.ndarray
    repaint_count: np.ndarray
    above: np.ndarray | None = None


@dataclass(frozen=True)
class SimConfig:
    k_mean: float  # delta E per day
    k_sd: float = 0.0
    n_agents: int = 1000
    horizon_days: int = 6000
    initial_spread_max: float = 5.0
    perception_threshold: float = 10.0
    strategy: Strategy = Strategy.BASELINE
    repaint_fraction_weekly: float = 0.0
    replicates: int = 100
    master_seed: int = 42
    uncertainty_mode: str = "montecarlo"  # or "envelope"

    def __post_init__(self) -> None:
        """Check every field, a type error before any range error, on each
        SimConfig(...) and replace(...); a strategy name becomes its Strategy."""
        try:
            object.__setattr__(self, "strategy", Strategy(self.strategy))
        except ValueError:
            raise ConfigError(f"unknown strategy {self.strategy!r}") from None
        out_of_range = None  # the first, raised once every type has passed
        for name, integer, low, low_open, high in _FIELD_RULES:
            value = getattr(self, name)
            try:
                ok = isinstance(value, numbers.Integral if integer else numbers.Real)
                ok = ok and not isinstance(value, bool)
                ok = ok and (integer or math.isfinite(value))
            except OverflowError:  # an int too large for a float
                ok = False
            if not ok:
                what = "an integer" if integer else "a finite number"
                raise ConfigError(f"{name} must be {what}, got {value!r}")
            if out_of_range or low is None:
                continue
            above_low = low < value if low_open else low <= value
            if not above_low or (high is not None and value > high):
                bracket = "(" if low_open else "["
                bound = f">= {low}" if high is None else f"in {bracket}{low}, {high}]"
                out_of_range = f"{name} must be {bound}, got {value}"
        if out_of_range:
            raise ConfigError(out_of_range)
        work = (self.replicates, self.n_agents, self.horizon_days)
        if math.prod(work) > _MAX_AGENT_DAYS:
            raise ConfigError(
                f"replicates x n_agents x horizon_days must be <= {_MAX_AGENT_DAYS}, "
                "got {} x {} x {}".format(*work)
            )
        days = _recorded_day_count(self.horizon_days)
        if self.replicates * days > _MAX_OUTPUT_CELLS:
            raise ConfigError(
                f"replicates x recorded days must be <= {_MAX_OUTPUT_CELLS}, "
                f"got {self.replicates} x {days}"
            )
        if self.uncertainty_mode not in ("montecarlo", "envelope"):
            raise ConfigError(
                "uncertainty_mode must be 'montecarlo' or 'envelope', "
                f"got {self.uncertainty_mode!r}"
            )

    def to_dict(self) -> dict:
        d = asdict(self)
        d["strategy"] = self.strategy.value
        return d

    @classmethod
    def from_json(cls, text: str | bytes, **fields) -> "SimConfig":
        """The config in a JSON object of its fields, read by
        `_text.json_object`. Each of `fields` replaces (or supplies) the
        document's value before the config is built, so an overridden value
        is never checked."""
        d = json_object(text, ConfigError, "JSON config")
        d.update(fields)
        unknown = set(d) - set(cls.__dataclass_fields__)
        if unknown:
            names = ", ".join(map(repr, sorted(unknown)))
            raise ConfigError(f"unknown config field(s): {names}")
        try:
            return cls(**d)
        except TypeError as exc:
            raise ConfigError(str(exc)) from None


@dataclass
class SimResult:
    """Weekly-recorded population trajectory with uncertainty bands."""

    config: SimConfig
    days: np.ndarray  # recorded day indices, day 0 included
    frac_by_rep: np.ndarray  # (replicates, len(days)) fraction above threshold
    cum_repaints_by_rep: np.ndarray  # (replicates, len(days)) cumulative counts
    mean_frac: np.ndarray
    lo_frac: np.ndarray
    hi_frac: np.ndarray
    mean_cum_repaints: np.ndarray

    def frac_at(self, day: int) -> float:
        """Mean fraction above threshold at the latest recorded day <= day."""
        idx = int(np.searchsorted(self.days, day, side="right")) - 1
        if idx < 0:
            raise ValueError(f"no recorded day at or before {day}")
        return float(self.mean_frac[idx])


@dataclass(frozen=True)
class SweepRow:
    repaint_fraction_weekly: float
    strategy: Strategy
    frac_needing_repaint_at_horizon: float
    total_repaints_at_horizon: float


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def derive_stream_seed(master_seed: int, stream_index: int) -> int:
    """64-bit seed of the given stream: splitmix64 of the master seed
    xored with the mixed stream index."""
    return _splitmix64((master_seed & _MASK64) ^ _splitmix64(stream_index & _MASK64))


def _stream(master_seed: int, stream_index: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.PCG64(derive_stream_seed(master_seed, stream_index))
    )


def init_population(
    cfg: SimConfig, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """One stream's fresh agents as (delta_e, k), each (agents,): rates
    Normal(k_mean, k_sd) truncated to k >= k_mean/100 by redrawing, then
    initial fading Uniform[0, spread]."""
    n = cfg.n_agents
    k_min = cfg.k_mean / 100.0
    k = rng.normal(cfg.k_mean, cfg.k_sd, size=n)
    while True:
        bad = k < k_min
        if not bad.any():
            break
        k[bad] = rng.normal(cfg.k_mean, cfg.k_sd, size=int(bad.sum()))
    return rng.uniform(0.0, cfg.initial_spread_max, size=n), k


def advance_day(
    pop: Population, days: int = 1, step: np.ndarray | None = None
) -> Population:
    """`days` days of linear fading: delta_e grows by k·days, added once.

    One add of k·days can differ from `days` adds of k by a few ulps.
    `step`, if given, must already hold k·days; the engine passes the same
    k·7 buffer every week instead of multiplying again.
    """
    pop.delta_e += pop.k * days if step is None else step
    return pop


def weekly_capacity(cfg: SimConfig) -> int:
    return int(round(cfg.repaint_fraction_weekly * cfg.n_agents))


def repaint_event(
    pop: Population, strategy: Strategy, capacity: int, threshold: float, choose
) -> int:
    """Apply one weekly repainting event to a block; returns the number
    repainted, summed over its rows.

    Each row repaints up to `capacity` agents: RANDOM_A uniformly at
    random, GREEDY_B the most faded (ties to the lowest index, as a stable
    sort would order them), THRESHOLD_C uniformly among the agents above
    `threshold`. A row's candidates are all its agents for RANDOM_A and its
    agents above `threshold` for THRESHOLD_C. A forced row, with m <=
    `capacity` candidates, repaints all m and draws nothing. A row with
    m > `capacity` repaints the candidates at the positions that its
    stream's `choice(m, capacity, replace=False)` picks in its ascending
    candidate list. `choose(rows, start, m)`, the block's chooser from
    `_draws`, gives those positions, offset by `start`, for each listed
    row. Selected agents are reset to delta_e +0.0 in place, whatever the
    strides: GREEDY_B's by multiplying delta_e (finite, >= 0) with the mask
    of the agents it keeps (_kept), the others' by their flat positions.
    Each row's count is added to its total in `repaint_count`. THRESHOLD_C
    also sets `pop.above` to each row's count above `threshold` after the
    repaint, from its own candidate pass: m less the row's repaints, or m
    for a negative threshold, which a repainted agent at 0 is still above.
    """
    if strategy is Strategy.BASELINE or capacity == 0:
        return 0
    delta_e = pop.delta_e
    rows, n = delta_e.shape
    counts = min(capacity, n)  # each row's repaints
    if strategy is Strategy.GREEDY_B:
        np.multiply(delta_e, _kept(delta_e, counts), out=delta_e)
        pop.repaint_count += counts
        return rows * counts
    # picked agents as row-major positions in the (rows, agents) view
    if strategy is Strategy.RANDOM_A:
        if n <= capacity:
            picked = np.arange(rows * n)
        else:
            every = np.arange(rows)
            picked = choose(every, every * n, np.full(rows, n)).ravel()
    else:  # THRESHOLD_C
        picked = np.flatnonzero(delta_e > threshold)
        # row i's m[i] candidates are picked[edges[i] : edges[i + 1]]
        edges = np.searchsorted(picked, np.arange(0, rows * n + 1, n))
        start, m = edges[:-1], edges[1:] - edges[:-1]
        counts = np.minimum(m, capacity)
        pop.above = m - counts if threshold >= 0 else m
        over = np.flatnonzero(m > capacity)
        if over.size:
            # forced rows keep every candidate, the others what they draw
            keep = np.repeat(m <= capacity, m)
            keep[choose(over, start[over], m[over])] = True
            picked = picked[keep]
    delta_e.put(picked, 0.0)  # flat positions, whatever the strides
    pop.repaint_count += counts
    return int(picked.size)


class _Words:
    """Each row's stream read ahead as the 32-bit words numpy's bounded
    draws take (PCG64: each 64-bit output's low half first), and those
    draws computed from them, at most `size` words a call. A refill makes
    one `random_raw` call per row, into _DRAW_BYTES or `size` + 1 words. A
    stream must hold no cached 32-bit half when first read (`init_population`
    draws whole words), and must not draw again once read ahead."""

    def __init__(self, rngs: Sequence[np.random.Generator], size: int):
        width = max(size + 1, _DRAW_BYTES // (4 * len(rngs)))
        self.rngs, self.buf = rngs, np.empty((len(rngs), width), dtype=np.uint32)
        self.pos = np.full(len(rngs), width, dtype=np.intp)  # each row's next word

    def bounded(self, rows: np.ndarray, bounds: np.ndarray, keep: np.ndarray) -> np.ndarray:
        """`Generator.integers(0, bounds)` from each of the distinct `rows`:
        the columns `keep` (ascending) of the (len(rows), L) draws for
        bounds of shape (L,) or (len(rows), L), each in [2, 2^32], though
        every word is still drawn and tested. Lemire's method, as
        numpy's `random_bounded_uint64` runs it: the high half of word * b,
        unless the low half is below (2^32 - b) % b, about once in 10^7
        draws at the engine's bounds; the word is then skipped."""
        size = np.shape(bounds)[-1]
        bounds = np.asarray(bounds, dtype=np.uint64)
        short = rows[self.buf.shape[1] - self.pos[rows] < size]
        if short.size:
            self._refill(short)
        start = self.pos[rows]
        rows_read, width = self.buf.shape  # each row's runs of `size` 4-byte words
        runs = np.lib.stride_tricks.as_strided(
            self.buf, (rows_read, width - size + 1, size), self.buf.strides + (4,)
        )
        low = runs[rows, start]  # the words, then their products' low halves
        kept = low[:, keep]
        # a wrapping uint32 multiply gives the low halves (b = 2^32 wraps to 0,
        # as its low half does); a word fails if that is below (2^32 - b) % b < b
        low *= bounds.astype(np.uint32)
        near = np.flatnonzero(low < bounds)
        each = np.broadcast_to(bounds, low.shape)  # each row's bounds
        b = each.flat[near]
        failed = near[low.flat[near] < (2**32 - b) % b]
        del low
        self.pos[rows] = start + size
        prod = kept * bounds[..., keep]
        draws = np.right_shift(prod, 32, out=prod).view(np.int64)
        # a row's draws from its first rejected word on
        for j, f in {x // size: x % size for x in failed[::-1].tolist()}.items():
            self.pos[rows[j]] = start[j] + f + 1
            rest = keep >= f
            draws[j, rest] = self.bounded(rows[j : j + 1], each[j, f:], keep[rest] - f)
        return draws

    def _refill(self, rows) -> None:
        """Fill `rows` up: their unread words, then their streams' next outputs."""
        width = self.buf.shape[1]
        for i in rows:
            read, self.pos[i] = self.pos[i], self.pos[i] % 2  # unread: buf[i, read:]
            fill = read - self.pos[i]  # even: whole 64-bit outputs
            self.buf[i, self.pos[i] : width - fill] = self.buf[i, read:]
            raw = self.rngs[i].bit_generator.random_raw(fill // 2)
            self.buf[i, width - fill :] = raw.astype("<u8", copy=False).view("<u4")


def _floyd(words: _Words, c: int, rows: np.ndarray, start, m) -> np.ndarray:
    """The picks of `choice(m, c, replace=False)` for each of `rows` over
    len(start) // len(rows) weeks, drawn from `words`, as positions `start`
    + pick: (len(start), c), one row per row-week, each row's weeks in
    turn. On Floyd's side of numpy's cutoff (_draws), a row-week draws
    Floyd's m-c+1 ... m, then c ... 2 for a shuffle that only orders the
    picks; slot s takes its draw, or m-c+s if an earlier slot took that."""
    j = np.arange(2 * c - 1)
    bounds = np.where(j < c, np.asarray(m)[..., None] - c + 1 + j, 2 * c - j)
    weeks = len(start) // len(rows)
    # only the Floyd draws are kept: the shuffle's words are drawn and dropped
    floyd = (np.arange(weeks)[:, None] * j.size + j[:c]).ravel()
    picks = words.bounded(rows, np.tile(bounds, weeks), floyd).reshape(len(start), c)
    picks += start[:, None]
    taken = np.zeros(int(np.max(start + m)), dtype=bool)
    top = start + (m - c)
    for f in picks.T:
        np.copyto(f, top, where=taken.take(f))
        taken[f] = True
        top += 1
    return picks


def _draws(strategy: Strategy, rngs: Sequence, n: int, c: int, weeks: int):
    """The chooser `repaint_event` takes its picks from, for a block of
    `rngs`' rows of `n` agents at capacity `c` over `weeks` repaint weeks:
    `choose(rows, start, m)` gives, for each of the listed rows, `start`
    plus the picks of `choice(m, c, replace=False)` from its stream.

    It computes them from words only on Floyd's side of numpy's cutoff:
    past 10000 candidates, `choice` shuffles the tail of arange(m) instead
    when c > m // 50. A THRESHOLD_C row that draws has c < m <= n
    candidates, so m = 10001 is its worst case. Words take one Python step
    per slot, and one `choice` call per row-week costs about two, so they
    are used where each step covers enough row-weeks. RANDOM_A's picks do
    not depend on the population, so they are drawn two chunks of weeks
    ahead, where a chunk holds at least as many row-weeks as slots.
    THRESHOLD_C draws each week, only for its rows over capacity (some
    weeks few), where the capacity is at most half the rows. These two build
    one reader a block, as wide as its first call (no later one is wider).
    Every other block calls one `Generator.choice` per row-week of `rngs`.
    """
    rows = len(rngs)
    if strategy is Strategy.RANDOM_A and (n <= 10000 or c <= n // 50):
        chunk = max(1, min(weeks, 2 * _DRAW_BYTES // (rows * n)))
        if c <= max(1, min(weeks, _DRAW_BYTES // (rows * n))) * rows:
            words, every = _Words(rngs, chunk * (2 * c - 1)), np.arange(rows)

            def weekly():  # each week's (rows, c) flat positions, in turn
                for first in range(0, weeks, chunk):
                    size = min(chunk, weeks - first)
                    # row i's week w takes row i of week w's (rows, n) block
                    base = (every[:, None] + np.arange(size) * rows).ravel() * n
                    picks = _floyd(words, c, every, base, n).reshape(rows, size, c)
                    for week in range(size):
                        yield picks[:, week] - week * rows * n
                    del picks  # before the next chunk's draws

            picked = weekly()
            return lambda *_: next(picked)
    elif strategy is Strategy.THRESHOLD_C and (n <= 10000 or c <= 200):
        if 2 * c <= rows:
            words = _Words(rngs, 2 * c - 1)
            return lambda over, start, m: _floyd(words, c, over, start, m)

    def choice(over, start, m):  # one Generator.choice per row-week
        drawn = zip(over.tolist(), start.tolist(), m.tolist())
        return np.stack([s + rngs[i].choice(k, c, False) for i, s, k in drawn])

    return choice


def _kept(delta_e: np.ndarray, take: int) -> np.ndarray:
    """Mask of the agents other than the `take` largest values in each row,
    ties to the lowest index: the complement of the first `take` of a
    stable argsort of -delta_e. `take` must be in [1, agents]."""
    n = delta_e.shape[1]
    part = np.partition(delta_e, n - take, axis=1)
    kth = part[:, n - take, None]
    keep = delta_e < kth
    # a row tied below its k-th place keeps its highest-index tied agents
    tie = part[:, : n - take].max(axis=1) == kth[:, 0] if take < n else []
    for i in np.flatnonzero(tie):
        tied = np.flatnonzero(delta_e[i] == kth[i])
        keep[i, tied[take - n + np.count_nonzero(keep[i]) :]] = True
    return keep


def _recorded_day_count(horizon_days: int) -> int:
    """Weekly days from day 0, plus the horizon when it is off that grid."""
    return horizon_days // 7 + 1 + (horizon_days % 7 != 0)


def _recorded_days(horizon_days: int) -> np.ndarray:
    days = 7 * np.arange(_recorded_day_count(horizon_days), dtype=np.int64)
    days[-1] = horizon_days
    return days


def _simulate_block(
    cfg: SimConfig,
    stream_indices: Sequence[int],
    fracs: np.ndarray,
    cums: np.ndarray,
    k_override: Sequence[float] | None = None,
    horizon_only: bool = False,
) -> None:
    """Trajectories of the given streams advanced together as one
    (rows, agents) population, written into the caller's (rows, recorded
    days) `fracs` above threshold and cumulative repaints `cums`. k_override,
    one rate per row, pins every agent's rate in that row (envelope runs).
    `horizon_only` (for _summary) fills only the horizon column of a run
    that can repaint."""
    rows, n = len(stream_indices), cfg.n_agents
    rngs = [_stream(cfg.master_seed, i) for i in stream_indices]
    pop = Population(np.empty((rows, n)), np.empty((rows, n)), np.zeros(rows, np.int64))
    for i, rng in enumerate(rngs):
        pop.delta_e[i], pop.k[i] = init_population(cfg, rng)
    if k_override is not None:
        pop.k[:] = np.maximum(k_override, cfg.k_mean / 100.0)[:, None]
    capacity = weekly_capacity(cfg)
    threshold = cfg.perception_threshold
    choose = _draws(cfg.strategy, rngs, n, capacity, cfg.horizon_days // 7)
    # a run that cannot repaint is settled once every agent is above the
    # threshold: rates are positive, so delta_e never falls again
    settles = cfg.strategy is Strategy.BASELINE or capacity == 0
    counted = cfg.strategy is Strategy.THRESHOLD_C and not settles  # see repaint_event
    days = _recorded_days(cfg.horizon_days)
    step = pop.k * 7  # one week's fading, reused every week
    quiet, top, rise = counted, float(pop.delta_e.max()), float(step.max())
    gaps = np.diff(days, prepend=0).tolist()  # days since the last recorded day
    for col, (day, gap) in enumerate(zip(days.tolist(), gaps)):
        if gap:
            if gap != 7:  # the last interval, up to an off-grid horizon
                np.multiply(pop.k, gap, out=step)
            advance_day(pop, gap, step)
        repaints = day > 0 and day % 7 == 0
        if repaints:
            # while no agent can be above the threshold: w rounded adds of
            # terms >= 0 exceed their exact sum by at most (1 + 2^-53)^w
            w = day // 7
            quiet = quiet and (top + w * rise) * (1 + (w + 2) * 2**-52) < threshold
            if quiet:  # no candidate: nothing drawn or repainted
                pop.above = np.zeros(rows, np.int32)
            else:
                repaint_event(pop, cfg.strategy, capacity, threshold, choose)
        if horizon_only and not settles and day < cfg.horizon_days:
            continue  # a run that settles needs every week's count
        if not (repaints and counted):
            pop.above = np.add.reduce(
                (pop.delta_e > threshold).view(np.int8), axis=1, dtype=np.int32
            )
        # count / n is bit-equal to the mean of the boolean array
        fracs[:, col] = pop.above / n
        cums[:, col] = pop.repaint_count
        if settles and pop.above.min() == n:
            break  # the later columns keep the caller's 1.0 and 0 repaints


def _bands(frac: np.ndarray) -> list[np.ndarray]:
    """`np.percentile(frac, (2.5, 97.5), axis=0)` bit for bit, for values
    other than -0.0 and NaN: numpy's linear index, weight and two-sided
    lerp, but without its `np.unique` call, which imports numpy.ma."""
    ranked, top = np.sort(frac, axis=0), len(frac) - 1
    bands = []
    for v in (top * 0.025, top * 0.975):  # 2.5 / 100 and 97.5 / 100
        i = math.floor(v)
        a, b = ranked[i], ranked[min(i + 1, top)]
        d, t = b - a, v - i
        bands.append(a + d * t if t < 0.5 else b - d * (1 - t))
    return bands


def _trajectories(cfg: SimConfig, streams, k_override=None, horizon_only=False) -> tuple:
    """The (len(streams), recorded days) fractions above threshold and
    cumulative repaints of `streams`, allocated once as ones and zeros and
    filled in turn, here, by blocks of at most _BLOCK_CELLS agent cells and
    _BLOCK_ROWS rows; `k_override`, one rate per stream, is sliced with them."""
    days = _recorded_day_count(cfg.horizon_days)
    fracs, cums = np.ones((len(streams), days)), np.zeros((len(streams), days))
    per_block = max(1, min(_BLOCK_ROWS, _BLOCK_CELLS // cfg.n_agents))
    for start in range(0, len(streams), per_block):
        rows = slice(start, start + per_block)
        ks = None if k_override is None else k_override[rows]
        _simulate_block(cfg, streams[rows], fracs[rows], cums[rows], ks, horizon_only)
    return fracs, cums


def run_simulation(cfg: SimConfig) -> SimResult:
    """Run all replicates and aggregate trajectories with uncertainty bands.

    Replicates advance together as one (replicates, agents) population,
    each drawing from its own stream; they are taken in blocks of at most
    _BLOCK_CELLS agent cells and _BLOCK_ROWS replicates to bound memory.
    The population steps from one recorded day to the next (a week, or the
    remainder up to the horizon), adding k·days once per interval, and
    repaints on every seventh day; a row draws only when it has more
    candidates than the weekly capacity (see repaint_event), which counts
    THRESHOLD_C's agents above the threshold; other days take one mask.
    Monte Carlo mode takes the 2.5th/97.5th percentile across replicates,
    bit for bit `np.percentile`'s linear method (_bands); envelope
    mode takes two deterministic bounding runs, blocked the same way, every
    k of a row fixed at k_mean -/+ 2 k_sd. A block of a run that cannot
    repaint (BASELINE, or weekly capacity 0) stops stepping once every
    agent in it is above the threshold and records fraction 1.0 and no
    repaints for the remaining days, exactly what stepping on would give.
    Blocks step in turn, in the calling process, each into its output rows.
    """
    frac_by_rep, cum_by_rep = _trajectories(cfg, range(cfg.replicates))

    if cfg.uncertainty_mode == "montecarlo":
        lo, hi = _bands(frac_by_rep)
    else:
        ks = (cfg.k_mean - 2 * cfg.k_sd, cfg.k_mean + 2 * cfg.k_sd)  # one per row
        runs, _ = _trajectories(cfg, [_ENVELOPE_LO_STREAM, _ENVELOPE_HI_STREAM], ks)
        lo, hi = runs.min(axis=0), runs.max(axis=0)

    return SimResult(
        config=cfg,
        days=_recorded_days(cfg.horizon_days),
        frac_by_rep=frac_by_rep,
        cum_repaints_by_rep=cum_by_rep,
        mean_frac=frac_by_rep.mean(axis=0),
        lo_frac=lo,
        hi_frac=hi,
        mean_cum_repaints=cum_by_rep.mean(axis=0),
    )


def _summary(cfg: SimConfig) -> tuple[float, float]:
    """A sweep row's figures, `run_simulation(cfg)`'s mean_frac[-1] and
    mean_cum_repaints[-1] bit for bit (means of whole `_trajectories`, not
    of a column), counted at the horizon only, with no bands or envelope."""
    frac, cum = _trajectories(cfg, range(cfg.replicates), horizon_only=True)
    return float(frac.mean(axis=0)[-1]), float(cum.mean(axis=0)[-1])


def _cpus(root: str = "/") -> int:
    """CPUs this process may use (os.sched_getaffinity, else 1), capped by the
    quota of the cgroup at `root`/sys/fs/cgroup, rounded up: v2 cpu.max or v1
    cpu.cfs_quota_us ÷ cpu.cfs_period_us; "max", -1 or a bad file: no cap."""
    cpus = getattr(os, "sched_getaffinity", None)
    count = len(cpus(0)) if cpus else 1
    for files in ["cpu.max"], ["cpu/cpu.cfs_quota_us", "cpu/cpu.cfs_period_us"]:
        try:
            words = [Path(root, "sys/fs/cgroup", f).read_text().split() for f in files]
            quota, period = map(int, sum(words, []))
            count = min(count, -(-quota // period) if quota > 0 < period else count)
        except (OSError, ValueError):
            pass
    return count


def _forked(task, args: list) -> list:
    """`[task(*a) for a in args]` on a forked child per usable CPU (_cpus),
    at most one per task, while this process waits (with one CPU or task,
    they run here); sweep_fractions is its one caller. The children, all
    forked first, pull the indices from one pipe until it ends, then each
    pickles its (index, result) pairs, or its first exception, into its own
    pipe. Those are read as each child sends: the first exception sent is
    raised here, and a child that sends no whole result raises RuntimeError.
    Every child is killed and reaped."""
    workers = min(len(args), _cpus())
    if workers <= 1:
        return [task(*a) for a in args]  # with no import: a one-CPU sweep needs none
    import contextlib
    import ctypes
    import select
    import signal

    parent, children = os.getpid(), {}  # each child's pid, by its pipe
    ready = select.poll()  # select.select fails on descriptors >= 1024
    queue, feed = (open(fd, rw + "b", buffering=0) for fd, rw in zip(os.pipe(), "rw"))
    try:
        for _ in range(workers):
            read, write = os.pipe()
            if (pid := os.fork()) == 0:
                try:
                    feed.close()  # or no child would see the queue end
                    # PR_SET_PDEATHSIG: a child must not outlive its parent
                    ctypes.CDLL(None).prctl(1, signal.SIGKILL)
                    if os.getppid() != parent:  # the parent died before the call
                        os._exit(1)
                    done = []
                    try:
                        while index := queue.read(4):
                            i = int.from_bytes(index, "little")
                            done.append((i, task(*args[i])))
                        sent = pickle.dumps(done)
                    except BaseException as exc:
                        sent = pickle.dumps(exc)
                    with open(write, "wb") as pipe:
                        pipe.write(sent)
                finally:
                    os._exit(0)  # the pipe stays empty if nothing was sent
            os.close(write)
            children[read] = pid
            ready.register(read, select.POLLIN)
        queue.close()  # a write with every child ended then fails
        # writes of at most 512 bytes (POSIX's least PIPE_BUF) are atomic,
        # so each 4-byte read takes one whole index
        indices = b"".join(i.to_bytes(4, "little") for i in range(len(args)))
        with feed, contextlib.suppress(BrokenPipeError):  # each child's pipe says why
            feed.writelines(indices[i : i + 512] for i in range(0, len(indices), 512))
        results = {}
        for _ in children:  # a child sends only once its tasks are done
            pipe = ready.poll()[0][0]
            ready.unregister(pipe)
            try:
                sent = pickle.loads(open(pipe, "rb", closefd=False).read())
            except (pickle.UnpicklingError, EOFError):  # nothing, or cut short
                sent = RuntimeError("a sweep worker ended without its results")
            if isinstance(sent, BaseException):
                raise sent
            results.update(sent)
        return [results[i] for i in range(len(args))]
    finally:
        queue.close()
        feed.close()
        for pipe, pid in children.items():  # sent all it will, or is not waited for
            os.close(pipe)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def sweep_fractions(
    cfg_base: SimConfig, fractions: list[float], horizon_days: int | None = None
) -> list[SweepRow]:
    """Decision sweep: each repaint fraction crossed with the three active
    strategies, summarised at the horizon: `horizon_days`, or the config's
    own `horizon_days` when it is None. Every cell's config is built, and
    so checked, before the first cell runs.

    Each distinct run is made once by _summary, counted only at the horizon
    (a cell of weekly capacity 0 is the baseline run, whatever its strategy).
    `_forked` makes the runs on one forked worker per CPU this process may
    use, each pulling the next run as it ends one, while this process waits
    and loads no numpy.random; with one such CPU (or no os.sched_getaffinity)
    they run here: the same rows either way.
    """
    if horizon_days is not None:
        cfg_base = replace(cfg_base, horizon_days=horizon_days)
    cells = [
        replace(cfg_base, strategy=s, repaint_fraction_weekly=f)
        for f in fractions
        for s in (Strategy.RANDOM_A, Strategy.GREEDY_B, Strategy.THRESHOLD_C)
    ]
    idle = replace(cfg_base, strategy=Strategy.BASELINE, repaint_fraction_weekly=0.0)
    runs = [cfg if weekly_capacity(cfg) else idle for cfg in cells]
    distinct = list(dict.fromkeys(runs))
    done = dict(zip(distinct, _forked(_summary, [(r,) for r in distinct])))
    return [
        SweepRow(cfg.repaint_fraction_weekly, cfg.strategy, *done[run])
        for cfg, run in zip(cells, runs)
    ]


def paint1_config() -> SimConfig:
    """Original marker paint: fast fading, rate from the social-media
    regression (0.041 delta E/day, 12.7% relative spread)."""
    return SimConfig(k_mean=0.041, k_sd=0.0052)


def paint2_config() -> SimConfig:
    """Premium masonry paint: assumed 0.5 delta E/year with the same
    relative uncertainty as the measured paint."""
    k_mean = 0.5 / 365.25
    return SimConfig(k_mean=k_mean, k_sd=0.12 * k_mean)
