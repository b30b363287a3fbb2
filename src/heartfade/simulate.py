"""Agent-based lifetime simulation of the heart population.

Each agent carries a fading value (delta E) that grows linearly at an
agent-specific rate k drawn from a normal distribution. Weekly repainting
events reset selected agents to zero under one of four strategies, and
each replicate keeps one running total of its repaints, not one per agent.
All replicates advance together as one (replicates, agents) population,
a week at a time: delta E is read only on the weekly grid and on the
horizon day, so each recorded interval adds k·days once. Each replicate
consumes its own random stream derived deterministically from
(master_seed, replicate index), so results do not depend on how
replicates are grouped or ordered. A row draws from its stream only when
it has more candidates than capacity; a forced pick (every candidate fits)
takes all of them and draws nothing. The engine takes RANDOM_A's draws a
chunk of weeks at once through `integers` where that is faster: the same
numbers in the same order as one `Generator.choice` per row-week, so the
stream contract (0.2.0) is unchanged. A run that cannot repaint stops
stepping once every agent is above the threshold (rates are positive, so
none can fall back below it); the outputs are the same as stepping on to
the horizon.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
from collections.abc import Sequence
from dataclasses import asdict, dataclass, replace
from enum import Enum

import numpy as np

__all__ = [
    "Strategy",
    "SimConfig",
    "ConfigError",
    "Population",
    "SimResult",
    "SweepRow",
    "derive_stream_seed",
    "init_population",
    "advance_day",
    "repaint_event",
    "run_simulation",
    "sweep_fractions",
    "paint1_config",
    "paint2_config",
    "weekly_capacity",
]

_MASK64 = (1 << 64) - 1

# stream labels for the two k-envelope bounding runs; replicate indices
# are small non-negative integers so these cannot collide
_ENVELOPE_LO_STREAM = 1 << 32
_ENVELOPE_HI_STREAM = (1 << 32) + 1

# how many wall hearts each agent stands for, at the default 1000 agents
WALL_HEART_COUNT = 240_000

# replicates are simulated in blocks of at most this many agent cells
# (replicates x agents), which bounds memory for large populations; the
# presets fit in one block, and the envelope's two rows in one of up to 2x
_BLOCK_CELLS = 1 << 20
# and of at most this many replicates: each row also holds its own
# Generator (~1.2 KiB), which the cell budget does not count
_BLOCK_ROWS = 4096
# RANDOM_A draws as many weeks at once as keep its (row-weeks x agents)
# bool mask within this many bytes, about 5 weeks of 50 x 1000 agents; its
# draws take 8 bytes per row-week and slot
_DRAW_BYTES = 1 << 18
# one replicate's row must fit in a block
_MAX_AGENTS = _BLOCK_CELLS
# replicates x recorded days: each (replicates, days) output array of
# float64 stays within 128 MiB
_MAX_OUTPUT_CELLS = 1 << 24
# replicates x agents x days, the work of a run: about 35 minutes at the
# slowest throughput measured (5.3e8 agent-days/s, GREEDY_B at 5%, 2 vCPUs)
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
    """Vectorised agent state: (agents,) arrays for one population, or
    (replicates, agents) arrays for several advanced together, whose
    repaint totals `repaint_count` holds: shape () or (replicates,)."""

    delta_e: np.ndarray
    k: np.ndarray
    repaint_count: np.ndarray


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

    def validate(self) -> None:
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
        if not isinstance(self.strategy, Strategy):
            raise ConfigError(f"unknown strategy {self.strategy!r}")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["strategy"] = self.strategy.value
        return d

    @classmethod
    def from_json(cls, text: str | bytes, **fields) -> "SimConfig":
        """The config in a JSON object of its fields. Each of `fields`
        replaces (or supplies) the document's value before validation, so
        a value the caller overrides is never checked on its own."""
        try:
            d = json.loads(text)
        except UnicodeDecodeError as exc:
            # json.loads drops a UTF-8 BOM before decoding; count it back in
            offset = exc.start + len(text) - len(exc.object)
            raise ConfigError(
                f"config is not {exc.encoding} text: "
                f"byte 0x{text[offset]:02x} at offset {offset}"
            ) from None
        except (ValueError, RecursionError) as exc:
            # JSONDecodeError, an integer over Python's digit limit, or
            # nesting deeper than the recursion limit
            raise ConfigError(f"invalid JSON config: {exc}") from None
        if not isinstance(d, dict):
            raise ConfigError("config JSON must be an object")
        d.update(fields)
        if "strategy" in d:
            try:
                d["strategy"] = Strategy(d["strategy"])
            except ValueError:
                raise ConfigError(f"unknown strategy {d['strategy']!r}") from None
        unknown = set(d) - set(cls.__dataclass_fields__)
        if unknown:
            names = ", ".join(map(repr, sorted(unknown)))
            raise ConfigError(f"unknown config field(s): {names}")
        try:
            cfg = cls(**d)
        except TypeError as exc:
            raise ConfigError(str(exc)) from None
        cfg.validate()
        return cfg


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

    def summary(self) -> dict:
        last = len(self.days) - 1
        n = self.config.n_agents
        scale = WALL_HEART_COUNT / n
        return {
            "final_day": int(self.days[last]),
            "mean_frac_above_threshold": float(self.mean_frac[last]),
            "lo_frac_above_threshold": float(self.lo_frac[last]),
            "hi_frac_above_threshold": float(self.hi_frac[last]),
            "mean_cum_repaints_agents": float(self.mean_cum_repaints[last]),
            "mean_cum_repaints_wall_hearts": float(
                self.mean_cum_repaints[last] * scale
            ),
            "wall_hearts_per_agent": scale,
        }

    def csv_rows(self) -> list[list[str]]:
        """The trajectory table as lists of CSV fields, header first."""
        header = "day,mean_frac_above,lo_frac_above,hi_frac_above,cum_repaints"
        columns = (self.mean_frac, self.lo_frac, self.hi_frac, self.mean_cum_repaints)
        return [header.split(",")] + [
            [str(day), f"{mean:.6f}", f"{lo:.6f}", f"{hi:.6f}", f"{cum:.4f}"]
            for day, mean, lo, hi, cum in zip(self.days.tolist(), *columns)
        ]


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


def init_population(cfg: SimConfig, rng: np.random.Generator) -> Population:
    """Draw a fresh population: rates Normal(k_mean, k_sd) truncated to
    k >= k_mean/100 by redrawing, initial fading Uniform[0, spread], and a
    0-d repaint total of 0."""
    n = cfg.n_agents
    k_min = cfg.k_mean / 100.0
    k = rng.normal(cfg.k_mean, cfg.k_sd, size=n)
    while True:
        bad = k < k_min
        if not bad.any():
            break
        k[bad] = rng.normal(cfg.k_mean, cfg.k_sd, size=int(bad.sum()))
    delta_e = rng.uniform(0.0, cfg.initial_spread_max, size=n)
    return Population(delta_e, k, np.zeros((), dtype=np.int64))


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
    pop: Population,
    strategy: Strategy,
    capacity: int,
    threshold: float,
    rng: np.random.Generator | Sequence[np.random.Generator],
    *,
    _picked: np.ndarray | None = None,
) -> int:
    """Apply one weekly repainting event; returns the number repainted,
    summed over all rows.

    `pop` holds (agents,) arrays with one Generator in `rng`, or
    (replicates, agents) arrays with one Generator per row, in row order.
    Each row repaints up to `capacity` agents: RANDOM_A uniformly at
    random, GREEDY_B the most faded (ties to the lowest index, as a stable
    sort would order them), THRESHOLD_C uniformly among the agents above
    `threshold`. A row's candidates are all its agents for RANDOM_A and its
    agents above `threshold` for THRESHOLD_C. A forced row, with m <=
    `capacity` candidates, repaints all m and draws nothing. A row with
    m > `capacity` draws one `Generator.choice(m, capacity, replace=False)`
    from its own stream and repaints the candidates at those positions in
    its ascending candidate list. The engine may take RANDOM_A's draws a
    chunk of weeks ahead through `integers` instead: the same numbers in
    the same order. `capacity` must be an integer. Selected agents are
    reset to delta_e 0, in place whatever the arrays' strides, and each
    row's picks are added to its total in `repaint_count`.
    """
    try:
        if isinstance(capacity, bool):
            raise TypeError
        capacity = operator.index(capacity)
    except TypeError:
        raise ValueError(f"capacity must be an integer, got {capacity!r}") from None
    if capacity < 0:
        raise ValueError(f"capacity must be >= 0, got {capacity}")
    rows_shape, got = np.shape(pop.delta_e)[:-1], np.shape(pop.repaint_count)
    if got != rows_shape:
        raise ValueError(f"repaint_count must have shape {rows_shape}, got {got}")
    if strategy is Strategy.BASELINE or capacity == 0:
        return 0
    delta_e = np.atleast_2d(pop.delta_e)
    rows, n = delta_e.shape
    rngs = [rng] if isinstance(rng, np.random.Generator) else rng
    if len(rngs) != rows:
        raise ValueError(f"{rows} rows need {rows} generators, got {len(rngs)}")
    # picked agents as row-major positions in the (rows, agents) view
    if strategy is Strategy.GREEDY_B:
        picked = np.flatnonzero(_most_faded(delta_e, min(capacity, n)))
    elif strategy is Strategy.RANDOM_A:
        if n <= capacity:
            picked = np.arange(rows * n)
        elif _picked is not None:  # this week's, drawn ahead by the engine
            picked = _picked
        else:
            draws = [r.choice(n, size=capacity, replace=False) for r in rngs]
            picked = (np.stack(draws) + np.arange(0, rows * n, n)[:, None]).ravel()
    elif strategy is Strategy.THRESHOLD_C:
        picked = np.flatnonzero(delta_e > threshold)
        if not picked.size:
            return 0
        # row i's m[i] candidates start at picked[start[i]]
        start = np.searchsorted(picked, np.arange(0, rows * n, n))
        m = np.diff(start, append=picked.size)
        over = np.flatnonzero(m > capacity).tolist()
        if over:
            # forced rows keep every candidate, the others what they draw
            keep = np.repeat(m <= capacity, m)
            draws = [
                start[i] + rngs[i].choice(m[i], capacity, replace=False) for i in over
            ]
            keep[np.concatenate(draws)] = True
            picked = picked[keep]
    else:  # pragma: no cover
        raise ValueError(f"unknown strategy {strategy!r}")
    at = np.divmod(picked, n)
    delta_e[at] = 0.0
    pop.repaint_count += np.bincount(at[0], minlength=rows).reshape(rows_shape)
    return int(picked.size)


def _replay_chunk(rows: int, n: int, c: int, weeks: int) -> int:
    """Weeks of RANDOM_A's picks that `_choice_replay` draws at once for
    `rows` rows of `n` agents, capacity `c` and `weeks` repaint weeks, or 0
    where one `Generator.choice` per row-week is faster or is not replayed.

    Each row's `integers` call costs about what one `choice` call does, so
    a chunk's first week gains nothing; the replay pays for its one Python
    step per slot and chunk with the calls of the other weeks, and runs
    only where those are at least as many as the slots. It replays Floyd's
    algorithm only; numpy shuffles the tail of arange(n) instead when
    n > 10000 and c > n // 50.
    """
    if n > 10000 and c > n // 50:
        return 0
    chunk = max(1, min(weeks, _DRAW_BYTES // (rows * n)))
    return chunk if c <= (chunk - 1) * rows else 0


def _choice_replay(
    rngs: Sequence[np.random.Generator], n: int, c: int, weeks: int, chunk: int
):
    """Yield each of `weeks` weeks' picks of `Generator.choice(n, c,
    replace=False)` for every row, as row-major positions in the (rows, n)
    view, replayed from the same draws in the same order, `chunk` weeks at
    a time. `0 < c < n`, on Floyd's side of numpy's cutoff (_replay_chunk).

    numpy's choice takes Floyd's c draws, then the c-1 draws of a shuffle
    that only orders the picks. Each row takes a chunk's bounds in one
    `integers` call, and each of the c slots then runs over every row-week
    of the chunk at once.
    """
    rows = len(rngs)
    bounds = np.concatenate([np.arange(n - c + 1, n + 1), np.arange(c, 1, -1)])
    tiled = np.tile(bounds, chunk)
    mask = np.zeros(chunk * rows * n, dtype=bool)
    # intp positions: fancy indexing converts any other index dtype first
    buffer = np.empty(chunk * rows * c, dtype=np.intp)
    for start in range(0, weeks, chunk):
        size = min(chunk, weeks - start)
        cells = size * rows  # row-weeks, week-major
        base = np.arange(0, cells * n, n)  # where each row-week starts
        # picks[:, s] holds slot s's draw for every row-week, as a position
        picks = buffer[: cells * c].reshape(size, rows, c)
        for i, rng in enumerate(rngs):
            drawn = rng.integers(0, tiled[: size * bounds.size])
            picks[:, i] = drawn.reshape(size, -1)[:, :c]
        picks = picks.reshape(cells, c)
        picks += base[:, None]
        # Floyd: slot s takes its draw, or place n-c+s if that is taken
        top = base + (n - c)
        for f in picks.T:
            np.copyto(f, top, where=mask.take(f))
            mask[f] = True
            top += 1
        mask[picks] = False
        for week in range(size):
            yield picks[week * rows : (week + 1) * rows].ravel() - base[week * rows]


def _most_faded(delta_e: np.ndarray, take: int) -> np.ndarray:
    """Mask of the `take` largest values in each row, ties to the lowest
    index: the same set as the first `take` of a stable argsort of
    -delta_e. `take` must be in [1, agents]."""
    n = delta_e.shape[1]
    kth = np.partition(delta_e, n - take, axis=1)[:, n - take, None]
    chosen = delta_e >= kth
    # where more agents share the k-th value than slots are left for
    # them, the highest-index ones among them are dropped
    excess = np.count_nonzero(chosen, axis=1) - take
    for i in np.flatnonzero(excess):
        tied = np.flatnonzero(delta_e[i] == kth[i])
        chosen[i, tied[-excess[i] :]] = False
    return chosen


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
    k_override: Sequence[float] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Trajectories of the given streams advanced together as one
    (rows, agents) population: fractions above threshold and cumulative
    repaints, each (rows, recorded days). k_override, one rate per row,
    pins every agent's rate in that row (envelope bounding runs)."""
    rows, n = len(stream_indices), cfg.n_agents
    rngs = [_stream(cfg.master_seed, i) for i in stream_indices]
    pop = Population(np.empty((rows, n)), np.empty((rows, n)), np.zeros(rows, np.int64))
    for i, rng in enumerate(rngs):
        drawn = init_population(cfg, rng)
        pop.delta_e[i] = drawn.delta_e
        pop.k[i] = drawn.k
    if k_override is not None:
        pop.k[:] = np.maximum(k_override, cfg.k_mean / 100.0)[:, None]
    capacity = weekly_capacity(cfg)
    threshold = cfg.perception_threshold
    # RANDOM_A's picks do not depend on the population, so they may be
    # drawn ahead, a chunk of weeks at a time
    chosen = None
    if cfg.strategy is Strategy.RANDOM_A and 0 < capacity < n:
        weeks = cfg.horizon_days // 7
        chunk = _replay_chunk(rows, n, capacity, weeks)
        if chunk:
            chosen = _choice_replay(rngs, n, capacity, weeks, chunk)

    # a run that cannot repaint is settled once every agent is above the
    # threshold: rates are positive, so delta_e never falls again
    settles = cfg.strategy is Strategy.BASELINE or capacity == 0
    days = _recorded_days(cfg.horizon_days)
    fracs = np.ones((rows, len(days)))
    cums = np.zeros((rows, len(days)))
    step = pop.k * 7  # one week's fading, reused every week
    gaps = np.diff(days, prepend=0).tolist()  # days since the last recorded day
    for col, (day, gap) in enumerate(zip(days.tolist(), gaps)):
        if gap:
            if gap != 7:  # the last interval, up to an off-grid horizon
                np.multiply(pop.k, gap, out=step)
            advance_day(pop, gap, step)
        if day > 0 and day % 7 == 0:
            picked = None if chosen is None else next(chosen)
            repaint_event(pop, cfg.strategy, capacity, threshold, rngs, _picked=picked)
        above = np.add.reduce(
            (pop.delta_e > threshold).view(np.int8), axis=1, dtype=np.int32
        )
        # count / n is bit-equal to the mean of the boolean array
        fracs[:, col] = above / n
        cums[:, col] = pop.repaint_count
        if settles and above.min() == n:
            break  # the later columns keep fraction 1.0 and no repaints
    return fracs, cums


def run_simulation(cfg: SimConfig) -> SimResult:
    """Run all replicates and aggregate trajectories with uncertainty bands.

    Replicates advance together as one (replicates, agents) population,
    each drawing from its own stream; they are taken in blocks of at most
    _BLOCK_CELLS agent cells and _BLOCK_ROWS replicates to bound memory.
    The population steps from one recorded day to the next (a week, or the
    remainder up to the horizon), adding k·days once per interval, and
    repaints on every seventh day; a row draws only when it has more
    candidates than the weekly capacity (see repaint_event). Monte Carlo
    mode takes the 2.5th/97.5th percentile across replicates; envelope
    mode takes two deterministic bounding runs as one two-row block, every
    k of a row fixed at k_mean -/+ 2 k_sd. A block of a run that cannot
    repaint (BASELINE, or weekly capacity 0) stops stepping once every
    agent in it is above the threshold and records fraction 1.0 and no
    repaints for the remaining days, exactly what stepping on would give.
    """
    cfg.validate()
    per_block = max(1, min(_BLOCK_ROWS, _BLOCK_CELLS // cfg.n_agents))
    blocks = [
        _simulate_block(cfg, range(start, min(start + per_block, cfg.replicates)))
        for start in range(0, cfg.replicates, per_block)
    ]
    frac_by_rep = np.concatenate([fracs for fracs, _ in blocks])
    cum_by_rep = np.concatenate([cums for _, cums in blocks])
    mean_frac = frac_by_rep.mean(axis=0)
    mean_cum = cum_by_rep.mean(axis=0)

    if cfg.uncertainty_mode == "montecarlo":
        lo = np.percentile(frac_by_rep, 2.5, axis=0)
        hi = np.percentile(frac_by_rep, 97.5, axis=0)
    else:
        ks = (cfg.k_mean - 2 * cfg.k_sd, cfg.k_mean + 2 * cfg.k_sd)  # one per row
        runs, _ = _simulate_block(cfg, [_ENVELOPE_LO_STREAM, _ENVELOPE_HI_STREAM], ks)
        lo, hi = runs.min(axis=0), runs.max(axis=0)

    return SimResult(
        config=cfg,
        days=_recorded_days(cfg.horizon_days),
        frac_by_rep=frac_by_rep,
        cum_repaints_by_rep=cum_by_rep,
        mean_frac=mean_frac,
        lo_frac=lo,
        hi_frac=hi,
        mean_cum_repaints=mean_cum,
    )


def sweep_fractions(
    cfg_base: SimConfig, fractions: list[float], horizon_days: int | None = None
) -> list[SweepRow]:
    """Decision sweep: each repaint fraction crossed with the three active
    strategies, summarised at the horizon: `horizon_days`, or the config's
    own `horizon_days` when it is None."""
    if horizon_days is None:
        horizon_days = cfg_base.horizon_days
    for f in fractions:
        if not 0.0 <= f <= 1.0:
            raise ConfigError(f"sweep fraction {f} outside [0, 1]")
    rows = []
    for f in fractions:
        for strategy in (Strategy.RANDOM_A, Strategy.GREEDY_B, Strategy.THRESHOLD_C):
            cfg = replace(
                cfg_base,
                strategy=strategy,
                repaint_fraction_weekly=f,
                horizon_days=horizon_days,
            )
            result = run_simulation(cfg)
            rows.append(
                SweepRow(
                    repaint_fraction_weekly=f,
                    strategy=strategy,
                    frac_needing_repaint_at_horizon=float(result.mean_frac[-1]),
                    total_repaints_at_horizon=float(result.mean_cum_repaints[-1]),
                )
            )
    return rows


def paint1_config() -> SimConfig:
    """Original marker paint: fast fading, rate from the social-media
    regression (0.041 delta E/day, 12.7% relative spread)."""
    return SimConfig(k_mean=0.041, k_sd=0.0052)


def paint2_config() -> SimConfig:
    """Premium masonry paint: assumed 0.5 delta E/year with the same
    relative uncertainty as the measured paint."""
    k_mean = 0.5 / 365.25
    return SimConfig(k_mean=k_mean, k_sd=0.12 * k_mean)
