import inspect
import json
import os
import pickle
import signal
import time
import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import heartfade.simulate as simulate
from heartfade.simulate import (
    ConfigError,
    Population,
    SimConfig,
    Strategy,
    SweepRow,
    _Words,
    _bands,
    _draws,
    _stream,
    _trajectories,
    derive_stream_seed,
    advance_day,
    init_population,
    paint1_config,
    paint2_config,
    repaint_event,
    run_simulation,
    sweep_fractions,
    weekly_capacity,
)

PAINT1 = dict(k_mean=0.041, k_sd=0.0052)


def small_cfg(**kw):
    base = dict(
        k_mean=0.041,
        k_sd=0.0052,
        n_agents=50,
        horizon_days=200,
        replicates=5,
        master_seed=42,
    )
    base.update(kw)
    return SimConfig(**base)


class TestConfig:
    def test_defaults(self):
        cfg = SimConfig(k_mean=0.041)
        assert cfg.n_agents == 1000
        assert cfg.horizon_days == 6000
        assert cfg.initial_spread_max == 5.0
        assert cfg.perception_threshold == 10.0
        assert cfg.replicates == 100

    @pytest.mark.parametrize(
        "field,value",
        [
            ("n_agents", 0),
            ("horizon_days", 0),
            ("k_mean", 0.0),
            ("k_sd", -1.0),
            ("repaint_fraction_weekly", 1.5),
            ("replicates", 0),
            ("uncertainty_mode", "bootstrap"),
            ("k_sd", float("nan")),
            ("perception_threshold", float("nan")),
            ("k_mean", float("inf")),
            ("horizon_days", 10.5),
            ("n_agents", "10"),
            ("replicates", True),
            ("strategy", "psychic"),
        ],
    )
    def test_validation(self, field, value):
        with pytest.raises(ConfigError, match=field.split("_")[0]):
            small_cfg(**{field: value})

    def test_type_errors_before_range_errors(self):
        # n_agents is out of range and checked first, but a bad type on a
        # later field is what is reported
        with pytest.raises(ConfigError, match="^k_mean must be a finite number"):
            small_cfg(n_agents=0, k_mean="fast")

    def test_size_bounds(self):
        small_cfg(n_agents=simulate._MAX_AGENTS, replicates=1)
        with pytest.raises(ConfigError, match="n_agents must be in"):
            small_cfg(n_agents=simulate._MAX_AGENTS + 1)
        days = simulate._recorded_day_count(6000)
        assert days == len(simulate._recorded_days(6000))
        reps = simulate._MAX_OUTPUT_CELLS // days
        small_cfg(horizon_days=6000, replicates=reps)
        with pytest.raises(ConfigError, match="replicates x recorded days"):
            small_cfg(horizon_days=6000, replicates=reps + 1)

    def test_work_bound(self):
        # replicates x n_agents x horizon_days at the cap passes, one over
        # fails (2**40 + 1 is 257 x 4278255361); neither config is run
        assert simulate._MAX_AGENT_DAYS == 2**40
        small_cfg(replicates=2**8, n_agents=2**20, horizon_days=2**12)
        message = (
            "replicates x n_agents x horizon_days must be <= 1099511627776, "
            "got 1 x 257 x 4278255361"
        )
        with pytest.raises(ConfigError) as raised:
            small_cfg(replicates=1, n_agents=257, horizon_days=4278255361)
        assert str(raised.value) == message
        # a full-wall run stays accepted
        small_cfg(replicates=100, n_agents=240_000, horizon_days=6000)

    def test_json_roundtrip(self):
        cfg = small_cfg(strategy=Strategy.GREEDY_B, repaint_fraction_weekly=0.05)
        again = SimConfig.from_json(json.dumps(cfg.to_dict()))
        assert again == cfg

    @pytest.mark.parametrize("bom", ["\ufeff", b"\xef\xbb\xbf"], ids=["text", "bytes"])
    def test_json_utf8_bom_is_dropped(self, bom):
        text = '{"k_mean": 0.04, "strategy": "random_a"}'
        doc = bom + (text if isinstance(bom, str) else text.encode())
        assert SimConfig.from_json(doc) == SimConfig.from_json(text)

    def test_json_unknown_field(self):
        with pytest.raises(ConfigError, match="unknown config field"):
            SimConfig.from_json('{"k_mean": 0.04, "velocity": 3}')

    def test_json_unknown_strategy(self):
        with pytest.raises(ConfigError, match="strategy"):
            SimConfig.from_json('{"k_mean": 0.04, "strategy": "psychic"}')

    def test_json_fields_replace_before_validation(self):
        text = '{"k_mean": 0.041, "replicates": 20000, "master_seed": 1}'
        with pytest.raises(ConfigError, match="replicates x recorded days"):
            SimConfig.from_json(text)  # at the default 6000 days
        cfg = SimConfig.from_json(text, horizon_days=30, master_seed=7)
        assert (cfg.horizon_days, cfg.master_seed, cfg.replicates) == (30, 7, 20000)
        with pytest.raises(ConfigError, match="horizon_days"):
            SimConfig.from_json(text, horizon_days=0)


def bad_values():
    """A bad value for each way a field fails: each _FIELD_RULES row's type
    and each of its bounds, an integer too large for a float, then the two
    fields outside the table."""
    cases = []
    for name, _, low, low_open, high in simulate._FIELD_RULES:
        cases.append((name, "x"))
        if low is not None:
            cases.append((name, low if low_open else low - 1))
        if high is not None:
            cases.append((name, high + 1))
    cases.append(("k_mean", 10**400))
    return cases + [("uncertainty_mode", "bootstrap"), ("strategy", "psychic")]


class TestEveryBuildChecks:
    @pytest.mark.parametrize("field,value", bad_values())
    def test_same_error_from_init_replace_and_json(self, field, value):
        valid = small_cfg()
        doc = json.dumps({**valid.to_dict(), field: value})
        messages = []
        for build in (
            lambda: SimConfig(**{**asdict(valid), field: value}),
            lambda: replace(valid, **{field: value}),
            lambda: SimConfig.from_json(doc),
        ):
            with pytest.raises(ConfigError) as raised:
                build()
            messages.append(str(raised.value))
        assert field in messages[0]
        assert messages == messages[:1] * 3

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_strategy_by_name_is_the_enum(self, strategy):
        by_name = small_cfg(strategy=strategy.value)
        assert by_name.strategy is strategy
        assert by_name == small_cfg(strategy=strategy)
        assert replace(small_cfg(), strategy=strategy.value).strategy is strategy


def one_row(delta_e, k):
    """A block of one replicate with the given (agents,) state."""
    delta_e, k = np.array([delta_e], float), np.array([k], float)
    return Population(delta_e, k, np.zeros(1, np.int64))


class TestInitPopulation:
    def test_zero_sd_all_equal(self):
        cfg = small_cfg(k_sd=0.0)
        delta_e, k = init_population(cfg, _stream(42, 0))
        assert delta_e.shape == k.shape == (50,)
        assert np.all(k == 0.041)
        assert np.all((delta_e >= 0) & (delta_e <= 5.0))

    def test_deterministic_per_stream(self):
        cfg = small_cfg()
        delta_a, k_a = init_population(cfg, _stream(42, 3))
        delta_b, k_b = init_population(cfg, _stream(42, 3))
        assert np.array_equal(k_a, k_b)
        assert np.array_equal(delta_a, delta_b)
        _, k_c = init_population(cfg, _stream(42, 4))
        assert not np.array_equal(k_a, k_c)

    def test_sample_mean_within_standard_error(self):
        cfg = SimConfig(n_agents=1000, **PAINT1)
        _, k = init_population(cfg, _stream(42, 0))
        se = 0.0052 / np.sqrt(1000)
        assert abs(k.mean() - 0.041) < 3 * se

    def test_truncation_floor(self):
        cfg = small_cfg(k_mean=0.01, k_sd=0.05, n_agents=2000)
        _, k = init_population(cfg, _stream(1, 0))
        assert np.all(k >= 0.01 / 100)


class TestAdvanceDay:
    def test_single_step(self):
        pop = one_row([0.0], [0.041])
        advance_day(pop)
        assert pop.delta_e[0, 0] == pytest.approx(0.041)

    def test_crosses_threshold_at_244_days(self):
        pop = one_row([0.0], [0.041])
        for _ in range(243):
            advance_day(pop)
        assert pop.delta_e[0, 0] < 10.0
        advance_day(pop)
        assert pop.delta_e[0, 0] == pytest.approx(10.004, abs=1e-9)

    def test_days_add_k_times_days_once(self):
        k = _stream(1, 0).uniform(0.01, 0.5, size=(1, 1000))
        pop = Population(np.full((1, 1000), 3.0), k.copy(), np.zeros(1, np.int64))
        advance_day(pop, 7)
        assert np.array_equal(pop.delta_e, 3.0 + k * 7)
        daily = np.full((1, 1000), 3.0)
        for _ in range(7):
            daily += k
        assert not np.array_equal(daily, pop.delta_e)  # roundings differ somewhere
        advance_day(pop, 7, k * 7)  # a precomputed step adds the same
        assert np.array_equal(pop.delta_e, 3.0 + k * 7 + k * 7)

    def test_uniform_population_steps_as_one(self):
        cfg = small_cfg(k_sd=0.0, initial_spread_max=0.0)
        pop = one_row(*init_population(cfg, _stream(42, 0)))
        fractions = []
        for _ in range(300):
            advance_day(pop)
            fractions.append(float(np.mean(pop.delta_e > 10.0)))
        assert set(fractions) == {0.0, 1.0}
        assert fractions == sorted(fractions)


class TestRepaintEvent:
    """One-row blocks, each repainted with its chooser from `_draws`."""

    def repaint(self, delta_e, strategy, capacity):
        pop = one_row(delta_e, np.full(len(delta_e), 0.04))
        choose = _draws(strategy, [_stream(42, 0)], len(delta_e), capacity, 1)
        return pop, repaint_event(pop, strategy, capacity, 10.0, choose)

    def test_baseline_never_repaints(self):
        pop, count = self.repaint([1, 12, 7, 12], Strategy.BASELINE, 4)
        assert count == 0
        assert pop.delta_e.tolist() == [[1, 12, 7, 12]]

    def test_greedy_top2_with_index_tiebreak(self):
        pop, count = self.repaint([1, 12, 7, 12], Strategy.GREEDY_B, 2)
        assert count == 2
        assert pop.delta_e.tolist() == [[1, 0, 7, 0]]
        assert pop.repaint_count.tolist() == [2]

    def test_threshold_limited_by_eligible(self):
        pop, count = self.repaint([1, 12, 7, 12, 11, 2], Strategy.THRESHOLD_C, 50)
        assert count == 3
        assert np.all(pop.delta_e <= 10.0)

    def test_random_exact_count_and_reset(self):
        # no agent starts at 0
        pop, count = self.repaint(list(range(1, 21)), Strategy.RANDOM_A, 8)
        assert count == 8
        assert int((pop.delta_e == 0).sum()) == 8
        assert pop.repaint_count.tolist() == [8]

    def test_capacity_above_population(self):
        assert self.repaint([5.0, 6.0], Strategy.RANDOM_A, 99)[1] == 2

    def test_capacity_may_be_a_numpy_integer(self):
        pop, count = self.repaint(list(range(1, 21)), Strategy.RANDOM_A, np.int64(8))
        assert type(count) is int and count == 8
        assert pop.repaint_count.tolist() == [8]

    @pytest.mark.parametrize("rows", [1, 2])
    def test_repaint_count_holds_one_total_per_row(self, rows):
        delta_e = np.array([[1.0, 12, 7, 12], [12, 1, 12, 12]])[:rows]
        k = np.full(delta_e.shape, 0.04)
        pop = Population(delta_e.copy(), k, np.zeros(rows, np.int64))
        choose = _draws(Strategy.GREEDY_B, [_stream(42, i) for i in range(rows)], 4, 2, 2)
        assert repaint_event(pop, Strategy.GREEDY_B, 2, 10.0, choose) == 2 * rows
        assert pop.repaint_count.tolist() == [2] * rows
        # a second week adds to each row's total
        assert repaint_event(pop, Strategy.GREEDY_B, 2, 10.0, choose) == 2 * rows
        assert pop.repaint_count.tolist() == [4] * rows
        assert np.count_nonzero(pop.delta_e == 0) == 4 * rows

    # 10.0 and 0.0: each row's count less its repaints; -1.0: every
    # candidate, a repainted agent at 0 included
    @pytest.mark.parametrize("threshold", [10.0, 0.0, -1.0])
    @pytest.mark.parametrize("capacity", [1, 2, 50])
    def test_threshold_leaves_each_rows_count_above(self, threshold, capacity):
        delta_e = np.array([[1.0, 12, 7, 12, 11, 0], [3, 4, 5, 6, 0, 0], [0.0] * 6])
        pop = Population(delta_e, np.full(delta_e.shape, 0.04), np.zeros(3, np.int64))
        choose = _draws(Strategy.THRESHOLD_C, [_stream(42, i) for i in range(3)], 6, capacity, 1)
        repaint_event(pop, Strategy.THRESHOLD_C, capacity, threshold, choose)
        expected = np.count_nonzero(delta_e > threshold, axis=1)
        assert pop.above.tolist() == expected.tolist()

    # 2c <= rows takes the words chooser, 2c > rows one `choice` per row-week
    @pytest.mark.parametrize("rows", [4, 3], ids=["words", "choice"])
    def test_threshold_week_without_a_candidate_draws_nothing(self, rows):
        # every agent at or below the threshold, the last one on it
        delta_e = np.linspace(0.0, 10.0, rows * 6).reshape(rows, 6)
        k = np.full(delta_e.shape, 0.04)
        pop = Population(delta_e.copy(), k, np.full(rows, 7, np.int64))
        rngs = [_stream(42, i) for i in range(rows)]
        states = [rng.bit_generator.state for rng in rngs]
        choose = _draws(Strategy.THRESHOLD_C, rngs, 6, 2, 1)
        assert (choose.__name__ == "choice") == (rows == 3)
        assert repaint_event(pop, Strategy.THRESHOLD_C, 2, 10.0, choose) == 0
        assert pop.delta_e.tobytes() == delta_e.tobytes()
        assert pop.repaint_count.tolist() == [7] * rows
        assert pop.above.tolist() == [0] * rows
        assert [rng.bit_generator.state for rng in rngs] == states

    def test_takes_five_positional_parameters(self):
        params = inspect.signature(repaint_event).parameters.values()
        assert [p.name for p in params] == [
            "pop",
            "strategy",
            "capacity",
            "threshold",
            "choose",
        ]
        assert all(
            p.kind is p.POSITIONAL_OR_KEYWORD and p.default is p.empty for p in params
        )


# (agents, capacity) pairs on Floyd's side of numpy's choice without
# replacement, up to its cutoff: past 10000 agents, capacity > agents // 50
# shuffles the tail instead, which is not replayed
REPLAY_CASES = [
    (2, 1),
    (1000, 1),
    (1000, 200),
    (1000, 999),
    (10000, 300),
    (10001, 200),
    (20000, 400),
]


def readers(monkeypatch):
    """Each word reader `_draws` builds from here on, in order; each checks
    its precondition as it is built: no stream holds a cached 32-bit half."""
    built, init = [], simulate._Words.__init__

    def recorded(self, rngs, size):
        assert [r.bit_generator.state["has_uint32"] for r in rngs] == [0] * len(rngs)
        built.append(self)
        init(self, rngs, size)

    monkeypatch.setattr(simulate._Words, "__init__", recorded)
    return built


def assert_consumed_alike(words, row, direct):
    """`words` has consumed from `row`'s stream exactly the 32-bit words
    `direct`, a twin stream, has: the row's unread words, then its stream's
    next raw outputs, are the next words `direct` hands out."""
    held = words.buf[row, words.pos[row] :]
    raw = words.rngs[row].bit_generator.random_raw(4).view(np.uint32)
    count = held.size + 8
    expected = np.concatenate([held, raw])[:count]
    assert np.array_equal(direct.integers(0, 2**32, count, dtype=np.uint32), expected)


@pytest.mark.parametrize("n,c", REPLAY_CASES)
def test_choice_replay_draws_what_choice_draws(monkeypatch, n, c):
    """Over several weeks, in 4-week chunks, RANDOM_A's plan gives each row
    the set one Generator.choice(n, c, replace=False) per week picks, and
    consumes exactly the 32-bit words those calls consume."""
    rows, weeks = max(3, -(-c // 2)), 5  # enough rows for c slots in 2 weeks
    # the words gate sees 2-week chunks; the draws take twice as many weeks
    monkeypatch.setattr(simulate, "_DRAW_BYTES", 2 * rows * n)  # 4 + 1 weeks
    replayed = [_stream(9, i) for i in range(rows)]
    direct = [_stream(9, i) for i in range(rows)]
    built = readers(monkeypatch)
    choose = _draws(Strategy.RANDOM_A, replayed, n, c, weeks)
    (words,) = built
    for _ in range(weeks):
        week = choose()
        want = [r.choice(n, c, replace=False) + i * n for i, r in enumerate(direct)]
        assert np.array_equal(np.sort(week, axis=None), np.sort(np.concatenate(want)))
    with pytest.raises(StopIteration):
        choose()
    for i, rng in enumerate(direct):
        assert_consumed_alike(words, i, rng)


# 2^31 + 1 rejects about half its words, so rows are drawn again word by word
@pytest.mark.parametrize("bound", [2, 1000, 2**31 + 1, 2**32])
@pytest.mark.parametrize("narrow", [False, True])
def test_bounded_draws_what_integers_draws(monkeypatch, bound, narrow):
    """`_Words.bounded` gives Generator.integers(0, bounds) on each row's
    fresh stream, over calls on all rows and on some rows with bounds of
    their own; a narrow buffer refills inside a call."""
    if narrow:  # one word wider than a call needs
        monkeypatch.setattr(simulate, "_DRAW_BYTES", 0)
    rows = 3
    read = [_stream(4, i) for i in range(rows)]
    direct = [_stream(4, i) for i in range(rows)]
    every = np.arange(rows)
    bounds = np.array([bound, 2, 3, bound, 2**32, bound, 1000] * 3)
    words, columns = _Words(read, bounds.size), np.arange(bounds.size)
    some = np.array([2, 0])  # rows 2 and 0, each with its own bounds
    own = np.stack([bounds[::-1], np.roll(bounds, 5)])
    for _ in range(3):
        got = words.bounded(every, bounds, columns)
        assert got.dtype == np.int64
        assert np.array_equal(got, [r.integers(0, bounds) for r in direct])
        got = words.bounded(some, own, columns)
        want = [direct[i].integers(0, b) for i, b in zip(some, own)]
        assert np.array_equal(got, want)
    for i, rng in enumerate(direct):
        assert_consumed_alike(words, i, rng)


def test_bounded_keeps_the_columns_it_is_given(monkeypatch):
    """`keep` selects columns of the draws and consumes every word, across
    rejections (2^31 + 1 rejects about half its words) and refills."""
    monkeypatch.setattr(simulate, "_DRAW_BYTES", 0)  # refills inside calls
    every = np.arange(3)
    bounds = np.array([2**31 + 1, 7, 2**31 + 1, 1000, 2**32, 2**31 + 1] * 4)
    keep, columns = np.array([0, 2, 3, 9, 10, 17, 23]), np.arange(bounds.size)
    whole, some = (_Words([_stream(9, i) for i in range(3)], bounds.size) for _ in "ab")
    for own in (bounds, np.stack([bounds, bounds[::-1], np.roll(bounds, 1)])):
        for _ in range(40):
            want = whole.bounded(every, own, columns)[:, keep]
            assert np.array_equal(some.bounded(every, own, keep), want)
            assert np.array_equal(some.pos, whole.pos)


RANDOM_A, THRESHOLD_C = Strategy.RANDOM_A, Strategy.THRESHOLD_C
TENTH = dict(repaint_fraction_weekly=0.1)
ONE_PCT = dict(repaint_fraction_weekly=0.01)
TEN_WEEKS = 10 * 4 * 100  # _DRAW_BYTES for 10-week chunks of 4 rows of 100,
# which RANDOM_A draws 20 weeks at a time
BYTES = simulate._DRAW_BYTES  # the default

# (strategy, rows, agents, capacity, repaint weeks, _DRAW_BYTES, the weeks
# each _floyd call draws, or None where the block calls choice per row-week)
DRAW_PLANS = [
    # RANDOM_A: where a chunk holds at least as many row-weeks as slots,
    # drawing two chunks' weeks at once
    (RANDOM_A, 4, 100, 40, 52, TEN_WEEKS, [20, 20, 12]),
    (RANDOM_A, 4, 100, 41, 52, TEN_WEEKS, None),
    (RANDOM_A, 4, 100, 8, 2, TEN_WEEKS, [2]),  # capped at the weeks there are
    (RANDOM_A, 4, 100, 9, 2, TEN_WEEKS, None),
    (RANDOM_A, 40, 100, 40, 52, TEN_WEEKS, [2] * 26),  # a week per chunk, 2 a draw
    (RANDOM_A, 40, 100, 41, 52, TEN_WEEKS, None),
    # past 10000 agents, numpy shuffles the tail above capacity agents // 50
    (RANDOM_A, 1, 10001, 200, 201, 201 * 10001, [201]),  # 201-week chunks
    (RANDOM_A, 1, 10001, 201, 201, 201 * 10001, None),
    (RANDOM_A, 1, 12000, 11999, 10**5, 1 << 40, None),
    # THRESHOLD_C: where the capacity is at most half the rows
    (THRESHOLD_C, 4, 100, 2, 1, BYTES, [1]),
    (THRESHOLD_C, 4, 100, 3, 1, BYTES, None),
    # its m = 10001 candidates reach the tail shuffle above capacity 200
    (THRESHOLD_C, 402, 12000, 200, 1, BYTES, [1]),
    (THRESHOLD_C, 402, 12000, 201, 1, BYTES, None),
    (Strategy.GREEDY_B, 4, 100, 2, 52, BYTES, None),
]


class Choosing(np.random.Generator):
    """A row's stream that records each of its `choice` calls."""

    def __init__(self, seed, row, calls):
        super().__init__(np.random.PCG64(seed))
        self.row, self.calls = row, calls

    def choice(self, *args):
        self.calls.append((self.row, *args))
        return super().choice(*args)


@pytest.mark.parametrize("strategy,rows,n,c,weeks,draw_bytes,drawn", DRAW_PLANS)
def test_draws(monkeypatch, strategy, rows, n, c, weeks, draw_bytes, drawn):
    """A block's picks come from raw words on Floyd's side of numpy's
    cutoff and where that is faster than choice: RANDOM_A's a chunk of
    weeks per _floyd call, THRESHOLD_C's one week per call. Every other
    block's chooser calls Generator.choice once per row-week."""
    monkeypatch.setattr(simulate, "_DRAW_BYTES", draw_bytes)
    calls = []
    floyd = simulate._floyd

    def counted(words, c, rows, start, m):
        calls.append(len(start) // len(rows))
        return floyd(words, c, rows, start, m)

    monkeypatch.setattr(simulate, "_floyd", counted)
    chosen = []
    streams = [Choosing(derive_stream_seed(3, i), i, chosen) for i in range(rows)]
    choose = _draws(strategy, streams, n, c, weeks)
    if strategy is RANDOM_A:  # every row, all n agents
        every = np.arange(rows)
        over, start, m = every, every * n, np.full(rows, n)
    else:  # the last row, over capacity: n candidates, or 10001 past 10000 agents
        over, start, m = np.array([rows - 1]), np.array([0]), np.array([min(n, 10001)])
    if drawn is None:
        assert choose(over, start, m).shape == (len(over), c)
        assert chosen == [(i, k, c, False) for i, k in zip(over, m)]
        assert calls == []
        return
    for _ in range(weeks if strategy is RANDOM_A else 1):
        assert choose(over, start, m).shape == (len(over), c)
    assert calls == drawn
    assert chosen == []


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 300),
    st.integers(1, 20),
    st.one_of(st.integers(1, 50), st.none()),  # values k / n with ties, or uniform
    st.integers(0, 2**32 - 1),
)
@example(1, 3, None, 0)
@example(2, 3, 1, 0)
@example(2, 3, None, 0)
def test_bands_equal_numpys_percentile(rows, cols, n, seed):
    rng = np.random.default_rng(seed)
    if n is None:
        frac = rng.random((rows, cols))
    else:
        frac = rng.integers(0, n + 1, (rows, cols)) / n
    lo, hi = _bands(frac)
    assert lo.tobytes() == np.percentile(frac, 2.5, axis=0).tobytes()
    assert hi.tobytes() == np.percentile(frac, 97.5, axis=0).tobytes()


# finite values >= 0, as delta_e always is: 0.0, the least subnormal, the
# greatest finite double, and values between
GREEDY_VALUES = [0.0, 5e-324, 0.5, 3.0, 3.0000000000000004, 10.0, 1.7976931348623157e308]


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 5),
    st.integers(1, 30),
    st.integers(1, 4),  # distinct values a block draws from, so ties are common
    st.integers(1, 33),  # capacity, above the agents too
    st.sampled_from(["contiguous", "strided", "transposed"]),
    st.integers(0, 2**32 - 1),
)
@example(3, 8, 1, 3, "strided", 0)  # every row one tie
@example(2, 5, 2, 5, "contiguous", 0)  # take == agents
def test_greedy_keeps_all_but_a_stable_sorts_first(rows, n, distinct, capacity, layout, seed):
    """GREEDY_B's keep mask is the complement of the first `take` agents of
    a stable argsort of -delta_e; the repaint writes +0.0 there, in place
    in any layout, and leaves every other bit of the buffer as it was."""
    rng = np.random.default_rng(seed)
    state = rng.choice(rng.choice(GREEDY_VALUES, distinct, replace=False), (rows, n))
    take = min(capacity, n)
    # the block is the whole buffer or a view of part of it; the rest is NaN
    shape, where = {
        "contiguous": ((rows, n), np.s_[:, :]),
        "strided": ((2 * rows, 2 * n), np.s_[1::2, ::2]),
        "transposed": ((2 * n, 2 * rows), np.s_[::2, 1::2]),  # read as .T
    }[layout]
    buffer = np.full(shape, np.nan)
    delta_e = buffer[where].T if layout == "transposed" else buffer[where]
    delta_e[...] = state
    outside = np.ones(shape, dtype=bool)
    outside[where] = False
    rest = buffer.view(np.uint64)[outside]

    picked = np.zeros((rows, n), dtype=bool)
    first = np.argsort(-state, axis=1, kind="stable")[:, :take]
    np.put_along_axis(picked, first, True, axis=1)
    assert np.array_equal(simulate._kept(delta_e, take), ~picked)

    pop = Population(delta_e, np.zeros((rows, n)), np.zeros(rows, np.int64))
    count = repaint_event(pop, Strategy.GREEDY_B, capacity, 10.0, None)  # draws nothing
    assert type(count) is int and count == rows * take
    assert pop.repaint_count.tolist() == [take] * rows
    bits = delta_e.view(np.uint64)
    assert np.all(bits[picked] == 0)  # +0.0: every bit clear, the sign's too
    assert np.array_equal(bits[~picked], state.view(np.uint64)[~picked])
    assert np.array_equal(buffer.view(np.uint64)[outside], rest)


def first_above(v, s, threshold, limit, g):
    """The first of `limit` adds of s to v, then one of g, after which the
    running sum is above the threshold, one add at a time; one past the
    last add if none is."""
    x = v
    for j in range(1, limit + 1):
        x += s
        if x > threshold:
            return j
    return limit + 1 if x + g > threshold else limit + 2


def crossing(v, s, threshold, limit, g):
    """`simulate._crossing` of one agent, or of lists of agents, as a list."""
    v, s, g = (np.atleast_1d(np.asarray(a, dtype=float)) for a in (v, s, g))
    return simulate._crossing(v, s, threshold, limit, g).tolist()


# values >= 0 of all scales, subnormals and 0 among them
VALUES = st.floats(0.0, 100.0)
STEPS = st.floats(0.0, 10.0)


@settings(max_examples=400, deadline=None)
@given(
    st.lists(st.tuples(VALUES, STEPS, STEPS), min_size=1, max_size=6),
    VALUES,
    st.integers(0, 300),
)
@example([(0.0, 0.5, 0.0)], 4.0, 8)  # lands on the threshold in week 8
@example([(0.0, 0.5, 0.25)], 4.25, 8)  # and on the horizon
def test_crossing_is_the_first_add_above_the_threshold(agents, threshold, limit):
    """Each agent's crossing is that of its sums made one add at a time:
    the weekly s `limit` times, then one g."""
    want = [first_above(v, s, threshold, limit, g) for v, s, g in agents]
    v, s, g = zip(*agents)
    assert crossing(v, s, threshold, limit, g) == want


def replaying(monkeypatch):
    """The number of agents each `_replay` call of `_crossing` takes."""
    sizes, replay = [], simulate._replay
    monkeypatch.setattr(simulate, "_replay", lambda v, *a: sizes.append(v.size) or replay(v, *a))
    return sizes


@pytest.mark.parametrize(
    "v,s,j", [(0.0, 0.1, 30), (1.3, 7 * 0.5 / 365.25, 600), (5.0, 1 / 3, 7), (0.0, 0.5, 8)]
)
@pytest.mark.parametrize("side", [-np.inf, 0.0, np.inf])
@pytest.mark.parametrize("horizon", [False, True])
def test_crossing_replays_sums_at_the_threshold(monkeypatch, v, s, j, side, horizon):
    """A threshold equal to the sum after j adds, or one ulp either side of
    it, is within the margin of the estimate: the agent is replayed, and
    crosses where the adds made one at a time do. With `horizon`, the j-th
    add is the last one, of g = 0.7·s; without, g is 0."""
    limit, g = (j - 1, 0.7 * s) if horizon else (j + 5, 0.0)
    x = v
    for _ in range(j - 1):
        x += s
    x += g if horizon else s
    threshold = x if side == 0 else float(np.nextafter(x, side))
    sizes = replaying(monkeypatch)
    assert crossing(v, s, threshold, limit, g) == [first_above(v, s, threshold, limit, g)]
    assert sizes == [1]


CAP = simulate._MAX_AGENT_DAYS // 7  # the weeks of the longest run the work cap admits


@pytest.mark.parametrize(
    "v,s,threshold,g,want",
    [
        (2.5, 7e-300, 10.0, 3e-300, CAP + 2),  # k_mean 1e-300: never
        (1.0, 7e-300, 1.0, 3e-300, CAP + 2),  # replayed: 1.0 + s is 1.0
        (0.0, 7e-300, 1e-299, 0.0, 2),
        (0.0, 7.0, 1e300, 6.0, CAP + 2),  # threshold 1e300: never
        (0.0, 7e-300, 1e300, 1e-300, CAP + 2),  # (1e300 - v) / s overflows
        (0.0, 1.0, 100.5, 0.0, 101),
        (11.0, 0.0, 10.0, 0.0, 1),  # above on day 0; k·7 underflowed to 0
        (10.0, 0.0, 10.0, 0.0, CAP + 2),  # (10 - 10) / 0 is nan
    ],
)
def test_crossing_at_the_extremes(v, s, threshold, g, want):
    """Rates, thresholds and horizons at the config's limits give the
    crossing warning-free (warnings are errors in this suite), over the
    longest horizon, whose adds no loop could replay."""
    assert crossing(v, s, threshold, CAP, g) == [want]


class TestRunSimulation:
    def test_determinism(self):
        cfg = small_cfg(strategy=Strategy.RANDOM_A, repaint_fraction_weekly=0.1)
        a = run_simulation(cfg)
        b = run_simulation(cfg)
        assert np.array_equal(a.frac_by_rep, b.frac_by_rep)
        assert np.array_equal(a.cum_repaints_by_rep, b.cum_repaints_by_rep)

    def test_baseline_fraction_non_decreasing(self):
        cfg = small_cfg(horizon_days=400)
        res = run_simulation(cfg)
        for rep in res.frac_by_rep:
            assert np.all(np.diff(rep) >= 0)

    def test_bands_bracket_mean(self):
        cfg = small_cfg(strategy=Strategy.RANDOM_A, repaint_fraction_weekly=0.05)
        res = run_simulation(cfg)
        assert np.all(res.lo_frac <= res.mean_frac + 1e-12)
        assert np.all(res.mean_frac <= res.hi_frac + 1e-12)
        assert np.all((res.mean_frac >= 0) & (res.mean_frac <= 1))

    def test_cumulative_repaints_non_decreasing(self):
        cfg = small_cfg(strategy=Strategy.RANDOM_A, repaint_fraction_weekly=0.1)
        res = run_simulation(cfg)
        for rep in res.cum_repaints_by_rep:
            assert np.all(np.diff(rep) >= 0)

    def test_conservation_for_fixed_capacity_strategies(self):
        for strategy in (Strategy.RANDOM_A, Strategy.GREEDY_B):
            cfg = small_cfg(strategy=strategy, repaint_fraction_weekly=0.1)
            res = run_simulation(cfg)
            capacity = weekly_capacity(cfg)
            weeks = np.array([d // 7 for d in res.days])
            expected = capacity * weeks
            assert np.array_equal(
                res.cum_repaints_by_rep, np.tile(expected, (cfg.replicates, 1))
            )

    def test_envelope_mode(self):
        cfg = small_cfg(uncertainty_mode="envelope", horizon_days=300)
        res = run_simulation(cfg)
        assert np.all(res.lo_frac <= res.hi_frac)
        # slow-k bound lags the fast-k bound somewhere mid-trajectory
        assert np.any(res.lo_frac < res.hi_frac)

    def test_recorded_days_are_weekly_plus_horizon(self):
        for horizon in range(1, 60):
            days = list(range(0, horizon + 1, 7))
            days += [horizon] if days[-1] != horizon else []
            assert simulate._recorded_days(horizon).tolist() == days
            assert simulate._recorded_day_count(horizon) == len(days)

    def test_blocks_hold_at_most_block_rows(self, monkeypatch):
        # one agent per replicate: the cell budget alone would put all
        # 5,000 rows, and their Generators, in one block
        rows = []
        simulate_block = simulate._simulate_block

        def counting(cfg, streams, *rest):
            rows.append(len(streams))
            simulate_block(cfg, streams, *rest)

        monkeypatch.setattr(simulate, "_simulate_block", counting)
        run_simulation(SimConfig(k_mean=0.04, n_agents=1, horizon_days=7, replicates=5000))
        assert max(rows) <= simulate._BLOCK_ROWS
        assert sum(rows) == 5000

    @pytest.mark.parametrize(
        "strategy", [Strategy.RANDOM_A, Strategy.GREEDY_B, Strategy.THRESHOLD_C]
    )
    def test_one_chooser_per_block(self, monkeypatch, strategy):
        # three agents a block: 7 replicates run as blocks of 3, 3 and 1
        cfg = small_cfg(strategy=strategy, repaint_fraction_weekly=0.2, replicates=7)
        monkeypatch.setattr(simulate, "_BLOCK_CELLS", 3 * cfg.n_agents)
        blocks, draws = [], []
        simulate_block, draws_for = simulate._simulate_block, simulate._draws

        def block(cfg, streams, *rest):
            blocks.append(len(streams))
            simulate_block(cfg, streams, *rest)

        def chooser(strategy, rngs, n, c, weeks):
            draws.append((strategy, len(rngs), n, c, weeks))
            return draws_for(strategy, rngs, n, c, weeks)

        monkeypatch.setattr(simulate, "_simulate_block", block)
        monkeypatch.setattr(simulate, "_draws", chooser)
        run_simulation(cfg)
        assert blocks == [3, 3, 1]
        assert draws == [(strategy, rows, 50, 10, 200 // 7) for rows in blocks]

    @pytest.mark.parametrize(
        "cfg, block_cells",
        [
            *(
                (small_cfg(strategy=s, repaint_fraction_weekly=f), None)
                for s in Strategy
                for f in (0.0, 1.0)  # capacity 0, and capacity = n_agents
            ),
            (small_cfg(**TENTH, strategy=THRESHOLD_C, uncertainty_mode="envelope"), None),
            (small_cfg(**TENTH, strategy=RANDOM_A, replicates=7), 2 * 50),  # 2-row blocks
            (small_cfg(**TENTH, strategy=THRESHOLD_C, replicates=1), None),
        ],
        ids=[f"{s.value}-{f}" for s in Strategy for f in (0.0, 1.0)]
        + ["envelope", "blocks", "one-replicate"],
    )
    def test_every_block_steps_in_the_calling_process(self, monkeypatch, cfg, block_cells):
        # with two usable CPUs, a run still forks nothing: each block, the
        # envelope's rows included, steps here, one after the other
        if block_cells is not None:
            monkeypatch.setattr(simulate, "_BLOCK_CELLS", block_cells)
        original, parent, forks = simulate._simulate_block, os.getpid(), []

        def located(cfg, streams, *rest):
            if os.getpid() != parent:
                raise AssertionError(f"rows {streams} ran outside the caller")
            original(cfg, streams, *rest)

        def fork():
            forks.append(1)
            raise AssertionError("run_simulation forked")

        monkeypatch.setattr(simulate, "_simulate_block", located)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(os, "fork", fork)
        run_simulation(cfg)
        assert forks == []

    def test_blocks_step_in_stream_order_then_the_envelope(self, monkeypatch):
        # two agents' rows a block: 5 replicates as rows 0-1, 2-3 and 4, then
        # the envelope's two bounding rows as one last block
        cfg = small_cfg(**TENTH, uncertainty_mode="envelope")
        monkeypatch.setattr(simulate, "_BLOCK_CELLS", 2 * cfg.n_agents)
        original, steps = simulate._simulate_block, []

        def recorded(cfg, streams, fracs, cums, k_override=None, horizon_only=False):
            steps.append((list(streams), k_override is not None))
            original(cfg, streams, fracs, cums, k_override, horizon_only)

        monkeypatch.setattr(simulate, "_simulate_block", recorded)
        run_simulation(cfg)
        envelope = [simulate._ENVELOPE_LO_STREAM, simulate._ENVELOPE_HI_STREAM]
        assert steps == [([0, 1], False), ([2, 3], False), ([4], False), (envelope, True)]

    def test_a_block_exception_keeps_its_type(self, monkeypatch):
        # the second block, rows 2 and 3, fails: its exception reaches the
        # caller as raised, not wrapped
        monkeypatch.setattr(simulate, "_BLOCK_CELLS", 2 * 50)
        original = simulate._simulate_block

        def failing(cfg, streams, *rest):
            if streams[0] == 2:
                raise ZeroDivisionError(f"rows {streams[0]} to {streams[-1]}")
            original(cfg, streams, *rest)

        monkeypatch.setattr(simulate, "_simulate_block", failing)
        with pytest.raises(ZeroDivisionError, match="^rows 2 to 3$"):
            run_simulation(small_cfg())

    def test_a_failed_block_ends_the_run_at_once(self, monkeypatch):
        # the first block fails: no later block steps, the envelope's
        # neither, and no child process is left behind
        monkeypatch.setattr(simulate, "_BLOCK_CELLS", 2 * 50)
        steps = []

        def failing(cfg, streams, *rest):
            steps.append(list(streams))
            raise KeyError("the first block's rows")

        monkeypatch.setattr(simulate, "_simulate_block", failing)
        with pytest.raises(KeyError, match="the first block's rows"):
            run_simulation(small_cfg(uncertainty_mode="envelope"))
        assert steps == [[0, 1]]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)  # no child, not even a zombie

    @pytest.mark.parametrize(
        "cfg, block_cells, built",
        [
            (small_cfg(**TENTH, strategy=RANDOM_A), None, [1]),
            # 5 slots a week, more than 2 repaint weeks of one row hold
            (small_cfg(**TENTH, strategy=RANDOM_A, replicates=1, horizon_days=14), None, [0]),
            # 1%, 10 slots: words with 20 rows or more, choice with fewer
            (small_cfg(**ONE_PCT, strategy=THRESHOLD_C, n_agents=1000, replicates=25), None, [1]),
            (small_cfg(**ONE_PCT, strategy=THRESHOLD_C, n_agents=1000), None, [0]),
            # 1 slot: words in the 5-row block and in the envelope's 2 rows
            (
                small_cfg(
                    **ONE_PCT, strategy=THRESHOLD_C, n_agents=100, uncertainty_mode="envelope"
                ),
                None,
                [1, 1],
            ),
            (small_cfg(**TENTH, strategy=RANDOM_A, replicates=7), 3 * 50, [1, 1, 1]),
            (small_cfg(**TENTH), None, [0]),
            (small_cfg(**TENTH, strategy=Strategy.GREEDY_B), None, [0]),
        ],
        ids=[
            "random_a",
            "random_a-choice",
            "threshold_c",
            "threshold_c-choice",
            "envelope",
            "blocks",
            "baseline",
            "greedy_b",
        ],
    )
    def test_a_words_side_block_builds_one_reader(self, monkeypatch, cfg, block_cells, built):
        # _draws builds the reader, once for each block that draws words,
        # and each stream it is given holds no cached half (see readers)
        if block_cells is not None:
            monkeypatch.setattr(simulate, "_BLOCK_CELLS", block_cells)
        made, per_block, original = readers(monkeypatch), [], simulate._simulate_block

        def block(*args):
            before = len(made)
            original(*args)
            per_block.append(len(made) - before)

        monkeypatch.setattr(simulate, "_simulate_block", block)
        run_simulation(cfg)
        assert per_block == built

    def test_a_run_holds_each_output_once(self, monkeypatch):
        # 8 blocks of 512 rows write into the two outputs, allocated once;
        # with _bands' sorted copy, the traced peak is about 3 outputs' bytes
        monkeypatch.setattr(simulate, "_BLOCK_ROWS", 512)
        cfg = replace(
            small_cfg(strategy=THRESHOLD_C, repaint_fraction_weekly=1.0),
            n_agents=1,
            replicates=4096,
            horizon_days=700,
        )
        tracemalloc.start()
        try:
            run_simulation(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        output = cfg.replicates * simulate._recorded_day_count(cfg.horizon_days) * 8
        assert peak <= 3.5 * output

    def test_recorded_days_include_horizon(self):
        res = run_simulation(small_cfg(horizon_days=100))
        assert res.days[0] == 0
        assert res.days[-1] == 100
        assert res.frac_at(100) == res.mean_frac[-1]
        with pytest.raises(ValueError, match="^no recorded day at or before -1$"):
            res.frac_at(-1)

    def test_full_weekly_repaint_keeps_fraction_zero(self):
        # max delta E between repaints <= 5 + 7*k_max < 10
        cfg = SimConfig(
            strategy=Strategy.RANDOM_A,
            repaint_fraction_weekly=1.0,
            n_agents=200,
            horizon_days=400,
            replicates=5,
            **PAINT1,
        )
        res = run_simulation(cfg)
        k_max = 0.041 + 4 * 0.0052
        assert 5 + 7 * k_max < 10
        assert np.all(res.frac_by_rep[:, res.days >= 7] == 0.0)

    def test_sawtooth_closed_form_small_instance(self):
        # n<=5, k_sd=0, spread 0, repaint everyone weekly: delta E is a
        # sawtooth k*(days since last multiple of 7), hand-computable
        cfg = SimConfig(
            k_mean=2.0,
            k_sd=0.0,
            n_agents=4,
            initial_spread_max=0.0,
            strategy=Strategy.RANDOM_A,
            repaint_fraction_weekly=1.0,
            horizon_days=40,
            replicates=2,
        )
        res = run_simulation(cfg)
        for i, day in enumerate(res.days):
            expected = 1.0 if 2.0 * (day % 7) > 10.0 else 0.0
            if day > 0 and day % 7 == 0:
                expected = 0.0
            assert np.all(res.frac_by_rep[:, i] == expected), day

    def test_stationary_level_matches_geometric_survival(self):
        f = 0.05
        cfg = SimConfig(
            k_mean=0.041,
            k_sd=0.0,
            initial_spread_max=0.0,
            strategy=Strategy.RANDOM_A,
            repaint_fraction_weekly=f,
            n_agents=1000,
            horizon_days=1095,
            replicates=20,
        )
        res = run_simulation(cfg)
        weeks_needed = int(np.ceil(10.0 / (7 * 0.041)))
        closed_form = (1 - f) ** weeks_needed
        assert res.mean_frac[-1] == pytest.approx(closed_form, abs=0.03)


class TestSweep:
    def test_zero_fraction_equals_baseline(self):
        base = small_cfg()
        rows = sweep_fractions(base, [0.0], horizon_days=150)
        baseline = run_simulation(
            small_cfg(strategy=Strategy.BASELINE, horizon_days=150)
        )
        assert len(rows) == 3
        for row in rows:
            assert row.total_repaints_at_horizon == 0.0
            assert row.frac_needing_repaint_at_horizon == pytest.approx(
                float(baseline.mean_frac[-1])
            )

    def test_equal_repaint_totals_for_fixed_capacity(self):
        rows = sweep_fractions(small_cfg(), [0.1], horizon_days=150)
        by_strategy = {r.strategy: r for r in rows}
        expected = round(0.1 * 50) * (150 // 7)
        assert by_strategy[Strategy.RANDOM_A].total_repaints_at_horizon == expected
        assert by_strategy[Strategy.GREEDY_B].total_repaints_at_horizon == expected

    def test_fraction_out_of_range(self, monkeypatch):
        runs = []
        monkeypatch.setattr(simulate, "_summary", runs.append)
        for fractions in ([1.2], [0.1, 1.2]):
            with pytest.raises(ConfigError, match="^repaint_fraction_weekly must be"):
                sweep_fractions(small_cfg(), fractions)
        assert runs == []  # every cell is checked before the first runs

    def test_horizon_defaults_to_the_config(self, monkeypatch):
        # the check runs where the cell runs, which may be a forked worker,
        # so it raises there instead of appending to a list of this process
        original = simulate._summary

        def checking(cfg):
            if cfg.horizon_days != 100:
                raise AssertionError(f"cell ran to day {cfg.horizon_days}, not 100")
            return original(cfg)

        monkeypatch.setattr(simulate, "_summary", checking)
        cfg = SimConfig(k_mean=0.041, n_agents=5, replicates=2, horizon_days=100)
        assert len(sweep_fractions(cfg, [0.1])) == 3

    @pytest.mark.parametrize(
        "base, fractions, block_cells",
        [
            # 0 repaints nothing; 1.0 offers every agent (capacity = n_agents)
            (small_cfg(), [0.0, 0.1, 1.0], None),
            (small_cfg(uncertainty_mode="envelope"), [0.05, 0.5], None),
            (small_cfg(replicates=7), [0.05, 0.2], 2 * 50),  # blocks of 2 rows
        ],
        ids=["strategies", "envelope", "blocks"],
    )
    def test_workers_give_the_serial_rows(self, monkeypatch, base, fractions, block_cells):
        if block_cells is not None:
            monkeypatch.setattr(simulate, "_BLOCK_CELLS", block_cells)
        budget, original, parent = simulate._BLOCK_CELLS, simulate._summary, os.getpid()

        def sweep_on(cpus):
            # each cell checks where it runs, and that it sees the patch
            def located(cfg):
                if (os.getpid() == parent) != (len(cpus) == 1):
                    raise AssertionError(f"cell ran in the wrong process for {cpus}")
                if simulate._BLOCK_CELLS != budget:
                    raise AssertionError("cell did not see the block budget")
                return original(cfg)

            monkeypatch.setattr(simulate, "_summary", located)
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
            return sweep_fractions(base, fractions)

        serial = sweep_on({0})
        assert len(serial) == 3 * len(fractions)
        assert sweep_on({0, 1}) == serial

    @pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["one-cpu", "two-cpus"])
    @pytest.mark.parametrize(
        "base, fractions, block_cells",
        [
            # 0.004 of 50 agents is capacity 0; 1.0 offers every agent
            (small_cfg(horizon_days=300), [0.0, 0.004, 0.1, 1.0], None),
            (small_cfg(uncertainty_mode="envelope", horizon_days=201), [0.05, 0.5], None),
            (small_cfg(replicates=9), [0.0, 0.05, 0.2], 2 * 50),  # 5 blocks
        ],
        ids=["strategies", "envelope", "blocks"],
    )
    def test_each_row_is_its_runs_horizon(self, monkeypatch, cpus, base, fractions, block_cells):
        # bit for bit, though a sweep run counts only at the horizon
        if block_cells is not None:
            monkeypatch.setattr(simulate, "_BLOCK_CELLS", block_cells)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        for row in sweep_fractions(base, fractions):
            f, s = row.repaint_fraction_weekly, row.strategy
            res = run_simulation(replace(base, strategy=s, repaint_fraction_weekly=f))
            got = row.frac_needing_repaint_at_horizon, row.total_repaints_at_horizon
            want = float(res.mean_frac[-1]), float(res.mean_cum_repaints[-1])
            assert [x.hex() for x in got] == [x.hex() for x in want], (f, s)

    @pytest.mark.parametrize("strategy", list(Strategy))
    @pytest.mark.parametrize("horizon", [196, 201])  # on and off the weekly grid
    def test_summary_is_the_runs_horizon(self, monkeypatch, strategy, horizon):
        # every strategy, BASELINE with a capacity too, in blocks of 2 rows
        monkeypatch.setattr(simulate, "_BLOCK_CELLS", 2 * 50)
        cfg = small_cfg(**TENTH, strategy=strategy, horizon_days=horizon, replicates=9)
        res = run_simulation(cfg)
        want = float(res.mean_frac[-1]), float(res.mean_cum_repaints[-1])
        assert [x.hex() for x in simulate._summary(cfg)] == [x.hex() for x in want]

    @pytest.mark.parametrize("fraction", [0.0, 0.1])  # BASELINE either way
    def test_a_sweep_run_that_settles_stops_as_its_run_does(self, monkeypatch, fraction):
        # it still counts every week, so it stops stepping once every agent
        # is above the threshold, well before the horizon
        steps, advance = [], simulate.advance_day
        monkeypatch.setattr(simulate, "advance_day", lambda *a: steps.append(a) or advance(*a))
        cfg = small_cfg(horizon_days=1000, repaint_fraction_weekly=fraction)
        run_simulation(cfg)
        whole = len(steps)
        steps.clear()
        simulate._summary(cfg)
        assert len(steps) == whole < 1000 // 7

    def test_each_distinct_run_is_made_once(self, monkeypatch):
        # capacity 0 (fraction 0, and 0.0004 of 1000 agents) is the baseline
        # run whatever the strategy; a repeated fraction repeats its cells
        # threshold 4: THRESHOLD_C draws and repaints within 100 days
        base = small_cfg(n_agents=1000, replicates=3, horizon_days=100, perception_threshold=4.0)
        fractions, active = [0.0, 0.0004, 0.05, 0.05], [RANDOM_A, Strategy.GREEDY_B, THRESHOLD_C]
        original, runs = simulate._summary, []

        def counted(cfg):
            runs.append(cfg)
            return original(cfg)

        monkeypatch.setattr(simulate, "_summary", counted)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        rows = sweep_fractions(base, fractions)
        want = []
        for f in fractions:
            for s in active:
                res = run_simulation(replace(base, strategy=s, repaint_fraction_weekly=f))
                summary = float(res.mean_frac[-1]), float(res.mean_cum_repaints[-1])
                want.append(SweepRow(f, s, *summary))
        assert rows == want
        assert {r.total_repaints_at_horizon for r in rows[6:]} != {0.0}
        idle = replace(base, strategy=Strategy.BASELINE, repaint_fraction_weekly=0.0)
        active_runs = [replace(base, strategy=s, repaint_fraction_weekly=0.05) for s in active]
        assert runs == [idle, *active_runs]

    def test_a_cell_steps_its_rows_in_its_worker(self, monkeypatch):
        # a cell, in a sweep worker, forks no worker of its own: every block
        # runs in a child of this process
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        original, parent = simulate._simulate_block, os.getpid()

        def located(cfg, streams, *rest):
            if os.getpid() == parent or os.getppid() != parent:
                raise AssertionError(f"rows {streams} ran outside a sweep worker")
            original(cfg, streams, *rest)

        monkeypatch.setattr(simulate, "_simulate_block", located)
        assert len(sweep_fractions(small_cfg(), [0.1])) == 3

    @pytest.mark.parametrize("fail", ["raises", "dies"])
    def test_a_failed_run_ends_the_sweep_at_once(self, monkeypatch, fail):
        # greedy_b's run fails in one worker while random_a's stalls in the
        # other: the error reaches the caller without waiting for the stalled
        # worker, and no child is left, not even a zombie
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        parent = os.getpid()

        def failing(cfg):
            if os.getpid() == parent:  # exiting here would end the test session
                raise AssertionError("a run was made in the sweep's own process")
            if cfg.strategy is not Strategy.GREEDY_B:
                time.sleep(60)
            if fail == "dies":
                os._exit(3)
            raise KeyError("greedy_b's run")

        monkeypatch.setattr(simulate, "_summary", failing)
        error, message = (
            (KeyError, "greedy_b's run")
            if fail == "raises"
            else (RuntimeError, "^a sweep worker ended without its results$")
        )
        start = time.monotonic()
        with pytest.raises(error, match=message):
            sweep_fractions(small_cfg(), [0.1])
        assert time.monotonic() - start < 10
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestForked:
    def test_more_indices_than_a_pipe_holds(self, monkeypatch):
        # 20,000 4-byte indices overfill a 64 KiB pipe: written before the
        # children were forked, they would block this process for good
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

        def late(signum, frame):
            raise TimeoutError("_forked blocked")

        previous = signal.signal(signal.SIGALRM, late)
        signal.alarm(60)
        try:
            args = [(i,) for i in range(20_000)]
            results = simulate._forked(lambda i: (i, os.getpid()), args)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert [i for i, _ in results] == list(range(20_000))
        assert os.getpid() not in {pid for _, pid in results}
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)  # no child left, not even a zombie

    @pytest.mark.parametrize("size", [1, 10**5])  # within one pipe buffer, or not
    def test_a_child_cut_short_raises_runtime_error(self, monkeypatch, size):
        # a child that ends partway through writing its results: the
        # parent reads half a pickle
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        parent = os.getpid()

        class Cut:  # simulate's pickle, with a child's results cut in half
            UnpicklingError, loads = pickle.UnpicklingError, pickle.loads

            @staticmethod
            def dumps(obj):
                sent = pickle.dumps(obj)
                return sent if os.getpid() == parent else sent[: len(sent) // 2]

        monkeypatch.setattr(simulate, "pickle", Cut)
        with pytest.raises(RuntimeError, match="^a sweep worker ended without its results$"):
            simulate._forked(lambda i: np.full(size, i), [(0,), (1,), (2,)])
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize(
        "files, cpus",
        [
            ({}, 8),  # no cgroup files at all
            ({"cpu.max": "max 100000\n"}, 8),
            ({"cpu.max": "150000 100000\n"}, 2),
            ({"cpu.max": "50000 100000\n"}, 1),
            ({"cpu.max": "1600000 100000\n"}, 8),  # a quota above the affinity
            ({"cpu.max": "150000\n"}, 8),  # no period: unparsable
            ({"cpu.max": "lots 100000\n"}, 8),
            ({"cpu.max": "150000 0\n"}, 8),
            ({"cpu/cpu.cfs_quota_us": "-1\n", "cpu/cpu.cfs_period_us": "100000\n"}, 8),
            ({"cpu/cpu.cfs_quota_us": "200000\n", "cpu/cpu.cfs_period_us": "100000\n"}, 2),
            ({"cpu/cpu.cfs_quota_us": "250000\n", "cpu/cpu.cfs_period_us": "100000\n"}, 3),
            ({"cpu/cpu.cfs_quota_us": "200000\n"}, 8),  # the period is missing
            ({"cpu/cpu.cfs_quota_us": "2e5\n", "cpu/cpu.cfs_period_us": "100000\n"}, 8),
            # a hybrid host: no cpu.max at the root, the quota in v1
            (
                {
                    "unified/cpu.max": "100000 100000\n",
                    "cpu/cpu.cfs_quota_us": "300000\n",
                    "cpu/cpu.cfs_period_us": "100000\n",
                },
                3,
            ),
        ],
    )
    def test_cpus_takes_the_cgroup_quota(self, monkeypatch, tmp_path, files, cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        for name, text in files.items():
            path = tmp_path / "sys/fs/cgroup" / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        assert simulate._cpus(str(tmp_path)) == cpus

    @pytest.mark.parametrize(
        "own, files, cpus",
        [
            # a quota only on the process's own cgroup, as in a systemd slice
            ("0::/a.slice/b.scope\n", {"a.slice/b.scope/cpu.max": "200000 100000\n"}, 2),
            # a tighter quota on a parent, and a looser one at the root
            (
                "1:cpu,cpuacct:/x\n0::/a.slice/b.scope\n",
                {
                    "cpu.max": "600000 100000\n",
                    "a.slice/cpu.max": "100000 100000\n",
                    "a.slice/b.scope/cpu.max": "300000 100000\n",
                },
                1,
            ),
            # no proc/self/cgroup: the root alone, as before
            (None, {"a.slice/b.scope/cpu.max": "200000 100000\n"}, 8),
            (None, {"cpu.max": "300000 100000\n"}, 3),
            ("0::/\n", {"cpu.max": "300000 100000\n"}, 3),  # a cgroup namespace's root
            # a cgroup outside the namespace's view: the root alone
            ("0::/../other\n", {"../other/cpu.max": "100000 100000\n"}, 8),
            ("0::/a\n", {"a/cpu.max": "max 100000\n"}, 8),
        ],
    )
    def test_cpus_takes_the_own_cgroups_quota(self, monkeypatch, tmp_path, own, files, cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        if own is not None:
            (tmp_path / "proc/self").mkdir(parents=True)
            (tmp_path / "proc/self/cgroup").write_text(own)
        for name, text in files.items():
            path = tmp_path / "sys/fs/cgroup" / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        assert simulate._cpus(str(tmp_path)) == cpus

    def test_cpus_without_affinity_is_one(self, monkeypatch, tmp_path):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        (tmp_path / "sys/fs/cgroup").mkdir(parents=True)
        (tmp_path / "sys/fs/cgroup/cpu.max").write_text("400000 100000\n")
        assert simulate._cpus(str(tmp_path)) == 1


class TestSeedDerivation:
    def test_distinct_streams(self):
        seeds = {derive_stream_seed(42, i) for i in range(10_000)}
        assert len(seeds) == 10_000

    def test_master_seed_changes_streams(self):
        assert derive_stream_seed(42, 0) != derive_stream_seed(43, 0)

    def test_replicate_order_independence(self):
        cfg = small_cfg(strategy=Strategy.RANDOM_A, repaint_fraction_weekly=0.1)
        forward = [_trajectories(cfg, [i])[0] for i in range(cfg.replicates)]
        backward = [_trajectories(cfg, [i])[0] for i in reversed(range(cfg.replicates))]
        for f, b in zip(forward, reversed(backward)):
            assert np.array_equal(f, b)


class TestPresetConfigs:
    def test_paint1(self):
        cfg = paint1_config()
        assert cfg.k_mean == 0.041
        assert cfg.k_sd == 0.0052

    def test_paint2_rate_conversion(self):
        cfg = paint2_config()
        assert cfg.k_mean == pytest.approx(0.0013689, abs=1e-6)
        assert cfg.k_sd / cfg.k_mean == pytest.approx(0.12)
        assert cfg.horizon_days == 6000
        # within the literature span for outdoor architectural finishes
        assert 0.17 / 365.25 < cfg.k_mean < 0.75 / 365.25
