"""The batched engine against a reference oracle.

The oracle is a plain loop over one replicate at a time: one Python
iteration per recorded interval, adding k·days once, GREEDY_B by a stable
argsort, and a draw only where a row has more candidates than capacity (a
forced pick takes every candidate and draws nothing). The engine must
reproduce it bit for bit.
"""

from dataclasses import replace

import numpy as np
import pytest

import heartfade.simulate as simulate
from heartfade.simulate import (
    Population,
    SimConfig,
    Strategy,
    _stream,
    init_population,
    repaint_event,
    run_simulation,
    weekly_capacity,
)


def oracle_repaint(pop, strategy, capacity, threshold, rng, candidate_counts=None):
    """One repainting event on a single (agents,) population; appends the
    number of candidates to `candidate_counts` when given."""
    if strategy is Strategy.BASELINE or capacity == 0:
        return 0
    if strategy is Strategy.GREEDY_B:
        order = np.argsort(-pop.delta_e, kind="stable")
        chosen = order[:capacity]
    else:
        if strategy is Strategy.RANDOM_A:
            candidates = np.arange(len(pop.delta_e))
        else:
            candidates = np.flatnonzero(pop.delta_e > threshold)
        if candidate_counts is not None:
            candidate_counts.append(len(candidates))
        if len(candidates) <= capacity:
            chosen = candidates  # forced: no draw
        else:
            chosen = rng.choice(candidates, size=capacity, replace=False)
    pop.delta_e[chosen] = 0.0
    return len(chosen)


def oracle_replicate(cfg, stream_index, k_override=None, candidate_counts=None):
    rng = _stream(cfg.master_seed, stream_index)
    pop = init_population(cfg, rng)
    if k_override is not None:
        pop.k[:] = max(k_override, cfg.k_mean / 100.0)
    capacity = weekly_capacity(cfg)
    threshold = cfg.perception_threshold
    fracs = [float(np.mean(pop.delta_e > threshold))]
    cums = [0]
    total = 0
    days = list(range(7, cfg.horizon_days + 1, 7))
    if cfg.horizon_days % 7:
        days.append(cfg.horizon_days)
    last = 0
    for day in days:
        pop.delta_e += pop.k * (day - last)
        last = day
        if day % 7 == 0:
            total += oracle_repaint(
                pop, cfg.strategy, capacity, threshold, rng, candidate_counts
            )
        fracs.append(float(np.mean(pop.delta_e > threshold)))
        cums.append(total)
    return np.array(fracs), np.array(cums, dtype=np.float64)


def oracle_run(cfg):
    runs = [oracle_replicate(cfg, i) for i in range(cfg.replicates)]
    frac_by_rep = np.stack([r[0] for r in runs])
    cum_by_rep = np.stack([r[1] for r in runs])
    if cfg.uncertainty_mode == "montecarlo":
        lo = np.percentile(frac_by_rep, 2.5, axis=0)
        hi = np.percentile(frac_by_rep, 97.5, axis=0)
    else:
        lo_run, _ = oracle_replicate(cfg, 1 << 32, cfg.k_mean - 2 * cfg.k_sd)
        hi_run, _ = oracle_replicate(cfg, (1 << 32) + 1, cfg.k_mean + 2 * cfg.k_sd)
        lo, hi = np.minimum(lo_run, hi_run), np.maximum(lo_run, hi_run)
    return {
        "frac_by_rep": frac_by_rep,
        "cum_repaints_by_rep": cum_by_rep,
        "mean_frac": frac_by_rep.mean(axis=0),
        "lo_frac": lo,
        "hi_frac": hi,
        "mean_cum_repaints": cum_by_rep.mean(axis=0),
    }


def assert_bit_equal(result, expected):
    for name, want in expected.items():
        got = getattr(result, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


FAST = dict(k_mean=0.15, k_sd=0.03, perception_threshold=10.0)

# named cases for the coverage the engine must keep: every strategy, both
# uncertainty modes, horizons off the weekly grid, capacity equal to the
# population and heavy ties for the greedy selection
NAMED = {
    f"{strategy.value}-{mode}": SimConfig(
        **FAST,
        n_agents=40,
        horizon_days=103,
        strategy=strategy,
        repaint_fraction_weekly=0.1,
        replicates=5,
        uncertainty_mode=mode,
    )
    for strategy in Strategy
    for mode in ("montecarlo", "envelope")
}
NAMED.update(
    {
        f"{strategy.value}-full-capacity": SimConfig(
            **FAST,
            n_agents=9,
            horizon_days=50,
            strategy=strategy,
            repaint_fraction_weekly=1.0,
            replicates=3,
        )
        for strategy in (Strategy.RANDOM_A, Strategy.GREEDY_B, Strategy.THRESHOLD_C)
    }
)
NAMED.update(
    {
        f"greedy_b-ties-{fraction}": SimConfig(
            k_mean=0.5,
            k_sd=0.0,
            initial_spread_max=0.0,
            n_agents=30,
            horizon_days=60,
            strategy=Strategy.GREEDY_B,
            repaint_fraction_weekly=fraction,
            replicates=4,
        )
        for fraction in (0.1, 0.35, 1.0)
    }
)
NAMED["one-day"] = SimConfig(**FAST, n_agents=5, horizon_days=1, replicates=2)
# a row's first eligible agents fit in capacity (a forced week, no draw)
# before more cross the threshold than capacity holds; a forced week that
# drew would shift every later draw of its row, and the horizon is long
# enough for repainted agents to cross again, so which were drawn shows
NAMED["threshold_c-forced-then-over"] = SimConfig(
    **FAST,
    n_agents=40,
    horizon_days=200,
    strategy=Strategy.THRESHOLD_C,
    repaint_fraction_weekly=0.1,
    replicates=4,
)


def random_configs(count, seed=2025):
    rng = np.random.default_rng(seed)
    configs = []
    for i in range(count):
        k_mean = float(rng.uniform(0.05, 0.4))
        configs.append(
            SimConfig(
                k_mean=k_mean,
                k_sd=float(rng.choice([0.0, 0.2 * k_mean])),
                n_agents=int(rng.integers(1, 60)),
                horizon_days=int(rng.integers(1, 120)),
                initial_spread_max=float(rng.choice([0.0, 5.0])),
                perception_threshold=float(rng.choice([2.0, 10.0])),
                strategy=list(Strategy)[i % 4],
                repaint_fraction_weekly=float(rng.choice([0.0, 0.03, 0.1, 0.5, 1.0])),
                replicates=int(rng.integers(1, 7)),
                master_seed=int(rng.integers(0, 2**63)),
                uncertainty_mode=str(rng.choice(["montecarlo", "envelope"])),
            )
        )
    return configs


def test_forced_then_over_case_has_both_weeks():
    cfg = NAMED["threshold_c-forced-then-over"]
    capacity = weekly_capacity(cfg)
    rows_with_both = 0
    for i in range(cfg.replicates):
        counts = []
        oracle_replicate(cfg, i, candidate_counts=counts)
        forced = [w for w, m in enumerate(counts) if 2 <= m <= capacity]
        over = [w for w, m in enumerate(counts) if m > capacity]
        rows_with_both += bool(forced and over and forced[0] < over[-1])
    assert rows_with_both > 0


def test_named_cases_cover_the_grid():
    cfgs = list(NAMED.values())
    assert {c.strategy for c in cfgs} == set(Strategy)
    assert any(c.uncertainty_mode == "envelope" for c in cfgs)
    assert any(c.horizon_days % 7 for c in cfgs)
    assert any(weekly_capacity(c) >= c.n_agents for c in cfgs)
    assert any(
        c.strategy is Strategy.GREEDY_B and c.k_sd == 0 and c.initial_spread_max == 0
        for c in cfgs
    )


@pytest.mark.parametrize("name", sorted(NAMED))
def test_engine_matches_oracle_named(name):
    cfg = NAMED[name]
    assert_bit_equal(run_simulation(cfg), oracle_run(cfg))


@pytest.mark.parametrize("cfg", random_configs(32))
def test_engine_matches_oracle_seeded_grid(cfg):
    assert_bit_equal(run_simulation(cfg), oracle_run(cfg))


@pytest.mark.parametrize(
    "strategy", [Strategy.RANDOM_A, Strategy.GREEDY_B, Strategy.THRESHOLD_C]
)
@pytest.mark.parametrize("capacity", [1, 3, 8, 12, 50])
def test_batched_repaint_equals_row_by_row(strategy, capacity):
    rng = np.random.default_rng(7)
    # rounded values force many ties at the capacity boundary; none is 0,
    # so the picked agents are those at 0 afterwards
    delta_e = np.round(rng.uniform(1.0, 12.0, size=(6, 12)))
    delta_e[2] = 1.0  # a row with nothing above the threshold
    batched = Population(delta_e.copy(), np.zeros_like(delta_e), np.zeros(6, np.int64))
    count = repaint_event(
        batched, strategy, capacity, 9.5, [_stream(3, i) for i in range(len(delta_e))]
    )
    assert type(count) is int

    expected = 0
    for i, row in enumerate(delta_e):
        pop = Population(row.copy(), np.zeros_like(row), np.zeros((), np.int64))
        picked = oracle_repaint(pop, strategy, capacity, 9.5, _stream(3, i))
        expected += picked
        assert np.array_equal(batched.delta_e[i], pop.delta_e)
        assert batched.repaint_count[i] == picked == np.count_nonzero(pop.delta_e == 0)
    assert count == expected


@pytest.mark.parametrize("budget", [1, 2 * 23, 3 * 23 + 5])
def test_block_budget_does_not_change_results(monkeypatch, budget):
    cfg = SimConfig(
        **FAST,
        n_agents=23,
        horizon_days=90,
        strategy=Strategy.THRESHOLD_C,
        repaint_fraction_weekly=0.2,
        replicates=7,
    )
    whole = run_simulation(cfg)
    monkeypatch.setattr(simulate, "_BLOCK_CELLS", budget)
    blocked = run_simulation(cfg)
    for name in ("frac_by_rep", "cum_repaints_by_rep", "lo_frac", "hi_frac"):
        assert getattr(blocked, name).tobytes() == getattr(whole, name).tobytes()


class ChoiceForbidden:
    """Wraps a row's Generator whose RANDOM_A picks must come through the
    replay: every other draw goes through, `choice` fails."""

    def __init__(self, rng):
        self.rng = rng

    def __getattr__(self, name):
        if name == "choice":
            raise AssertionError("a replayed row called choice")
        return getattr(self.rng, name)


@pytest.mark.parametrize("mode", ["montecarlo", "envelope"])
@pytest.mark.parametrize("weeks", [1, 3, 100])
# capacity 3 is replayed in 3-week and longer chunks, capacity 9 only in
# chunks longer than the horizon; the other runs call choice
@pytest.mark.parametrize("fraction,replayed", [(0.13, (3, 100)), (0.4, (100,))])
def test_draw_chunks_do_not_change_results(
    monkeypatch, fraction, replayed, weeks, mode
):
    """RANDOM_A may draw a chunk of weeks at a time; 1-week chunks, 3-week
    chunks with a last partial one (13 repaint weeks, horizon off the weekly
    grid) and chunks longer than the horizon all match the oracle, which
    calls choice once per row-week, in blocks of 3, 3 and 1 replicates."""
    cfg = SimConfig(
        **FAST,
        n_agents=23,
        horizon_days=94,
        strategy=Strategy.RANDOM_A,
        repaint_fraction_weekly=fraction,
        replicates=7,
        uncertainty_mode=mode,
    )
    monkeypatch.setattr(simulate, "_BLOCK_CELLS", 3 * cfg.n_agents)
    # `weeks` per chunk in the blocks of 3 rows; one-row blocks (the last
    # one and the envelope runs) take three times as many
    monkeypatch.setattr(simulate, "_DRAW_BYTES", weeks * 3 * cfg.n_agents)
    if weeks in replayed:
        stream = simulate._stream
        monkeypatch.setattr(simulate, "_stream", lambda *a: ChoiceForbidden(stream(*a)))
    assert_bit_equal(run_simulation(cfg), oracle_run(cfg))


# runs that cannot repaint stop stepping once every agent of every row is
# above the threshold; these cases reach that point at different times
SETTLING = {
    "baseline-far-past-saturation": SimConfig(
        **FAST, n_agents=30, horizon_days=700, replicates=4
    ),
    "random_a-zero-capacity": SimConfig(
        **FAST,
        n_agents=30,
        horizon_days=300,
        strategy=Strategy.RANDOM_A,
        repaint_fraction_weekly=0.0,
        replicates=3,
    ),
    "threshold_c-zero-capacity": SimConfig(
        **FAST,
        n_agents=30,
        horizon_days=300,
        strategy=Strategy.THRESHOLD_C,
        repaint_fraction_weekly=0.0,
        replicates=3,
    ),
    "negative-threshold": SimConfig(
        k_mean=0.15,
        perception_threshold=-1.0,
        n_agents=10,
        horizon_days=60,
        replicates=2,
    ),
    "rows-settle-apart": SimConfig(
        k_mean=0.15, k_sd=0.06, n_agents=4, horizon_days=400, replicates=6
    ),
    "baseline-envelope": SimConfig(
        k_mean=0.15,
        k_sd=0.03,
        n_agents=20,
        horizon_days=400,
        replicates=3,
        uncertainty_mode="envelope",
    ),
    # every agent is always above a negative threshold, but a run that
    # repaints is never settled
    "repainting-negative-threshold": SimConfig(
        k_mean=0.15,
        perception_threshold=-1.0,
        n_agents=20,
        horizon_days=63,
        strategy=Strategy.RANDOM_A,
        repaint_fraction_weekly=0.1,
        replicates=2,
    ),
    "capacity-rounds-to-zero": SimConfig(
        **FAST,
        n_agents=30,
        horizon_days=200,
        strategy=Strategy.GREEDY_B,
        repaint_fraction_weekly=0.01,
        replicates=2,
    ),
}


def settle_columns(frac_by_rep):
    """Per row, the first recorded column from which every agent is above
    the threshold for good."""
    return [
        int(np.flatnonzero(row < 1.0)[-1]) + 1 if (row < 1.0).any() else 0
        for row in frac_by_rep
    ]


def test_settling_cases_settle_as_named():
    repainting = oracle_run(SETTLING["repainting-negative-threshold"])
    assert (repainting["frac_by_rep"] == 1.0).all()
    assert (np.diff(repainting["cum_repaints_by_rep"][:, 1:]) > 0).all()
    for name, cfg in SETTLING.items():
        if name == "repainting-negative-threshold":
            continue
        assert weekly_capacity(cfg) == 0 or cfg.strategy is Strategy.BASELINE, name
        expected = oracle_run(cfg)
        cols = settle_columns(expected["frac_by_rep"])
        assert max(cols) < len(expected["mean_frac"]) - 1, name  # settles early
    negative = oracle_run(SETTLING["negative-threshold"])
    assert settle_columns(negative["frac_by_rep"]) == [0, 0]
    apart = oracle_run(SETTLING["rows-settle-apart"])
    assert len(set(settle_columns(apart["frac_by_rep"]))) > 1


@pytest.mark.parametrize("name", sorted(SETTLING))
def test_engine_matches_oracle_settling(name):
    cfg = SETTLING[name]
    assert_bit_equal(run_simulation(cfg), oracle_run(cfg))


def count_days(monkeypatch):
    """The days advanced by each advance_day call of the engine."""
    steps = []
    advance = simulate.advance_day

    def counting(pop, days=1, step=None):
        steps.append(days)
        return advance(pop, days, step)

    monkeypatch.setattr(simulate, "advance_day", counting)
    return steps


@pytest.mark.parametrize(
    "name",
    [
        "baseline-far-past-saturation",
        "random_a-zero-capacity",
        "threshold_c-zero-capacity",
        "capacity-rounds-to-zero",
    ],
)
def test_settled_run_stops_stepping(monkeypatch, name):
    steps = count_days(monkeypatch)
    cfg = SETTLING[name]
    result = run_simulation(cfg)
    assert 0 < sum(steps) < cfg.horizon_days
    assert result.mean_frac[-1] == 1.0


def test_repainting_run_steps_every_day(monkeypatch):
    steps = count_days(monkeypatch)
    cfg = replace(
        SETTLING["baseline-far-past-saturation"],
        strategy=Strategy.RANDOM_A,
        repaint_fraction_weekly=0.1,
    )
    run_simulation(cfg)
    assert sum(steps) == cfg.horizon_days


class NoDraws:
    """Stands in for a row's Generator where no draw may happen: touching
    any of its attributes (`choice`, `integers`, ...) fails."""

    def __getattr__(self, name):
        raise AssertionError(f"a forced pick reached its stream's {name}")


@pytest.mark.parametrize("strategy", [Strategy.RANDOM_A, Strategy.THRESHOLD_C])
def test_forced_picks_draw_nothing(strategy):
    """Rows with no more candidates than capacity repaint every candidate
    and never touch their stream."""
    rng = np.random.default_rng(13)
    # none is 0, so the picked agents are those at 0 afterwards
    delta_e = np.round(rng.uniform(1.0, 12.0, size=(5, 8)))
    delta_e[0] = 1.0  # no candidate
    delta_e[1, :3] = 11.0  # three candidates, all repainted
    delta_e[1, 3:] = 1.0
    eligible = delta_e > 9.5
    capacity = 8 if strategy is Strategy.RANDOM_A else int(eligible.sum(axis=1).max())
    assert eligible.sum(axis=1).max() >= 2
    pop = Population(delta_e.copy(), np.zeros_like(delta_e), np.zeros(5, np.int64))

    count = repaint_event(pop, strategy, capacity, 9.5, [NoDraws()] * 5)

    picked = eligible if strategy is Strategy.THRESHOLD_C else np.ones_like(eligible)
    assert count == picked.sum()
    assert np.array_equal(pop.repaint_count, picked.sum(axis=1))
    assert np.array_equal(pop.delta_e, np.where(picked, 0.0, delta_e))


@pytest.mark.parametrize(
    "strategy", [Strategy.RANDOM_A, Strategy.GREEDY_B, Strategy.THRESHOLD_C]
)
@pytest.mark.parametrize("rows", [None, 5])
def test_repaint_event_writes_into_strided_views(strategy, rows):
    """Picks land in place in a population of strided views, the same
    agents as in a contiguous copy, and nothing else changes."""
    rng = np.random.default_rng(11)
    shape = (8, 30) if rows else (30,)
    cols = slice(3, 27, 2)  # 12 agents; rows of the view are not evenly spaced
    at = (slice(None, rows), cols) if rows else cols
    delta_e = np.round(rng.uniform(0.0, 12.0, size=shape))
    # every other total belongs to the view's rows
    totals = np.zeros(16 if rows else (), dtype=np.int64)
    view_totals = totals[: 2 * rows : 2] if rows else totals[...]
    view = Population(delta_e[at], np.zeros(delta_e[at].shape), view_totals)
    if rows:
        # no flat view of these rows exists: reshape(-1) would copy
        assert not np.shares_memory(view.delta_e.reshape(-1), delta_e)
        streams = [_stream(5, i) for i in range(rows)]
        copy_streams = [_stream(5, i) for i in range(rows)]
    else:
        streams, copy_streams = _stream(5, 0), _stream(5, 0)
    before = delta_e.copy()
    copy = Population(view.delta_e.copy(), view.k.copy(), view.repaint_count.copy())

    got = repaint_event(view, strategy, 3, 9.5, streams)
    want = repaint_event(copy, strategy, 3, 9.5, copy_streams)

    assert got == want > 0
    assert np.array_equal(view.delta_e, copy.delta_e)
    assert np.array_equal(view.repaint_count, copy.repaint_count)
    assert totals.sum() == got
    untouched = np.ones(shape, dtype=bool)
    untouched[at] = False
    assert np.array_equal(delta_e[untouched], before[untouched])
