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
    _draws,
    _stream,
    init_population,
    paint1_config,
    repaint_event,
    run_simulation,
    weekly_capacity,
)


def oracle_repaint(delta_e, strategy, capacity, threshold, rng, candidate_counts=None):
    """One repainting event on a single replicate's (agents,) delta E;
    appends the number of candidates to `candidate_counts` when given."""
    if strategy is Strategy.BASELINE or capacity == 0:
        return 0
    if strategy is Strategy.GREEDY_B:
        order = np.argsort(-delta_e, kind="stable")
        chosen = order[:capacity]
    else:
        if strategy is Strategy.RANDOM_A:
            candidates = np.arange(len(delta_e))
        else:
            candidates = np.flatnonzero(delta_e > threshold)
        if candidate_counts is not None:
            candidate_counts.append(len(candidates))
        if len(candidates) <= capacity:
            chosen = candidates  # forced: no draw
        else:
            chosen = rng.choice(candidates, size=capacity, replace=False)
    delta_e[chosen] = 0.0
    return len(chosen)


def oracle_replicate(cfg, stream_index, k_override=None, candidate_counts=None):
    rng = _stream(cfg.master_seed, stream_index)
    delta_e, k = init_population(cfg, rng)
    if k_override is not None:
        k[:] = max(k_override, cfg.k_mean / 100.0)
    capacity = weekly_capacity(cfg)
    threshold = cfg.perception_threshold
    fracs = [float(np.mean(delta_e > threshold))]
    cums = [0]
    total = 0
    days = list(range(7, cfg.horizon_days + 1, 7))
    if cfg.horizon_days % 7:
        days.append(cfg.horizon_days)
    last = 0
    for day in days:
        delta_e += k * (day - last)
        last = day
        if day % 7 == 0:
            total += oracle_repaint(
                delta_e, cfg.strategy, capacity, threshold, rng, candidate_counts
            )
        fracs.append(float(np.mean(delta_e > threshold)))
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

# more candidates than capacity every week, so every row draws; at
# threshold 0.0 a repainted agent (at 0) leaves the recorded count, at
# -1.0 it stays in it
NAMED.update(
    {
        f"threshold_c-threshold-{threshold}": SimConfig(
            **{**FAST, "perception_threshold": threshold},
            n_agents=40,
            horizon_days=103,
            strategy=Strategy.THRESHOLD_C,
            repaint_fraction_weekly=0.1,
            replicates=5,
        )
        for threshold in (-1.0, 0.0)
    }
)

# a slow rate leaves a long prefix of weeks in which no THRESHOLD_C agent
# is above the threshold, in Monte Carlo and envelope mode, and a negative
# threshold leaves none. At 1000 days no agent can cross threshold 10.0
# twice, so its blocks take the crossing path; at 1500 they step. With
# k_sd 0, spread 0 and k·7 = 0.5, every sum is exact: the agents reach
# threshold 4.0 in week 8, equal and so not above it, and count from week 9
SLOW = dict(
    k_mean=0.01,
    k_sd=0.002,
    n_agents=40,
    horizon_days=1000,
    strategy=Strategy.THRESHOLD_C,
    repaint_fraction_weekly=0.05,
    replicates=4,
)
NAMED.update(
    {
        "threshold_c-quiet-prefix": SimConfig(**SLOW),
        "threshold_c-quiet-envelope": SimConfig(**SLOW, uncertainty_mode="envelope"),
        "threshold_c-quiet-negative": SimConfig(**SLOW, perception_threshold=-0.5),
        "threshold_c-quiet-stepped": SimConfig(**{**SLOW, "horizon_days": 1500}),
        "threshold_c-quiet-stepped-envelope": SimConfig(
            **{**SLOW, "horizon_days": 1500}, uncertainty_mode="envelope"
        ),
        "threshold_c-quiet-lands-on-threshold": SimConfig(
            k_mean=0.5 / 7,
            k_sd=0.0,
            initial_spread_max=0.0,
            perception_threshold=4.0,
            n_agents=6,
            horizon_days=100,
            strategy=Strategy.THRESHOLD_C,
            repaint_fraction_weekly=0.5,
            replicates=3,
        ),
    }
)

# slow fading, where no agent can cross the threshold twice by the horizon,
# so a block finds each agent's crossing week once (_crossed_block): weeks
# where every row is forced, and weeks where rows go over capacity and
# draw, carrying agents to the next week; horizons on and off the weekly
# grid; agents above the threshold on day 0; and envelope runs
ONCE = dict(
    k_mean=0.01,
    k_sd=0.0012,
    n_agents=40,
    strategy=Strategy.THRESHOLD_C,
    replicates=4,
)
NAMED.update(
    {
        "threshold_c-once-forced": SimConfig(
            **ONCE, horizon_days=952, repaint_fraction_weekly=0.1
        ),
        "threshold_c-once-over": SimConfig(
            **{**ONCE, "k_sd": 0.0},
            initial_spread_max=1.0,
            horizon_days=1300,
            repaint_fraction_weekly=0.03,
        ),
        "threshold_c-once-above-on-day-0": SimConfig(
            **{**ONCE, "k_mean": 0.003, "k_sd": 0.0004},
            initial_spread_max=12.0,
            horizon_days=700,
            repaint_fraction_weekly=0.05,
        ),
        "threshold_c-once-envelope": SimConfig(
            **ONCE,
            horizon_days=950,
            repaint_fraction_weekly=0.05,
            uncertainty_mode="envelope",
        ),
        # every agent lands on threshold 4.0 in week 8 and crosses in week
        # 9, more than capacity: half drawn, the rest forced in week 10;
        # from 0 they would land on it again in week 17, past the horizon
        "threshold_c-once-lands-on-threshold": SimConfig(
            k_mean=0.5 / 7,
            k_sd=0.0,
            initial_spread_max=0.0,
            perception_threshold=4.0,
            n_agents=6,
            horizon_days=105,
            strategy=Strategy.THRESHOLD_C,
            repaint_fraction_weekly=0.5,
            replicates=3,
        ),
    }
)


def crossed_blocks(monkeypatch):
    """The (rows, agents) shape of each block the engine runs by its
    agents' crossing weeks."""
    shapes, block = [], simulate._crossed_block
    monkeypatch.setattr(
        simulate,
        "_crossed_block",
        lambda cfg, pop, *a: shapes.append(pop.delta_e.shape) or block(cfg, pop, *a),
    )
    return shapes


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


@pytest.mark.parametrize("threshold", [-1.0, 0.0])
def test_threshold_cases_draw_every_week(threshold):
    cfg = NAMED[f"threshold_c-threshold-{threshold}"]
    for i in range(cfg.replicates):
        counts = []
        oracle_replicate(cfg, i, candidate_counts=counts)
        assert len(counts) == cfg.horizon_days // 7
        assert min(counts) > weekly_capacity(cfg) > 0


def test_quiet_cases_have_quiet_weeks():
    # the candidate counts the oracle sees, each week of replicate 0
    def counts(name):
        seen = []
        oracle_replicate(NAMED[name], 0, candidate_counts=seen)
        return seen

    prefix = counts("threshold_c-quiet-prefix")
    assert prefix[:30] == [0] * 30
    assert max(prefix) > weekly_capacity(NAMED["threshold_c-quiet-prefix"])
    assert min(counts("threshold_c-quiet-negative")) > 0
    landing = counts("threshold_c-quiet-lands-on-threshold")
    assert landing[:9] == [0] * 8 + [6]
    assert 0.5 / 7 * 7 == 0.5  # so week 8's sum is exactly the threshold


STEPPED = ["threshold_c-quiet-stepped", "threshold_c-quiet-stepped-envelope"]


def test_stepped_quiet_cases_step_through_their_quiet_weeks(monkeypatch):
    blocks = crossed_blocks(monkeypatch)
    for name in STEPPED:
        run_simulation(NAMED[name])
        counts = []  # the candidates of each week of replicate 0
        oracle_replicate(NAMED[name], 0, candidate_counts=counts)
        assert counts[:57] == [0] * 57 and counts[57] > 0, name
    assert blocks == []  # no block of either takes the crossing path


@pytest.mark.parametrize("name,calls", zip(STEPPED, [214, 428]))
def test_a_stepped_block_repaints_every_repaint_week(monkeypatch, name, calls):
    """A stepped block calls `repaint_event` in each repaint week, quiet
    ones included, where it finds no candidate and draws nothing."""
    shapes, event = [], simulate.repaint_event  # each call's (rows, agents)
    monkeypatch.setattr(
        simulate,
        "repaint_event",
        lambda pop, *a: shapes.append(pop.delta_e.shape) or event(pop, *a),
    )
    cfg = NAMED[name]
    run_simulation(cfg)
    weeks, envelope = cfg.horizon_days // 7, cfg.uncertainty_mode == "envelope"
    assert len(shapes) == calls
    runs = [(cfg.replicates, cfg.n_agents)] * weeks + [(2, cfg.n_agents)] * weeks * envelope
    assert shapes == runs


def test_named_cases_cover_the_grid(monkeypatch):
    cfgs = list(NAMED.values())
    blocks = crossed_blocks(monkeypatch)
    for cfg in cfgs:
        if cfg.strategy is Strategy.THRESHOLD_C:
            run_simulation(cfg)
    assert blocks  # some case is run by crossing weeks
    assert {c.strategy for c in cfgs} == set(Strategy)
    assert any(c.uncertainty_mode == "envelope" for c in cfgs)
    assert any(c.horizon_days % 7 for c in cfgs)
    assert any(weekly_capacity(c) >= c.n_agents for c in cfgs)
    assert any(
        c.strategy is Strategy.GREEDY_B and c.k_sd == 0 and c.initial_spread_max == 0
        for c in cfgs
    )


def test_once_cases_take_the_crossing_path_as_named(monkeypatch):
    blocks = crossed_blocks(monkeypatch)
    capacity = weekly_capacity(NAMED["threshold_c-once-over"])
    for name in [n for n in NAMED if "-once-" in n] + ["threshold_c-quiet-lands-on-threshold"]:
        blocks.clear()
        cfg = NAMED[name]
        run_simulation(cfg)
        envelope = cfg.uncertainty_mode == "envelope"
        assert blocks == [(cfg.replicates, cfg.n_agents)] + [(2, cfg.n_agents)] * envelope
        counts = []  # the candidates of each week of replicate 0
        oracle_replicate(cfg, 0, candidate_counts=counts)
        assert max(counts) > 0, name
        if name == "threshold_c-once-forced":
            assert 0 < max(counts) <= weekly_capacity(cfg)
        if name == "threshold_c-once-over":
            assert sum(m > capacity for m in counts) > 3
    assert NAMED["threshold_c-once-forced"].horizon_days % 7 == 0
    assert NAMED["threshold_c-once-over"].horizon_days % 7
    day0 = NAMED["threshold_c-once-above-on-day-0"]
    assert oracle_run(day0)["frac_by_rep"][:, 0].min() > 0
    # repaints that would come back above the threshold take the weekly path
    blocks.clear()
    run_simulation(NAMED["threshold_c-forced-then-over"])
    assert blocks == []


def test_the_premium_preset_takes_the_crossing_path_and_the_sweep_does_not(monkeypatch):
    """paint2-1pct fades by at most 12.6 of the 15 ΔE it would need to
    cross twice, so its one block takes the crossing path; the paint1-5pct
    sweep fades by about 69 in its 3 years, so none of its runs does."""
    from heartfade.cli import SIMULATE_PRESETS, SWEEP_PRESET_FRACTIONS, SWEEP_PRESETS

    blocks = crossed_blocks(monkeypatch)
    run_simulation(SIMULATE_PRESETS["paint2-1pct"])
    assert blocks == [(100, 1000)]
    blocks.clear()
    monkeypatch.setattr(simulate, "_cpus", lambda: 1)  # the runs in this process
    fractions = SWEEP_PRESET_FRACTIONS["paint1-5pct"]
    rows = simulate.sweep_fractions(SWEEP_PRESETS["paint1-5pct"], fractions, 1095)
    assert len(rows) == 15 and blocks == []


@pytest.mark.parametrize("name", sorted(n for n in NAMED if "-once-" in n))
def test_horizon_only_run_matches_oracle_by_crossing_weeks(name):
    cfg = NAMED[name]
    expected = oracle_run(cfg)
    want = (expected["mean_frac"][-1], expected["mean_cum_repaints"][-1])
    assert simulate._summary(cfg) == tuple(map(float, want))


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
    streams = [_stream(3, i) for i in range(len(delta_e))]
    choose = _draws(strategy, streams, delta_e.shape[1], capacity, 1)
    count = repaint_event(batched, strategy, capacity, 9.5, choose)
    assert type(count) is int

    expected = 0
    for i, row in enumerate(delta_e.copy()):
        picked = oracle_repaint(row, strategy, capacity, 9.5, _stream(3, i))
        expected += picked
        assert np.array_equal(batched.delta_e[i], row)
        assert batched.repaint_count[i] == picked == np.count_nonzero(row == 0)
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
    """Wraps a row's Generator whose picks must be computed from its raw
    words: every other draw goes through, `choice` fails."""

    def __init__(self, rng):
        self.rng = rng

    def __getattr__(self, name):
        if name == "choice":
            raise AssertionError("a replayed row called choice")
        return getattr(self.rng, name)


@pytest.mark.parametrize("mode", ["montecarlo", "envelope"])
@pytest.mark.parametrize("weeks", [1, 3, 100])
# capacity 3 is replayed in every block, the envelope's too, in 3-week and
# longer chunks, capacity 9 only in chunks longer than the horizon; in the
# other runs some block may call choice
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
        forbid_choice(monkeypatch)
    assert_bit_equal(run_simulation(cfg), oracle_run(cfg))


def forbid_choice(monkeypatch):
    stream = simulate._stream
    monkeypatch.setattr(simulate, "_stream", lambda *a: ChoiceForbidden(stream(*a)))


# capacity at most half the rows: 4 in blocks of 8 rows, and 1 in blocks of
# 3 rows and in the envelope's block of 2 (Floyd's draws, no shuffle)
@pytest.mark.parametrize(
    "agents,fraction,replicates,mode",
    [(40, 0.1, 8, "montecarlo"), (20, 0.05, 3, "envelope")],
)
def test_threshold_draws_come_from_raw_words(
    monkeypatch, agents, fraction, replicates, mode
):
    """THRESHOLD_C's rows with more candidates than capacity take their
    draws from their streams' raw words, never through choice, and match
    the oracle, which calls choice once per such row-week."""
    cfg = replace(
        NAMED["threshold_c-forced-then-over"],
        n_agents=agents,
        repaint_fraction_weekly=fraction,
        replicates=replicates,
        uncertainty_mode=mode,
    )
    counts = []
    oracle_replicate(cfg, 0, candidate_counts=counts)
    assert sum(m > weekly_capacity(cfg) for m in counts) > 3
    forbid_choice(monkeypatch)
    assert_bit_equal(run_simulation(cfg), oracle_run(cfg))


def test_threshold_past_numpy_cutoff_calls_choice():
    """Where a row may hold more than 10000 candidates with capacity above
    a fiftieth of them, numpy shuffles the tail instead of Floyd's draws:
    THRESHOLD_C then calls choice, and its weeks on both sides of the
    cutoff match the oracle."""
    cfg = SimConfig(
        **FAST,
        n_agents=13000,
        horizon_days=120,
        strategy=Strategy.THRESHOLD_C,
        repaint_fraction_weekly=0.02,
        replicates=2,
    )
    capacity = weekly_capacity(cfg)
    counts = []
    oracle_replicate(cfg, 0, candidate_counts=counts)
    assert any(m > 10000 and capacity > m // 50 for m in counts)  # tail shuffle
    assert any(capacity < m <= 10000 for m in counts)  # Floyd
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


def no_draws(rows, start, m):
    """Stands in for a block's chooser where no draw may happen."""
    raise AssertionError(f"forced rows {rows} reached the chooser")


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

    count = repaint_event(pop, strategy, capacity, 9.5, no_draws)

    picked = eligible if strategy is Strategy.THRESHOLD_C else np.ones_like(eligible)
    assert count == picked.sum()
    assert np.array_equal(pop.repaint_count, picked.sum(axis=1))
    assert np.array_equal(pop.delta_e, np.where(picked, 0.0, delta_e))


@pytest.mark.parametrize(
    "strategy", [Strategy.RANDOM_A, Strategy.GREEDY_B, Strategy.THRESHOLD_C]
)
@pytest.mark.parametrize("rows", [1, 5])
def test_repaint_event_writes_into_strided_views(strategy, rows):
    """Picks land in place in a population of strided views, the same
    agents as in a contiguous copy, and nothing else changes."""
    rng = np.random.default_rng(11)
    shape = (8, 30)
    at = (slice(None, rows), slice(3, 27, 2))  # 12 agents a row, rows not evenly spaced
    delta_e = np.round(rng.uniform(0.0, 12.0, size=shape))
    # every other total belongs to the view's rows
    totals = np.zeros(16, dtype=np.int64)
    view = Population(delta_e[at], np.zeros(delta_e[at].shape), totals[: 2 * rows : 2])
    assert not view.delta_e.flags.c_contiguous
    # one row has a strided flat view; for more, reshape(-1) would copy
    assert np.shares_memory(view.delta_e.reshape(-1), delta_e) == (rows == 1)
    before = delta_e.copy()
    copy = Population(view.delta_e.copy(), view.k.copy(), view.repaint_count.copy())

    def chooser():
        return _draws(strategy, [_stream(5, i) for i in range(rows)], 12, 3, 1)

    got = repaint_event(view, strategy, 3, 9.5, chooser())
    want = repaint_event(copy, strategy, 3, 9.5, chooser())

    assert got == want > 0
    assert np.array_equal(view.delta_e, copy.delta_e)
    assert np.array_equal(view.repaint_count, copy.repaint_count)
    assert totals.sum() == got
    untouched = np.ones(shape, dtype=bool)
    untouched[at] = False
    assert np.array_equal(delta_e[untouched], before[untouched])


def horizon_fraction(result):
    """The mean fraction above threshold at the horizon, and its standard
    error over the replicates."""
    fracs = result.frac_by_rep[:, -1]
    return fracs.mean(), fracs.std(ddof=1) / np.sqrt(len(fracs))


@pytest.mark.parametrize(
    "strategy,fraction", [(Strategy.RANDOM_A, 0.05), (Strategy.THRESHOLD_C, 0.01)]
)
def test_the_proxy_gives_the_whole_walls_figures(strategy, fraction):
    """The presets model the wall's 240,000 hearts as 1,000 agents of 240
    hearts each (cli's wall_hearts_per_agent). Over a year, the proxy (200
    replicates) and the whole wall at one agent per heart (4 replicates)
    agree: their horizon fractions within 4 combined standard errors, and
    their repaints, the proxy's times 240, within 0.5%. The repaints take a
    relative margin because THRESHOLD_C's differ by a steady 0.15%, the
    same 134 hearts after one year and after two: 2.8 standard errors, a
    gap of scale that no margin in standard errors describes."""
    year = replace(
        paint1_config(), strategy=strategy, repaint_fraction_weekly=fraction, horizon_days=365
    )
    proxy = run_simulation(replace(year, n_agents=1000, replicates=200))
    wall = run_simulation(replace(year, n_agents=240_000, replicates=4))
    (p, p_se), (w, w_se) = horizon_fraction(proxy), horizon_fraction(wall)
    assert 0 < w < 1
    assert abs(p - w) <= 4 * np.hypot(p_se, w_se)
    hearts = 240 * proxy.mean_cum_repaints[-1], wall.mean_cum_repaints[-1]
    assert hearts[1] > 0
    assert abs(hearts[0] - hearts[1]) <= 0.005 * hearts[1]
