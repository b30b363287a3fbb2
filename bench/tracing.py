"""Per-layer tracing of heartfade, attached from outside the package.

`Tracer.install` replaces each public function listed in TARGETS with a
timing wrapper, both in the module that defines it and in every heartfade
module that imported it by name (so `cli.parse_ppm` and
`ingest.srgb_array_to_lab` are wrapped as well as the originals). Nothing
in heartfade itself is modified on disk.

Each wrapped call opens a frame. Self time is the frame's duration minus
the time covered by the wrapped calls nested inside it, their wrappers
included. The first SPAN_LIMIT calls of a function within one command are
also kept as spans (id, name, start, end, parent id, command); beyond
that, calls are only counted and timed, which keeps per-day functions such
as `advance_day` (600k calls per preset) from filling memory.
"""

from __future__ import annotations

import functools
import sys
import time

SPAN_LIMIT = 10_000


def _ppm_kind(args, kwargs) -> str:
    data = args[0] if args else kwargs["data"]
    head = bytes(data[:16]).split()
    return "ingest.parse_ppm." + ("p3" if head[:1] == [b"P3"] else "p6")


def _agent_days(args, kwargs, result) -> dict:
    cfg = args[0] if args else kwargs["cfg"]
    runs = cfg.replicates + (2 if cfg.uncertainty_mode == "envelope" else 0)
    return {"agent_days": runs * cfg.n_agents * cfg.horizon_days}


# (module, attribute path, span name or function of the call's arguments,
#  function (args, kwargs, result) -> stats to add, or None)
TARGETS = [
    ("heartfade.cli", "main", "cli.main", None),
    ("heartfade.cli", "fnv1a64", "cli.fnv1a64", lambda a, k, r: {"mb": len(a[0]) / 1e6}),
    (
        "heartfade.cli",
        "OutputSet.write_text",
        "cli.OutputSet.write_text",
        lambda a, k, r: {"mb": len(a[2].encode()) / 1e6},
    ),
    (
        "heartfade.ingest",
        "parse_ppm",
        _ppm_kind,
        lambda a, k, r: {"mpix": r.width * r.height / 1e6},
    ),
    (
        "heartfade.ingest",
        "mean_lab_of_region",
        "ingest.mean_lab_of_region",
        lambda a, k, r: {"mpix": a[1].w * a[1].h / 1e6},
    ),
    (
        "heartfade.ingest",
        "load_observations",
        "ingest.load_observations",
        lambda a, k, r: {"rows": len(r)},
    ),
    ("heartfade.ingest", "build_series", "ingest.build_series", None),
    (
        "heartfade.color",
        "srgb_array_to_lab",
        "color.srgb_array_to_lab",
        lambda a, k, r: {"mpix": r.size / 3 / 1e6},
    ),
    ("heartfade.rates", "estimate_heart_rate", "rates.estimate_heart_rate", None),
    ("heartfade.rates", "fit_line", "rates.fit_line", None),
    ("heartfade.rates", "aggregate_rates", "rates.aggregate_rates", None),
    ("heartfade.acceptability", "load_survey", "acceptability.load_survey", None),
    (
        "heartfade.acceptability",
        "fit_acceptability",
        "acceptability.fit_acceptability",
        None,
    ),
    ("heartfade.simulate", "run_simulation", "simulate.run_simulation", _agent_days),
    ("heartfade.simulate", "init_population", "simulate.init_population", None),
    ("heartfade.simulate", "advance_day", "simulate.advance_day", None),
    (
        "heartfade.simulate",
        "repaint_event",
        "simulate.repaint_event",
        lambda a, k, r: {"repainted": r, "capacity": a[2]},
    ),
]

LAYERS = ("cli", "ingest", "color", "rates", "acceptability", "simulate")


class _Frame:
    __slots__ = ("child_s", "span_id", "parent_span")

    def __init__(self, span_id, parent_span):
        self.child_s = 0.0
        self.span_id = span_id
        self.parent_span = parent_span


class Tracer:
    """Collects spans and per-function totals for one process."""

    def __init__(self):
        self.command = 0
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, command)
        self.totals: dict[str, dict[str, float]] = {}
        self._stack = [_Frame(None, None)]
        self._calls: dict[tuple[int, str], int] = {}
        self._next_id = 0

    def install(self) -> None:
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == "heartfade" or name.startswith("heartfade."))
        ]
        for module_name, attr, label, stats in TARGETS:
            owner = sys.modules[module_name]
            *outer, leaf = attr.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            wrapper = self._wrap(original, label, stats)
            setattr(owner, leaf, wrapper)
            if outer:
                continue  # methods are reached through their class only
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def _wrap(self, fn, label, stats):
        perf = time.perf_counter
        open_frame = self._open
        close_frame = self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter = perf()
            name = label if isinstance(label, str) else label(args, kwargs)
            frame = open_frame(name)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                close_frame(name, frame, enter, start, perf(), None)
                raise
            end = perf()
            close_frame(
                name,
                frame,
                enter,
                start,
                end,
                stats(args, kwargs, result) if stats else None,
            )
            return result

        return wrapper

    def _open(self, name: str) -> _Frame:
        key = (self.command, name)
        calls = self._calls.get(key, 0) + 1
        self._calls[key] = calls
        top = self._stack[-1]
        parent_span = top.span_id if top.span_id is not None else top.parent_span
        span_id = None
        if calls <= SPAN_LIMIT:
            span_id = self._next_id
            self._next_id += 1
        frame = _Frame(span_id, parent_span)
        self._stack.append(frame)
        return frame

    def _close(self, name, frame, enter, start, end, stats) -> None:
        self._stack.pop()
        total = self.totals.get(name)
        if total is None:
            total = self.totals[name] = {"calls": 0, "s": 0.0}
        total["calls"] += 1
        total["s"] += end - start - frame.child_s
        if stats:
            for key, value in stats.items():
                total[key] = total.get(key, 0) + value
        if frame.span_id is not None:
            self.spans.append(
                (frame.span_id, name, start, end, frame.parent_span, self.command)
            )
        # the parent is charged nothing for this call, the wrapper's own
        # work included, so tracing cost does not show up as its self time
        self._stack[-1].child_s += time.perf_counter() - enter

    def metrics(self) -> dict[str, float]:
        """Flat `<module>.<function>.<stat>` figures plus derived ones:
        per-layer self time, repaint utilisation and agent-days."""
        out = {
            f"{name}.{stat}": value
            for name, total in self.totals.items()
            for stat, value in total.items()
        }
        for layer in LAYERS:
            out[f"layer.{layer}.s"] = sum(
                t["s"] for name, t in self.totals.items() if name.split(".")[0] == layer
            )
        repaint = self.totals.get("simulate.repaint_event", {})
        capacity = repaint.get("capacity", 0)
        out["simulate.repaint_utilisation"] = (
            repaint.get("repainted", 0) / capacity if capacity else 0.0
        )
        out["simulate.agent_days"] = self.totals.get("simulate.run_simulation", {}).get(
            "agent_days", 0
        )
        return out
