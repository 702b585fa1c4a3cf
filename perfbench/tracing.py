"""Spans and counts around calls into the fso layers, recorded in memory.

The benchmark wraps public module functions and methods of the program for
the length of one traced run and restores them afterwards; no module of the
program is edited.  A timed layer records one span per call (name, start,
end, parent span); a counted layer only tallies calls and useful outcomes,
because it is called millions of times and a span per call would swamp
what it measures.  A span's self time is its duration minus the part its
child spans cover.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict


class Tracer:
    """Span and count store for one traced run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.tallies: dict[str, list[int]] = {}  # name -> [calls, hits]
        self.counts: Counter = Counter()  # extra counts from result hooks
        self.last: dict[str, object] = {}  # last receiver per layer, e.g. the Community
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # --- wrappers ---

    def timed(self, name, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    def counted(self, name, fn, is_hit=bool):
        tally = self.tallies.setdefault(name, [0, 0])

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            tally[0] += 1
            if is_hit(result):
                tally[1] += 1
            return result

        return wrapper

    # --- patching ---

    def patch(self, owner, attr: str, wrapper) -> None:
        """Replace ``owner.attr`` by ``wrapper`` everywhere the program looks it up.

        A method is replaced on its class.  A module function is replaced
        under every name that binds it in any loaded ``fso`` module, since
        ``from x import f`` copies the binding into the importing module.
        """
        original = getattr(owner, attr)
        if isinstance(owner, type):
            targets = [(owner, attr)]
        else:
            targets = [
                (module, name)
                for module_name, module in sorted(sys.modules.items())
                if module is not None
                and (module_name == "fso" or module_name.startswith("fso."))
                for name, value in sorted(vars(module).items())
                if value is original
            ]
        for target, name in targets:
            self._patched.append((target, name, original))
            setattr(target, name, wrapper)

    def restore(self) -> None:
        while self._patched:
            target, name, original = self._patched.pop()
            setattr(target, name, original)

    # --- summaries ---

    def durations(self) -> dict[str, list[float]]:
        by_name = defaultdict(list)
        for name, start, end, _ in self.spans:
            by_name[name].append(end - start)
        return by_name

    def self_times(self) -> dict[str, float]:
        covered = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals = defaultdict(float)
        for index, (name, start, end, _) in enumerate(self.spans):
            totals[name] += end - start - covered[index]
        return dict(totals)


# --- the layers ----------------------------------------------------------


def _after_parse(tracer, args, records):
    tracer.counts["descriptions.parse.records"] += len(records)
    tracer.counts["descriptions.parse.bytes"] += len(args[0].encode("utf-8"))


def _after_publish(tracer, args, events):
    tracer.last["community"] = args[0]
    for event in events:
        tracer.counts[f"community.events.{event.kind.value}"] += 1


def _after_resolve(tracer, args, resolution):
    tracer.last["organization"] = args[0]
    tracer.counts["fractal.resolve.complete"] += resolution.complete
    tracer.counts["fractal.resolve.escalations"] += len(resolution.exceptions)


def _live_edge_counter():
    """Count live edges per step, recounting only after an isolation."""
    last = [None, -1, 0]  # network, isolated count, live edges

    def after_step(tracer, args, net):
        if net is not last[0] or len(net.isolated) != last[1]:
            isolated = net.isolated
            live = sum(1 for u, v in net.edges if u not in isolated and v not in isolated)
            last[:] = [net, len(isolated), live]
        tracer.counts["diffusion.step.edge_directions"] += 2 * last[2]

    return after_step


def _after_run_scenario(tracer, args, trace):
    agents = args[0].agents
    gained = (trace.values[-1] - trace.values[0]) * agents * agents
    tracer.counts["diffusion.step.units_gained"] += round(gained)


def install(tracer: Tracer) -> None:
    """Wrap every traced layer of the loaded ``fso`` package."""
    from fso import community, descriptions, diffusion, fractal, taxonomy

    no_match = community.MatchType.NO_MATCH
    tracer.patch(descriptions, "parse_descriptions",
                 tracer.timed("descriptions.parse", descriptions.parse_descriptions,
                              _after_parse))
    tracer.patch(taxonomy, "load_taxonomy",
                 tracer.timed("taxonomy.load", taxonomy.load_taxonomy))
    tracer.patch(taxonomy.Taxonomy, "is_subtype",
                 tracer.counted("taxonomy.is_subtype", taxonomy.Taxonomy.is_subtype))
    tracer.patch(community, "load_community",
                 tracer.timed("community.load", community.load_community))
    tracer.patch(community.Community, "publish",
                 tracer.timed("community.publish", community.Community.publish,
                              _after_publish))
    tracer.patch(community, "match_pair",
                 tracer.counted("community.match_pair", community.match_pair,
                                lambda match: match.kind is not no_match))
    tracer.patch(fractal, "load_fixture",
                 tracer.timed("fractal.load", fractal.load_fixture))
    tracer.patch(fractal.FractalOrganization, "resolve",
                 tracer.timed("fractal.resolve", fractal.FractalOrganization.resolve,
                              _after_resolve))
    tracer.patch(fractal.Member, "provides",
                 tracer.counted("fractal.provides", fractal.Member.provides))
    tracer.patch(diffusion, "step",
                 tracer.timed("diffusion.step", diffusion.step, _live_edge_counter()))
    tracer.patch(diffusion, "isolate",
                 tracer.timed("diffusion.isolate", diffusion.isolate))
    tracer.patch(diffusion, "run_scenario",
                 tracer.timed("diffusion.run_scenario", diffusion.run_scenario,
                              _after_run_scenario))
    tracer.patch(diffusion, "monte_carlo",
                 tracer.timed("diffusion.monte_carlo", diffusion.monte_carlo))
    for writer in ("write_trace_csv", "write_aggregate_csv", "write_replicates_csv"):
        tracer.patch(diffusion, writer,
                     tracer.timed("diffusion.write_csv", getattr(diffusion, writer)))


def percentile(values: list[float], percent: int) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    rank = -(-len(values) * percent // 100)  # ceil without float rounding
    return sorted(values)[max(rank, 1) - 1]


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers of one traced run, keyed by metric name.

    A layer the workload never calls reads 0.
    """
    selfs = tracer.self_times()
    durations = tracer.durations()
    counts = tracer.counts
    calls = Counter({name: len(spans) for name, spans in durations.items()})
    calls_of, hits_of = {}, {}
    for name in ("taxonomy.is_subtype", "community.match_pair", "fractal.provides"):
        calls_of[name], hits_of[name] = tracer.tallies.get(name, (0, 0))
    publish_us = [d * 1e6 for d in durations["community.publish"]]
    resolve_us = [d * 1e6 for d in durations["fractal.resolve"]]
    scenario_ms = [d * 1e3 for d in durations["diffusion.run_scenario"]]
    parse_s = selfs.get("descriptions.parse", 0.0)
    community = tracer.last.get("community")
    organization = tracer.last.get("organization")
    members = (sum(len(node.members) for node in organization.root.walk())
               if organization is not None else 0)
    return {
        "descriptions.parse.calls": calls["descriptions.parse"],
        "descriptions.parse.records": counts["descriptions.parse.records"],
        "descriptions.parse.self_s": parse_s,
        "descriptions.parse.mb_per_s": _ratio(counts["descriptions.parse.bytes"] / 1e6,
                                              parse_s),
        "taxonomy.load.self_s": selfs.get("taxonomy.load", 0.0),
        "taxonomy.is_subtype.calls": calls_of["taxonomy.is_subtype"],
        "taxonomy.is_subtype.true_ratio": _ratio(hits_of["taxonomy.is_subtype"],
                                                 calls_of["taxonomy.is_subtype"]),
        "community.load.self_s": selfs.get("community.load", 0.0),
        "community.publish.calls": calls["community.publish"],
        "community.publish.self_s": selfs.get("community.publish", 0.0),
        "community.publish.p50_us": percentile(publish_us, 50),
        "community.publish.p99_us": percentile(publish_us, 99),
        "community.match_pair.calls": calls_of["community.match_pair"],
        "community.match_pair.per_publish": _ratio(calls_of["community.match_pair"],
                                                   calls["community.publish"]),
        "community.match_pair.hit_ratio": _ratio(hits_of["community.match_pair"],
                                                   calls_of["community.match_pair"]),
        "community.events.service": counts["community.events.service"],
        "community.events.mutualistic": counts["community.events.mutualistic"],
        "community.events.group": counts["community.events.group"],
        "community.pending": len(community.pending()) if community is not None else 0,
        "fractal.load.self_s": selfs.get("fractal.load", 0.0),
        "fractal.resolve.calls": calls["fractal.resolve"],
        "fractal.resolve.self_s": selfs.get("fractal.resolve", 0.0),
        "fractal.resolve.p50_us": percentile(resolve_us, 50),
        "fractal.resolve.p99_us": percentile(resolve_us, 99),
        "fractal.resolve.complete_ratio": _ratio(counts["fractal.resolve.complete"],
                                                 calls["fractal.resolve"]),
        "fractal.resolve.escalations": counts["fractal.resolve.escalations"],
        "fractal.provides.per_resolve": _ratio(calls_of["fractal.provides"],
                                               calls["fractal.resolve"]),
        "fractal.booked_ratio": _ratio(len(organization.booked), members)
        if organization is not None else 0.0,
        "diffusion.step.calls": calls["diffusion.step"],
        "diffusion.step.self_s": selfs.get("diffusion.step", 0.0),
        "diffusion.step.edge_directions": counts["diffusion.step.edge_directions"],
        "diffusion.step.units_gained": counts["diffusion.step.units_gained"],
        "diffusion.step.delivery_ratio": _ratio(counts["diffusion.step.units_gained"],
                                                counts["diffusion.step.edge_directions"]),
        "diffusion.isolate.calls": calls["diffusion.isolate"],
        "diffusion.isolate.self_s": selfs.get("diffusion.isolate", 0.0),
        "diffusion.run_scenario.calls": calls["diffusion.run_scenario"],
        "diffusion.run_scenario.self_s": selfs.get("diffusion.run_scenario", 0.0),
        "diffusion.run_scenario.p50_ms": percentile(scenario_ms, 50),
        "diffusion.run_scenario.p95_ms": percentile(scenario_ms, 95),
        "diffusion.monte_carlo.self_s": selfs.get("diffusion.monte_carlo", 0.0),
        "diffusion.write_csv.self_s": selfs.get("diffusion.write_csv", 0.0),
        "cli.self_s": selfs.get("cli", 0.0),
    }


def shares(tracer: Tracer) -> dict[str, float]:
    """Each layer's total span time as a share of the traced command."""
    durations = tracer.durations()
    total = sum(durations.pop("cli", ())) or 1.0
    return {name: sum(spans) / total for name, spans in sorted(durations.items())}
