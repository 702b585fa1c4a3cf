"""Independent oracles and generators shared across the test suite.

Everything here is deliberately written against the definitions, not
against the library code: closure via the Warshall bitset algorithm,
mutualism via exhaustive pair enumeration, knowledge diffusion via a
literal replay of the documented RNG discipline.  The diffusion section
also keeps the simulator as it was before its data layout was trimmed
(full meta-network, per-step edge sort, per-candidate degree scan,
three-pass aggregation) as the reference for differential tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from itertools import combinations, permutations

from fso.descriptions import LocationSpec, ServiceDescription
from fso.diffusion import (
    DiffusionTrace,
    IsolationStrategy,
    NoAgentsLeft,
    ScenarioSpec,
)

# --- transitive closure (taxonomy) --------------------------------------


def closure_matrix(names: list[str], edges) -> dict[str, set[str]]:
    """Reflexive-transitive closure by Warshall's algorithm on bitsets."""
    index = {name: i for i, name in enumerate(names)}
    reach = [1 << i for i in range(len(names))]
    for child, parent in edges:
        reach[index[child]] |= 1 << index[parent]
    for k in range(len(names)):
        bit = 1 << k
        for i in range(len(names)):
            if reach[i] & bit:
                reach[i] |= reach[k]
    return {
        name: {names[j] for j in range(len(names)) if reach[index[name]] >> j & 1}
        for name in names
    }


def random_dag(rng: random.Random, max_nodes: int = 50):
    """A random DAG as (names, edges); acyclic by construction."""
    n = rng.randint(2, max_nodes)
    names = [f"T{i}" for i in range(n)]
    rng.shuffle(names)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < min(0.15, 4.0 / n):
                edges.append((names[i], names[j]))
    return names, edges


# --- mutualism -----------------------------------------------------------


def brute_force_witness(d_evals, r_evals, pairs, extended=False):
    """Exhaustive double loop over all mapped action pairs.

    Returns the least (forward, backward) witness or None.
    """
    witnesses = []
    for a, fa in pairs:
        for b_src, b in pairs:
            forward_ok = r_evals[fa] > 0 and (extended or d_evals[a] >= 0)
            backward_ok = d_evals[b_src] > 0 and (extended or r_evals[b] >= 0)
            if forward_ok and backward_ok:
                witnesses.append((a, b))
    return min(witnesses) if witnesses else None


def all_partial_bijections(xs, ys):
    """Every injective partial map from xs to ys, as tuples of pairs."""
    for k in range(min(len(xs), len(ys)) + 1):
        for chosen in combinations(xs, k):
            for targets in permutations(ys, k):
                yield tuple(zip(chosen, targets))


def random_mutualism_instance(rng: random.Random, max_actions: int = 4):
    """Two random systems plus a random partial bijection between them."""
    n = rng.randint(0, max_actions)
    m = rng.randint(0, max_actions)
    d_evals = {f"a{i}": rng.choice((-1, 0, 1)) for i in range(n)}
    r_evals = {f"b{i}": rng.choice((-1, 0, 1)) for i in range(m)}
    k = rng.randint(0, min(n, m))
    sources = rng.sample(sorted(d_evals), k)
    targets = rng.sample(sorted(r_evals), k)
    pairs = tuple(zip(sources, targets))
    return d_evals, r_evals, pairs


# --- description records -------------------------------------------------

_TYPE_POOL = ("Walking", "Jogging", "Cycling", "Fitness", "Cooking", "Location",
              "Transport", "Care")


def random_type_name(rng: random.Random) -> str:
    if rng.random() < 0.25:
        return f"http://example.org/types#T{rng.randrange(50)}"
    if rng.random() < 0.5:
        return rng.choice(_TYPE_POOL)
    return f"Type_{rng.randrange(1000)}"


def random_description(rng: random.Random) -> ServiceDescription:
    created = datetime(2013, 1, 1) + timedelta(
        minutes=rng.randrange(500_000), seconds=rng.randrange(60)
    )
    if rng.random() < 0.2:
        created = created.replace(microsecond=rng.randrange(1_000_000))
    start = created + timedelta(minutes=rng.randrange(-5_000, 50_000))
    end = start + timedelta(minutes=rng.randrange(10_000))
    shape = rng.choice(("provide", "request", "both"))
    provide = random_type_name(rng) if shape in ("provide", "both") else None
    request = random_type_name(rng) if shape in ("request", "both") else None
    location = None
    if rng.random() < 0.5:
        location = LocationSpec(
            place_class=f"http://schema.org/Place{rng.randrange(20)}",
            located_in=(
                f"http://example.org/places/{rng.randrange(100)}"
                if rng.random() < 0.7
                else None
            ),
        )
    return ServiceDescription(
        creation_time=created,
        start_time=start,
        end_time=end,
        creator=f"http://example.org/user/{rng.randrange(100_000)}#this",
        provide=provide,
        request=request,
        location=location,
    )


# --- graphs --------------------------------------------------------------


def connected_after_removal(n: int, edges, removed=None) -> bool:
    """BFS connectivity of agents 0..n-1, optionally without one vertex."""
    nodes = [v for v in range(n) if v != removed]
    if not nodes:
        return True
    adjacency = {v: set() for v in nodes}
    for u, v in edges:
        if u != removed and v != removed:
            adjacency[u].add(v)
            adjacency[v].add(u)
    seen = {nodes[0]}
    frontier = [nodes[0]]
    while frontier:
        current = frontier.pop()
        for neighbor in adjacency[current]:
            if neighbor not in seen:
                seen.add(neighbor)
                frontier.append(neighbor)
    return len(seen) == len(nodes)


def has_cut_vertex(n: int, edges) -> bool:
    return any(not connected_after_removal(n, edges, removed=v) for v in range(n))


# --- knowledge diffusion (reference simulator) ----------------------------


@dataclass
class ReferenceMetaNetwork:
    """Agents x knowledge x tasks, with the agent layer carrying edges."""

    agents: tuple[int, ...]
    knowledge: tuple[int, ...]
    tasks: tuple[int, ...]
    edges: frozenset[tuple[int, int]]
    knows: dict[int, set[int]]
    assignment: dict[int, int]
    isolated: set[int] = field(default_factory=set)

    @classmethod
    def initial(cls, edges: frozenset[tuple[int, int]], n: int) -> "ReferenceMetaNetwork":
        """Fresh state: agent i knows exactly unit i and performs task i."""
        return cls(
            agents=tuple(range(n)),
            knowledge=tuple(range(n)),
            tasks=tuple(range(n)),
            edges=edges,
            knows={i: {i} for i in range(n)},
            assignment={i: i for i in range(n)},
        )

    def live_edges(self) -> list[tuple[int, int]]:
        return [
            (u, v)
            for u, v in sorted(self.edges)
            if u not in self.isolated and v not in self.isolated
        ]

    def live_degree(self, agent: int) -> int:
        if agent in self.isolated:
            return 0
        return sum(
            1
            for u, v in self.edges
            if (u == agent and v not in self.isolated)
            or (v == agent and u not in self.isolated)
        )


def reference_measure(net: ReferenceMetaNetwork) -> float:
    """Fraction of (agent, unit) pairs where the agent knows the unit."""
    total = sum(len(units) for units in net.knows.values())
    return total / (len(net.agents) * len(net.knowledge))


def reference_step(
    net: ReferenceMetaNetwork, rng: random.Random, p: float
) -> ReferenceMetaNetwork:
    """One synchronous exchange round; mutates and returns the network."""
    additions: dict[int, set[int]] = {}
    for u, v in net.live_edges():
        for sender, receiver in ((u, v), (v, u)):
            if rng.random() >= p:
                continue
            candidates = sorted(net.knows[sender] - net.knows[receiver])
            if not candidates:
                continue
            unit = candidates[rng.randrange(len(candidates))]
            additions.setdefault(receiver, set()).add(unit)
    for receiver, units in additions.items():
        net.knows[receiver] |= units
    return net


def reference_isolate(
    net: ReferenceMetaNetwork, strategy: IsolationStrategy, rng: random.Random
) -> tuple[ReferenceMetaNetwork, int]:
    """Cut one agent's edges; its knowledge is retained."""
    candidates = [a for a in net.agents if a not in net.isolated]
    if not candidates:
        raise NoAgentsLeft("all agents are already isolated")
    if strategy is IsolationStrategy.RANDOM:
        agent = candidates[rng.randrange(len(candidates))]
    else:
        agent = min(candidates, key=lambda a: (-net.live_degree(a), a))
    net.isolated.add(agent)
    return net, agent


def reference_run_scenario(spec: ScenarioSpec) -> DiffusionTrace:
    """Run one scenario to the horizon, deterministically for its seed."""
    net = ReferenceMetaNetwork.initial(spec.build_edges(), spec.agents)
    rng = random.Random(spec.seed)
    values = [reference_measure(net)]
    isolations: list[tuple[int, int]] = []
    for t in range(1, spec.horizon + 1):
        for time, strategy in spec.isolation_events:
            if time == t:
                net, agent = reference_isolate(net, strategy, rng)
                isolations.append((t, agent))
        reference_step(net, rng, spec.transmit_probability)
        values.append(reference_measure(net))
    return DiffusionTrace(tuple(values), tuple(isolations))


def reference_aggregate(traces) -> tuple[tuple[float, ...], ...]:
    """Per-step (mean, min, max) of replicate traces, one pass per statistic."""
    replicates = len(traces)
    steps = len(traces[0].values)
    mean = tuple(
        sum(trace.values[t] for trace in traces) / replicates for t in range(steps)
    )
    low = tuple(min(trace.values[t] for trace in traces) for t in range(steps))
    high = tuple(max(trace.values[t] for trace in traces) for t in range(steps))
    return mean, low, high
