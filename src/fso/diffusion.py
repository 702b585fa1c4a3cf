"""Agent-based knowledge diffusion over organization topologies.

Agent i starts knowing knowledge unit i; the agent-agent edges carry
diffusion.  Every simulation step is a synchronous round:
each live edge, in canonical sorted order, gives each direction an
independent chance ``p`` to transmit one uniformly chosen unit the sender
knows and the receiver lacks.  Transmissions are computed against the
pre-step state and applied together, so knowledge only ever grows.

Isolation events cut all of an agent's edges while its knowledge is kept,
which is how organizational disruption is modeled.  Two topologies are
built in: a balanced hierarchy (a tree, so any internal node is a cut
vertex) and a ring of clique cells joined by doubled bridges (biconnected,
so no single isolation disconnects the remaining agents).

Runs are fully deterministic for a given spec: the RNG stream is consumed
in a documented order.  Isolation draws come first at their step, then the
draws of each link in ``MetaNetwork.live_links()`` order (edges in canonical
order, each low-to-high then high-to-low); a unit draw happens only when a
transmission fires and candidates exist.

Each agent's knowledge is an integer bitmask, bit u set when it knows unit
u.  The unit drawn is the k-th lowest set bit of ``knows[sender] &
~knows[receiver]`` with ``k = randrange(popcount)``: the k-th unit of the
sorted set difference, so the order above fixes every unit drawn.  ``step``
draws ``k`` with the stdlib's own ``randrange`` loop written inline
(``getrandbits(popcount.bit_length())`` until below ``popcount``, even for a
popcount of 1), which consumes the same words.  Draws read the pre-step
masks; drawn units are OR-ed into a copy, which becomes the next state.

A network is settled once every live edge joins two agents that know the
same units: no transmission can fire, and isolation only removes edges, so
it stays settled.  ``step`` only exchanges; ``run_scenario`` compares the
ends of every live link after a round that taught nothing (its measure
repeats).  A settled round draws one ``random()`` per link, two 32-bit
Mersenne Twister words each, and uses none, so ``run_scenario`` jumps to the
next isolation step, or past the horizon: it repeats the measure and takes
the skipped rounds' words with ``getrandbits`` (2**20 words a call, so memory
does not grow with the horizon), leaving the generator where they would.
"""

from __future__ import annotations

import csv
import random
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from enum import Enum

from .inputs import InputError, check_document, get_field, read_json, reading


class IsolationStrategy(Enum):
    RANDOM = "random"
    MAX_DEGREE = "max_degree"


class Topology(Enum):
    FRACTAL = "fractal"
    HIERARCHY = "hierarchy"


def parse_name(kind: type[Enum], name, what: str):
    """The member of ``kind`` named ``name``, ignoring case, ``-`` and ``_``."""
    key = str(name).strip().lower().replace("-", "").replace("_", "")
    for member in kind:
        if member.value.replace("_", "") == key:
            return member
    raise InputError(f"unknown {what} {name!r}")


# --- topologies ---------------------------------------------------------


def gen_hierarchy(n: int, branching: int) -> frozenset[tuple[int, int]]:
    """Balanced rooted tree over agents 0..n-1 in level order."""
    if n < 1:
        raise InputError("need at least one agent")
    if branching < 2:
        raise InputError("branching must be at least 2")
    return frozenset((((i - 1) // branching), i) for i in range(1, n))


def gen_fractal(n: int, cell_size: int) -> frozenset[tuple[int, int]]:
    """Ring of clique cells with two vertex-disjoint bridges per adjacency.

    The doubled bridges make the graph biconnected: removing any single
    agent leaves the rest connected.
    """
    if cell_size < 3:
        raise InputError("cell_size must be at least 3")
    if n < 1 or n % cell_size != 0:
        raise InputError(f"agent count {n} is not divisible by cell size {cell_size}")
    cells = n // cell_size
    edges: set[tuple[int, int]] = set()
    for c in range(cells):
        base = c * cell_size
        for i in range(cell_size):
            for j in range(i + 1, cell_size):
                edges.add((base + i, base + j))
    if cells > 1:
        for c in range(cells):
            here = c * cell_size
            there = ((c + 1) % cells) * cell_size
            for a, b in ((here + cell_size - 2, there), (here + cell_size - 1, there + 1)):
                edges.add((min(a, b), max(a, b)))
    return frozenset(edges)


# --- meta-network -------------------------------------------------------


@dataclass
class MetaNetwork:
    """Agents 0..n-1: sorted edges, knowledge bitmasks, who is cut off."""

    edges: tuple[tuple[int, int], ...]
    knows: list[int]
    isolated: set[int] = field(default_factory=set)
    _live: tuple = field(default=(-1, ()), repr=False, compare=False)

    @classmethod
    def initial(cls, edges: frozenset[tuple[int, int]], n: int) -> "MetaNetwork":
        """Fresh state: agent i knows exactly unit i."""
        return cls(tuple(sorted(edges)), [1 << i for i in range(n)])

    def live_links(self) -> list[tuple[int, int]]:
        """Both directions of each edge with no isolated end, in edge order and
        low to high first: the draw order.  Rebuilt only when isolation grows."""
        cut = self.isolated
        if self._live[0] != len(cut):
            self._live = (len(cut), [link for edge in self.edges if cut.isdisjoint(edge)
                                     for link in (edge, edge[::-1])])
        return self._live[1]


def diffusion_measure(net: MetaNetwork) -> float:
    """Fraction of (agent, unit) pairs where the agent knows the unit."""
    return sum(map(int.bit_count, net.knows)) / len(net.knows) ** 2


def step(net: MetaNetwork, rng: random.Random, p: float) -> MetaNetwork:
    """One synchronous exchange round; mutates and returns the network."""
    knows = net.knows
    after = knows[:]  # every draw reads the pre-step state, every unit lands here
    draw, bits = rng.random, rng.getrandbits
    for sender, receiver in net.live_links():
        if draw() < p and (new := knows[sender] & ~knows[receiver]):
            n = new.bit_count()
            k = n.bit_length()
            while (r := bits(k)) >= n:  # r = randrange(n)
                pass
            if r == n - 1:  # the highest unit: no need to drop the rest
                after[receiver] |= 1 << (new.bit_length() - 1)
            else:
                while r:  # drop the r lowest units
                    new &= new - 1
                    r -= 1
                after[receiver] |= new & -new
    net.knows = after
    return net


def isolate(
    net: MetaNetwork, strategy: IsolationStrategy, rng: random.Random
) -> tuple[MetaNetwork, int]:
    """Cut one agent's edges; its knowledge is retained.

    Some agent must still be unisolated: ``ScenarioSpec`` allows at most
    ``agents`` isolation events.
    """
    candidates = [a for a in range(len(net.knows)) if a not in net.isolated]
    if strategy is IsolationStrategy.RANDOM:
        agent = candidates[rng.randrange(len(candidates))]
    else:
        degree = Counter(u for u, _ in net.live_links())
        agent = min(candidates, key=lambda a: (-degree[a], a))
    net.isolated.add(agent)
    return net, agent


# --- scenarios ----------------------------------------------------------

DEFAULT_TRANSMIT_PROBABILITY = 0.5
DEFAULT_HORIZON = 150
MAX_HORIZON = 1_000_000  # a trace holds horizon + 1 values per replicate
MAX_AGENTS = 10_000  # the knowledge masks take agents**2 bits
MAX_EDGES = 100_000  # a fractal cell is a clique: edges grow as cell_size**2


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything needed to reproduce one simulation run."""

    topology: Topology
    horizon: int = DEFAULT_HORIZON
    transmit_probability: float = DEFAULT_TRANSMIT_PROBABILITY
    isolation_events: tuple[tuple[int, IsolationStrategy], ...] = ()
    seed: int = 0
    agents: int = 15
    cell_size: int = 3
    branching: int = 2

    def __post_init__(self):
        for name in ("horizon", "seed", "agents", "cell_size", "branching"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise InputError(f"{name} must be an integer, got {value!r}")
        p = self.transmit_probability
        if isinstance(p, bool) or not isinstance(p, (int, float)):
            raise InputError(f"transmit_probability must be a number, got {p!r}")
        if not 0 < p <= 1:
            raise InputError("transmit_probability must be in (0, 1]")
        if self.horizon < 0:
            raise InputError("horizon must be non-negative")
        if self.horizon > MAX_HORIZON:
            raise InputError(f"horizon must be at most {MAX_HORIZON}, got {self.horizon}")
        if self.seed < 0:  # random.Random(-s) is random.Random(s): replicates would repeat
            raise InputError(f"seed must be non-negative, got {self.seed}")
        if self.agents < 1:
            raise InputError(f"agents must be at least 1, got {self.agents}")
        if self.agents > MAX_AGENTS:
            raise InputError(f"agents must be at most {MAX_AGENTS}, got {self.agents}")
        # counted before any edge is built; a hierarchy's agents - 1 edges fit anyway
        if self.topology is Topology.FRACTAL and self.cell_size >= 3:
            cells, size = self.agents // self.cell_size, self.cell_size
            edges = cells * size * (size - 1) // 2 + (2 * cells if cells > 1 else 0)
            if edges > MAX_EDGES:
                raise InputError(f"cell_size {size} with {self.agents} agents makes"
                                 f" {edges} edges, more than {MAX_EDGES}")
        for time, _ in self.isolation_events:
            if not 1 <= time <= self.horizon:
                raise InputError(f"isolation time {time} outside 1..{self.horizon}")
        if len(self.isolation_events) > self.agents:
            raise InputError(
                f"isolation_events: {len(self.isolation_events)} events"
                f" but only {self.agents} agents"
            )

    def build_edges(self) -> frozenset[tuple[int, int]]:
        if self.topology is Topology.FRACTAL:
            return gen_fractal(self.agents, self.cell_size)
        return gen_hierarchy(self.agents, self.branching)


@dataclass(frozen=True)
class DiffusionTrace:
    """Diffusion value per step (index 0 is the initial state)."""

    values: tuple[float, ...]
    isolations: tuple[tuple[int, int], ...] = ()  # (step, agent)


def run_scenario(spec: ScenarioSpec) -> DiffusionTrace:
    """Run one scenario to the horizon, deterministically for its seed."""
    net = MetaNetwork.initial(spec.build_edges(), spec.agents)
    rng = random.Random(spec.seed)
    values = [diffusion_measure(net)]
    isolations: list[tuple[int, int]] = []
    t, settled = 1, False
    while t <= spec.horizon:
        for time, strategy in spec.isolation_events:
            if time == t:
                net, agent = isolate(net, strategy, rng)
                isolations.append((t, agent))
        if settled:  # nothing changes until the next isolation: jump there
            to = min((time for time, _ in spec.isolation_events if time > t),
                     default=spec.horizon + 1)
            words = 2 * len(net.live_links()) * (to - t)  # 2 per random()
            for done in range(0, words, 1 << 20):  # at most 4 MB at a time
                rng.getrandbits(32 * min(words - done, 1 << 20))
            values += [values[-1]] * (to - t)
            t = to
        else:
            step(net, rng, spec.transmit_probability)
            values.append(diffusion_measure(net))
            t += 1
            settled = values[-1] == values[-2] and all(
                net.knows[u] == net.knows[v] for u, v in net.live_links())
    return DiffusionTrace(tuple(values), tuple(isolations))


@dataclass(frozen=True)
class MonteCarloResult:
    """Per-step aggregates of replicated runs of one spec."""

    mean: tuple[float, ...]
    min: tuple[float, ...]
    max: tuple[float, ...]

    @property
    def final_mean(self) -> float:
        return self.mean[-1]


def monte_carlo(spec: ScenarioSpec, replicates: int,
                on_replicate=None) -> MonteCarloResult:
    """Run ``replicates`` independent runs; replicate r uses seed+r.

    Each step's sum, min and max are updated as a run finishes, in replicate
    order, so the mean is the left-to-right float sum of its column and
    memory does not grow with ``replicates``.  ``on_replicate(r, trace)``,
    if given, sees each run's trace as it finishes.
    """
    if replicates < 1:
        raise InputError("replicates must be at least 1")
    for r in range(replicates):
        trace = run_scenario(replace(spec, seed=spec.seed + r))
        if on_replicate is not None:
            on_replicate(r, trace)
        if r == 0:
            total, low, high = list(trace.values), list(trace.values), list(trace.values)
            continue
        for t, value in enumerate(trace.values):
            total[t] += value
            if value < low[t]:
                low[t] = value
            elif value > high[t]:
                high[t] = value
    mean = tuple(value / replicates for value in total)
    return MonteCarloResult(mean, tuple(low), tuple(high))


# --- spec and trace I/O --------------------------------------------------

_SCENARIO_KEYS = frozenset(f.name for f in fields(ScenarioSpec))


def scenario_from_dict(data: dict) -> ScenarioSpec:
    check_document(data, "scenario", _SCENARIO_KEYS)
    if "topology" not in data:
        raise InputError("scenario must name a topology")
    events = []
    for i, event in enumerate(get_field(data, "isolation_events", list, default=())):
        if not (isinstance(event, list) and len(event) == 2 and type(event[0]) is int):
            raise InputError(
                f"isolation_events[{i}] must be [integer step, strategy], got {event!r}"
            )
        try:
            events.append((event[0], parse_name(IsolationStrategy, event[1],
                                                "isolation strategy")))
        except InputError as exc:
            raise InputError(f"isolation_events[{i}]: {exc}") from None
    kwargs = {key: data[key] for key in data.keys() - {"topology", "isolation_events"}}
    spec = ScenarioSpec(parse_name(Topology, data["topology"], "topology"),
                        isolation_events=tuple(events), **kwargs)
    spec.build_edges()  # the topology generators own the shape rules
    return spec


def load_scenario(path) -> ScenarioSpec:
    """Read and validate a scenario file; bad content names the file."""
    with reading(path):
        return scenario_from_dict(read_json(path))


@contextmanager
def _csv(path, *header):
    """Open the CSV file ``path``, write its ``header`` row and yield ``writerows``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        yield writer.writerows


def write_trace_csv(values, path):
    with _csv(path, "step", "diffusion") as writerows:
        writerows(enumerate(values))


def write_aggregate_csv(result: MonteCarloResult, path):
    with _csv(path, "step", "mean", "min", "max") as writerows:
        writerows(zip(range(len(result.mean)), result.mean, result.min, result.max))


@contextmanager
def write_replicates_csv(path):
    """Open a ``replicate,step,diffusion`` CSV and yield ``add(r, trace)``,
    which writes one replicate's rows: an ``on_replicate`` for ``monte_carlo``."""
    with _csv(path, "replicate", "step", "diffusion") as writerows:
        yield lambda r, trace: writerows((r, t, value) for t, value in enumerate(trace.values))
