import math
import random
import sys
import tracemalloc
from collections import Counter
from functools import reduce
from itertools import product
from operator import add
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from fso import diffusion
from fso.diffusion import (
    DEFAULT_HORIZON,
    IsolationStrategy,
    MetaNetwork,
    ScenarioSpec,
    Topology,
    Wiring,
    diffusion_measure,
    gen_fractal,
    gen_hierarchy,
    isolate,
    monte_carlo,
    run_scenario,
    scenario_from_dict,
    step,
)
from fso.inputs import InputError

import oracles
from oracles import (
    ReferenceMetaNetwork,
    connected_after_removal,
    has_cut_vertex,
    kth_set_bit,
    reference_aggregate,
    reference_isolate,
    reference_measure,
    reference_run_scenario,
    reference_settled,
    reference_step,
)


SCENARIOS = Path(__file__).parent.parent / "scenarios"


def spec(topology=Topology.FRACTAL, **overrides):
    return ScenarioSpec(topology=topology, **overrides)


def network(edges, n):
    """A fresh network over ``edges`` on a wiring of its own."""
    return MetaNetwork(Wiring(edges, n))


def units(mask):
    """Decode a knowledge bitmask into the set of unit numbers it holds."""
    return {u for u in range(mask.bit_length()) if mask >> u & 1}


def known_sets(net):
    return {agent: units(mask) for agent, mask in enumerate(net.knows)}


def as_reference(net):
    """A reference network in the state of ``net``."""
    ref = ReferenceMetaNetwork.initial(frozenset(net.edges), len(net.knows))
    ref.knows, ref.isolated = known_sets(net), set(net.isolated)
    return ref


# --- topologies -----------------------------------------------------------


def test_hierarchy_is_a_balanced_tree():
    edges = gen_hierarchy(15, 2)
    assert len(edges) == 14
    assert edges == frozenset(((i - 1) // 2, i) for i in range(1, 15))
    assert connected_after_removal(15, edges)


def test_hierarchy_single_agent():
    assert gen_hierarchy(1, 2) == frozenset()


def test_hierarchy_has_a_cut_vertex():
    assert has_cut_vertex(15, gen_hierarchy(15, 2))


def test_hierarchy_invalid_params():
    with pytest.raises(InputError, match=r"^need at least one agent$"):
        gen_hierarchy(0, 2)
    with pytest.raises(InputError, match=r"^branching must be at least 2$"):
        gen_hierarchy(15, 1)


def test_fractal_edge_counts():
    edges = gen_fractal(15, 3)
    intra = [e for e in edges if e[0] // 3 == e[1] // 3]
    bridges = [e for e in edges if e[0] // 3 != e[1] // 3]
    assert len(intra) == 15
    assert len(bridges) == 10
    assert len(edges) == 25


def test_fractal_is_biconnected():
    edges = gen_fractal(15, 3)
    for removed in range(15):
        assert connected_after_removal(15, edges, removed)


def test_fractal_single_cell_is_a_clique():
    edges = gen_fractal(3, 3)
    assert edges == frozenset({(0, 1), (0, 2), (1, 2)})
    assert not has_cut_vertex(3, edges)


def test_fractal_divisibility_enforced():
    with pytest.raises(InputError, match=r"^agent count 15 is not divisible by cell size 4$"):
        gen_fractal(15, 4)
    with pytest.raises(InputError, match=r"^cell_size must be at least 3$"):
        gen_fractal(15, 2)
    with pytest.raises(InputError, match=r"^agent count 0 is not divisible by cell size 3$"):
        gen_fractal(0, 3)


# --- stepping -------------------------------------------------------------


def test_forced_transfer_between_two_agents():
    net = network(frozenset({(0, 1)}), 2)
    step(net, random.Random(0), p=1.0)
    assert known_sets(net) == {0: {0, 1}, 1: {0, 1}}


def test_isolated_agent_never_learns():
    net = network(frozenset({(0, 1), (1, 2), (0, 2)}), 3)
    rng = random.Random(1)
    assert isolate(net, IsolationStrategy.MAX_DEGREE, rng)[1] == 0  # a tie: the lowest id
    for _ in range(50):
        step(net, rng, p=1.0)
    assert units(net.knows[0]) == {0}
    assert units(net.knows[1]) == {0, 1, 2} - {0}


def replay_step(knows, edges, isolated, rng, p):
    """Independent restatement of the documented exchange round."""
    incoming = {agent: set() for agent in knows}
    for u, v in sorted(edges):
        if u in isolated or v in isolated:
            continue
        for sender, receiver in ((u, v), (v, u)):
            if rng.random() < p:
                transferable = sorted(set(knows[sender]) - set(knows[receiver]))
                if transferable:
                    incoming[receiver].add(
                        transferable[rng.randrange(len(transferable))]
                    )
    return {agent: set(knows[agent]) | incoming[agent] for agent in knows}


@pytest.mark.parametrize("p", [1.0, 0.7, 0.3])
def test_step_matches_replay_oracle_on_path(p):
    edges = frozenset({(0, 1), (1, 2), (2, 3)})
    net = network(edges, 4)
    rng = random.Random(42)
    oracle_rng = random.Random(42)
    expected = known_sets(net)
    for _ in range(30):
        expected = replay_step(expected, edges, net.isolated, oracle_rng, p)
        step(net, rng, p)
        assert known_sets(net) == expected


def test_step_matches_replay_oracle_with_isolation():
    edges = gen_fractal(15, 3)
    net = network(edges, 15)
    rng = random.Random(5)
    oracle_rng = random.Random(5)
    expected = known_sets(net)
    for round_number in range(40):
        if round_number == 10:
            net, agent = isolate(net, IsolationStrategy.MAX_DEGREE, rng)
            # MaxDegree consumes no randomness; mirror the isolation only
        expected = replay_step(expected, edges, net.isolated, oracle_rng, 0.5)
        step(net, rng, 0.5)
        assert known_sets(net) == expected


# --- isolation ------------------------------------------------------------


def test_max_degree_picks_star_center():
    star = frozenset({(0, 1), (0, 2), (0, 3)})
    net = network(star, 4)
    _, agent = isolate(net, IsolationStrategy.MAX_DEGREE, random.Random(0))
    assert agent == 0
    assert net.isolated == {0}


def test_max_degree_tie_breaks_to_lowest_id():
    square = frozenset({(0, 1), (1, 2), (2, 3), (0, 3)})
    net = network(square, 4)
    _, agent = isolate(net, IsolationStrategy.MAX_DEGREE, random.Random(0))
    assert agent == 0


@pytest.mark.parametrize("strategy", list(IsolationStrategy))
def test_isolating_with_every_agent_cut_off_is_refused(strategy):
    net = network(gen_hierarchy(3, 2), 3)
    for _ in range(3):
        isolate(net, IsolationStrategy.MAX_DEGREE, random.Random(0))
    with pytest.raises(ValueError):
        isolate(net, strategy, random.Random(0))
    assert net.isolated == {0, 1, 2}


def test_random_isolation_is_uniform():
    draws = 10_000
    counts = {agent: 0 for agent in range(15)}
    rng = random.Random(0)
    for _ in range(draws):
        net = network(gen_fractal(15, 3), 15)
        _, agent = isolate(net, IsolationStrategy.RANDOM, rng)
        counts[agent] += 1
    expected = draws / 15
    sigma = math.sqrt(draws * (1 / 15) * (14 / 15))
    for agent, count in counts.items():
        assert abs(count - expected) <= 3 * sigma, (agent, count)


# --- measure ---------------------------------------------------------------


def test_initial_measure_is_one_over_units():
    net = network(gen_fractal(15, 3), 15)
    assert diffusion_measure(net) == pytest.approx(15 / 225)


def test_full_knowledge_measures_one():
    net = network(gen_fractal(15, 3), 15)
    rng = random.Random(0)
    for _ in range(15 * 15):  # a connected round at p=1 teaches at least one unit
        step(net, rng, p=1.0)
    assert all(units(mask) == set(range(15)) for mask in net.knows)
    assert diffusion_measure(net) == 1.0


def test_measure_matches_recount_on_random_states():
    rng = random.Random(3)
    for _ in range(100):
        net = network(gen_hierarchy(10, 2), 10)
        p = rng.choice([0.2, 0.5, 1.0])
        for _ in range(rng.randrange(12)):
            if rng.random() < 0.2 and len(net.isolated) < 10:
                isolate(net, rng.choice(list(IsolationStrategy)), rng)
            step(net, rng, p)
        recount = sum(
            1 for agent in range(10) for unit in range(10)
            if net.knows[agent] >> unit & 1
        )
        assert diffusion_measure(net) == recount / (10 * 10)


# --- scenarios --------------------------------------------------------------


def test_trace_shape_and_initial_value():
    trace = run_scenario(spec(horizon=0))
    assert trace.values == (pytest.approx(1 / 15),)


def test_trace_is_non_decreasing_and_bounded():
    trace = run_scenario(
        spec(
            horizon=80,
            isolation_events=tuple(
                (t, IsolationStrategy.MAX_DEGREE) for t in (10, 20, 40, 70)
            ),
        )
    )
    assert len(trace.values) == 81
    assert all(0 <= value <= 1 for value in trace.values)
    assert all(a <= b for a, b in zip(trace.values, trace.values[1:]))
    assert [t for t, _ in trace.isolations] == [10, 20, 40, 70]


def test_equal_specs_give_identical_traces():
    s = spec(horizon=60, seed=17)
    assert run_scenario(s) == run_scenario(s)


def test_full_diffusion_with_certain_transmission():
    for topology in Topology:
        s = spec(
            topology=topology, horizon=15 * 15, transmit_probability=1.0, seed=0
        )
        trace = run_scenario(s)
        assert trace.values[-1] == 1.0


def test_isolation_never_decreases_diffusion():
    with_isolation = run_scenario(
        spec(horizon=30, isolation_events=((10, IsolationStrategy.MAX_DEGREE),))
    )
    assert with_isolation.values[10] >= with_isolation.values[9]


def test_event_times_validated():
    with pytest.raises(InputError, match=r"^isolation time 0 outside 1\.\.10$"):
        spec(horizon=10, isolation_events=((0, IsolationStrategy.RANDOM),))
    with pytest.raises(InputError, match=r"^isolation time 11 outside 1\.\.10$"):
        spec(horizon=10, isolation_events=((11, IsolationStrategy.RANDOM),))


def test_probability_validated():
    with pytest.raises(InputError, match=r"^transmit_probability must be in \(0, 1\]$"):
        spec(transmit_probability=0.0)
    with pytest.raises(InputError, match=r"^transmit_probability must be in \(0, 1\]$"):
        spec(transmit_probability=1.5)


# --- differential check against the reference simulator -----------------------


@pytest.mark.parametrize(
    "agents,seeds", [(150, range(3)), (600, range(2))], ids=["150", "600"]
)
@pytest.mark.parametrize("topology", list(Topology))
@pytest.mark.parametrize("strategy", list(IsolationStrategy))
def test_run_scenario_matches_reference(agents, seeds, topology, strategy):
    for seed in seeds:
        s = spec(
            topology=topology,
            agents=agents,
            horizon=60,
            isolation_events=tuple((t, strategy) for t in (5, 10, 20, 40, 40)),
            seed=seed,
        )
        assert run_scenario(s) == reference_run_scenario(s)


def random_spec(rng):
    """A valid scenario, mostly small, sometimes up to 600 agents."""
    topology = rng.choice(list(Topology))
    cell_size = rng.choice([3, 4, 5])
    most = rng.choices([30, 150, 600], weights=[14, 4, 2])[0]
    if topology is Topology.FRACTAL:
        agents = cell_size * rng.randint(1, most // cell_size)
    else:
        agents = rng.randint(1, most)
    horizon = rng.choices([0, rng.randint(1, 12), rng.randint(1, 40)], weights=[1, 4, 5])[0]
    events = []
    if horizon:
        count = agents if agents <= 6 and rng.random() < 0.3 else rng.randint(0, min(agents, 6))
        shared = rng.randint(1, horizon)  # several events often share a step
        for _ in range(count):
            time = shared if rng.random() < 0.4 else rng.randint(1, horizon)
            events.append((time, rng.choice(list(IsolationStrategy))))
    return ScenarioSpec(
        topology,
        horizon=horizon,
        transmit_probability=rng.choice([0.05, 0.5, 1.0]),
        isolation_events=tuple(events),
        seed=rng.randrange(2**32),
        agents=agents,
        cell_size=cell_size,
        branching=rng.randint(2, 4),
    )


def test_run_scenario_matches_reference_on_random_specs():
    rng = random.Random(2024)
    for _ in range(220):
        s = random_spec(rng)
        assert run_scenario(s) == reference_run_scenario(s), s


def test_lockstep_with_reference_until_no_agents_left():
    rng = random.Random(8)
    for _ in range(30):
        agents = rng.randint(1, 12)
        edges = gen_hierarchy(agents, rng.randint(2, 3))
        net = network(edges, agents)
        ref = ReferenceMetaNetwork.initial(edges, agents)
        seed = rng.randrange(2**32)
        ours, theirs = random.Random(seed), random.Random(seed)
        p = rng.choice([0.05, 0.5, 1.0])
        for _ in range(agents):
            strategy = rng.choice(list(IsolationStrategy))
            assert isolate(net, strategy, ours)[1] == reference_isolate(ref, strategy, theirs)[1]
            # the draw order: each live edge low to high, then high to low
            assert net.live_links() == [link for u, v in ref.live_edges()
                                        for link in ((u, v), (v, u))]
            step(net, ours, p)
            reference_step(ref, theirs, p)
            assert diffusion_measure(net) == reference_measure(ref)
            assert known_sets(net) == ref.knows
        assert net.isolated == ref.isolated == set(range(agents))


def late_isolation_spec(rng):
    """A scenario at the paper's horizon whose isolations come at steps
    60-150, mostly after the network has settled."""
    topology = rng.choice(list(Topology))
    if topology is Topology.FRACTAL:
        agents = 3 * rng.randint(1, 10)
    else:
        agents = rng.randint(3, 30)
    events = tuple((rng.randint(60, DEFAULT_HORIZON), rng.choice(list(IsolationStrategy)))
                   for _ in range(rng.randint(1, 3)))
    return ScenarioSpec(topology, horizon=DEFAULT_HORIZON,
                        transmit_probability=rng.choice([0.05, 0.5, 1.0]),
                        isolation_events=events, seed=rng.randrange(2**32), agents=agents)


def test_run_scenario_matches_reference_after_settling():
    rng = random.Random(150)
    for _ in range(40):
        s = late_isolation_spec(rng)
        assert run_scenario(s) == reference_run_scenario(s), s


def test_settled_rounds_leave_the_rng_where_the_reference_does():
    rng = random.Random(60)
    settled_rounds = random_after_settling = settled_runs = 0
    for _ in range(40):
        s = late_isolation_spec(rng)
        assert run_scenario(s) == reference_run_scenario(s), s  # jumps the settled stretches
        edges = s.build_edges()
        net = network(edges, s.agents)
        ref = ReferenceMetaNetwork.initial(edges, s.agents)
        ours, theirs = random.Random(s.seed), random.Random(s.seed)
        for t in range(1, s.horizon + 1):
            for time, strategy in s.isolation_events:
                if time == t:
                    random_after_settling += (reference_settled(ref)
                                              and strategy is IsolationStrategy.RANDOM)
                    assert isolate(net, strategy, ours)[1] == reference_isolate(ref, strategy, theirs)[1]
            settled = reference_settled(ref)
            if settled:  # the round moves no unit and takes the words a jump takes
                before, skipped = known_sets(net), random.Random()
                skipped.setstate(ours.getstate())
                skipped.getrandbits(32 * 2 * len(net.live_links()))
                settled_rounds += 1
            step(net, ours, s.transmit_probability)
            reference_step(ref, theirs, s.transmit_probability)
            assert ours.getstate() == theirs.getstate(), (s, t)
            assert known_sets(net) == ref.knows
            if settled:
                assert ref.knows == before and ours.getstate() == skipped.getstate(), (s, t)
        settled_runs += reference_settled(ref)
    assert settled_rounds and random_after_settling and settled_runs


def test_a_settled_round_changes_no_set():
    """On random states: a round over a settled network moves no unit and takes
    two words per live link, the words a jump takes; at p = 1 a round over any
    other network moves one."""
    rng = random.Random(26)
    settled_states = unsettled_states = 0
    for topology, strategy, p in product(Topology, IsolationStrategy, [0.05, 0.5, 1.0]):
        for _ in range(20):
            agents = 3 * rng.randint(1, 6) if topology is Topology.FRACTAL else rng.randint(1, 18)
            net = network(ScenarioSpec(topology, agents=agents).build_edges(), agents)
            net.knows = [mask | rng.getrandbits(agents) for mask in net.knows]
            for _ in range(rng.randint(0, agents // 2)):
                isolate(net, strategy, rng)
            if rng.random() < 0.5:  # half the states: each live component shares its units
                while not reference_settled(as_reference(net)):
                    step(net, rng, 1.0)
            ref, before = as_reference(net), known_sets(net)
            settled = reference_settled(ref)
            ours, skipped = random.Random(rng.randrange(2**32)), random.Random()
            skipped.setstate(ours.getstate())
            skipped.getrandbits(32 * 2 * len(net.live_links()))
            step(net, ours, p)
            reference_step(ref, random.Random(rng.randrange(2**32)), p)
            if settled:
                settled_states += 1
                assert known_sets(net) == ref.knows == before
                assert ours.getstate() == skipped.getstate()
            elif p == 1.0:
                unsettled_states += 1
                assert known_sets(net) != before
    assert settled_states > 50 and unsettled_states > 10


def kept_rng(run, module, s, kind=random.Random):
    """``run(s)`` and the generator it made, a ``kind``; ``module`` makes the generator."""
    made = []

    class Kept(kind):
        def __init__(self, seed):
            super().__init__(seed)
            made.append(self)

    real = module.random
    module.random = SimpleNamespace(Random=Kept)
    try:
        trace = run(s)
    finally:
        module.random = real
    (kept,) = made
    return trace, kept


def with_final_rng(run, module, s):
    """``run(s)`` and the state its generator ends in; ``module`` makes the generator."""
    trace, kept = kept_rng(run, module, s)
    return trace, kept.getstate()


def watched_run(run, module, s, names, live_links, rounds=None):
    """``run(s)`` with ``module``'s step and isolate functions (``names``) watched.

    ``draws`` holds the generator's state after each round the run steps (the
    first ``rounds`` of them, if given) and before each random isolation (by
    its place among the isolations), in run order; ``links`` the live links
    ``live_links(net)`` of each stepped round; ``final`` the state it ends in.
    """
    draws, links, isolations = [], [], 0
    real_step, real_isolate = (getattr(module, name) for name in names)

    def stepped(net, rng, p):
        links.append(live_links(net))
        net = real_step(net, rng, p)
        if rounds is None or len(links) <= rounds:
            draws.append(("round", len(links), rng.getstate()))
        return net

    def isolated(net, strategy, rng):
        nonlocal isolations
        if strategy is IsolationStrategy.RANDOM:
            draws.append(("random", isolations, rng.getstate()))
        isolations += 1
        return real_isolate(net, strategy, rng)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(module, names[0], stepped)
        patch.setattr(module, names[1], isolated)
        trace, final = with_final_rng(run, module, s)
    return SimpleNamespace(trace=trace, draws=draws, links=links, final=final)


def assert_draws_match_reference(s) -> tuple[int, list[int]]:
    """Run ``s`` and its reference, both watched, and assert that they give
    equal traces and equal generator states after each round the run steps and
    before each random isolation.  The words of the rounds jumped after the
    last draw that was read, two per live link of the reference's rounds, must
    carry the run's final state to the reference's: they are the words a run
    never makes.  Returns the rounds stepped and the reference's live links of
    each round."""
    ours = watched_run(run_scenario, diffusion, s, ("step", "isolate"),
                       lambda net: len(net.live_links()))
    stepped = len(ours.links)
    theirs = watched_run(reference_run_scenario, oracles, s,
                         ("reference_step", "reference_isolate"),
                         lambda net: 2 * len(net.live_edges()), rounds=stepped)
    assert ours.trace == theirs.trace, s
    assert ours.draws == theirs.draws, s
    drawn_at = [ours.trace.isolations[i][0] for kind, i, _ in ours.draws if kind == "random"]
    unmade = sum(theirs.links[max([stepped + 1, *drawn_at]) - 1:])  # links, one random() each
    rest = random.Random()
    rest.setstate(ours.final)
    for _ in range(unmade):
        rest.random()
    assert rest.getstate() == theirs.final, s
    return stepped, theirs.links


def settling_spec(rng):
    """A small scenario that settles early, with isolations of both kinds
    late in it, often two at one step; horizons 0, 1 and 2 included."""
    topology = rng.choice(list(Topology))
    agents = 3 * rng.randint(1, 5) if topology is Topology.FRACTAL else rng.randint(1, 15)
    horizon = rng.choice([0, 1, 2, 150, 400])
    events = []
    if horizon:
        shared = rng.randint(horizon // 2 + 1, horizon)
        for _ in range(rng.randint(0, min(agents, 4))):
            time = shared if rng.random() < 0.4 else rng.randint(horizon // 2 + 1, horizon)
            events.append((time, rng.choice(list(IsolationStrategy))))
    return ScenarioSpec(topology, horizon=horizon,
                        transmit_probability=rng.choice([0.5, 1.0]),
                        isolation_events=tuple(events), seed=rng.randrange(2**32),
                        agents=agents)


def rounds_until_settled(s):
    """The first round after which the reference run of ``s`` is settled, or its horizon."""
    ref = ReferenceMetaNetwork.initial(s.build_edges(), s.agents)
    rng = random.Random(s.seed)
    for t in range(1, s.horizon + 1):
        for time, strategy in s.isolation_events:
            if time == t:
                reference_isolate(ref, strategy, rng)
        reference_step(ref, rng, s.transmit_probability)
        if reference_settled(ref):
            return t
    return s.horizon


def test_jumps_over_settled_stretches_match_reference(monkeypatch):
    calls = Counter()

    def watched_isolate(net, strategy, rng):
        calls[strategy, reference_settled(as_reference(net))] += 1
        return isolate(net, strategy, rng)

    monkeypatch.setattr(diffusion, "isolate", watched_isolate)
    rng = random.Random(404)
    horizons, stepped = Counter(), 0
    for _ in range(150):
        s = settling_spec(rng)
        horizons[s.horizon] += s.horizon
        rounds, _ = assert_draws_match_reference(s)
        settles = rounds_until_settled(s)  # the jump starts there, or one round later
        assert settles <= rounds <= settles + 1, s
        stepped += rounds
    assert stepped < sum(horizons.values()) // 10  # most steps were jumped over
    assert calls[IsolationStrategy.RANDOM, True] and calls[IsolationStrategy.MAX_DEGREE, True]
    assert horizons.keys() == {0, 1, 2, 150, 400}


def test_jump_longer_than_one_draw_matches_reference():
    s = spec(horizon=12_000, transmit_probability=1.0, seed=1,
             isolation_events=((11_999, IsolationStrategy.RANDOM),))
    stepped, links = assert_draws_match_reference(s)
    # 100 words per round over ~12,000 jumped rounds: the isolation pays them in two pieces
    assert 2 * sum(links[stepped:11_998]) > 1 << 20


class WordCounted(random.Random):
    """A generator that counts the Mersenne Twister words it draws (two per
    ``random()``, one per started 32 bits of ``getrandbits``) and its calls
    that take more than one."""

    def __init__(self, seed):
        self.words = self.multi_word_calls = 0
        super().__init__(seed)

    def random(self):
        self.words += 2
        return super().random()

    def getrandbits(self, k):
        self.words += -(-k // 32)
        self.multi_word_calls += k > 32
        return super().getrandbits(k)


def test_a_run_makes_no_word_after_its_last_stepped_round(monkeypatch):
    """The committed experiment specs settle and isolate by max degree only, so
    a run's words are the reference's up to the last round it steps: the
    settled rounds' words are never made, in one call or many."""
    tally, stepped = [], Counter()

    def tallied_step(net, rng, p):
        net = reference_step(net, rng, p)
        tally.append(rng.words)  # after each round of the reference
        return net

    def counted_step(net, rng, p):
        stepped["rounds"] += 1
        return step(net, rng, p)

    monkeypatch.setattr(oracles, "reference_step", tallied_step)
    monkeypatch.setattr(diffusion, "step", counted_step)
    made = unmade = 0
    for path in sorted(SCENARIOS.glob("*.json")):
        committed = diffusion.load_scenario(path)
        for r in range(3):
            s = committed._replace(seed=committed.seed + r)
            stepped.clear()
            tally.clear()
            trace, ours = kept_rng(run_scenario, diffusion, s, WordCounted)
            assert kept_rng(reference_run_scenario, oracles, s, WordCounted)[0] == trace
            assert ours.multi_word_calls == 0, (path.name, r)
            assert ours.words == tally[stepped["rounds"] - 1], (path.name, r)
            made, unmade = made + ours.words, unmade + tally[-1] - ours.words
    assert unmade > 3 * made  # most of the reference's words are never made


def large_settling_spec(rng, fewest, most):
    """A scenario of ``fewest`` to ``most`` agents that settles well before its
    horizon, then isolates at random two to four times (and at times by max
    degree).  The horizon, at most 2,000, keeps the reference run near 180,000
    link visits."""
    while True:
        topology = rng.choice(list(Topology))
        p = rng.choice([0.5, 1.0])
        agents = rng.randint(fewest, most)
        if topology is Topology.FRACTAL:  # about agents / 2p rounds to settle
            agents -= agents % 3
            links, settles = 2 * len(gen_fractal(agents, 3)), agents / 2 / p
        else:  # the root's edges carry half the units: about agents rounds at p = 1
            links, settles = 2 * (agents - 1), agents * (1 if p == 1 else 2.5)
        horizon = min(2000, 180_000 // links)
        late = int(1.1 * settles) + 20
        if horizon >= late + 20:
            break
    events = [(rng.randint(late, horizon), IsolationStrategy.RANDOM)
              for _ in range(rng.randint(2, 4))]
    events += [(rng.randint(late, horizon), IsolationStrategy.MAX_DEGREE)
               for _ in range(rng.randint(0, 1))]
    return ScenarioSpec(topology, horizon=horizon, transmit_probability=p,
                        isolation_events=tuple(events), seed=rng.randrange(2**32),
                        agents=agents)


def test_random_isolations_long_after_settling_match_reference_at_scale():
    rng = random.Random(31)
    for fewest, most in ((60, 100), (100, 200), (200, 300)):
        s = large_settling_spec(rng, fewest, most)
        stepped, _ = assert_draws_match_reference(s)
        assert stepped < min(time for time, _ in s.isolation_events), s  # all after the jump


def test_long_settled_stretch_takes_its_words_in_bounded_memory():
    # 80 MB of words if drawn at once, owed until the random isolation at the horizon
    s = spec(horizon=200_000, transmit_probability=1.0,
             isolation_events=((200_000, IsolationStrategy.RANDOM),))
    tracemalloc.start()
    try:
        trace = run_scenario(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trace.values[-1] == 1.0
    assert peak < 16 * 2**20  # the trace itself holds 3.2 MB


@pytest.mark.parametrize("p", [0.05, 0.5, 1.0])
@pytest.mark.parametrize("topology", list(Topology))
def test_run_scenario_matches_reference_at_600_agents(topology, p):
    R, M = IsolationStrategy.RANDOM, IsolationStrategy.MAX_DEGREE
    s = spec(topology=topology, agents=600, horizon=40, transmit_probability=p, seed=3,
             isolation_events=((5, R), (12, M), (12, R), (30, M), (40, R)))
    assert with_final_rng(run_scenario, diffusion, s) == with_final_rng(
        reference_run_scenario, oracles, s)


def test_single_unit_draws_leave_the_rng_where_the_reference_does():
    """Differences of one unit still draw ``getrandbits(1)`` until 0, as ``randrange(1)``."""
    rng = random.Random(1)
    single = 0
    for _ in range(60):
        agents = rng.randint(2, 4)
        edges = gen_hierarchy(agents, rng.randint(2, 3))
        net = network(edges, agents)
        ref = ReferenceMetaNetwork.initial(edges, agents)
        seed = rng.randrange(2**32)
        ours, theirs = random.Random(seed), random.Random(seed)
        p = rng.choice([0.05, 0.5, 1.0])
        while not reference_settled(ref):
            single += sum((net.knows[u] ^ net.knows[v]).bit_count() == 1 for u, v in edges)
            step(net, ours, p)
            reference_step(ref, theirs, p)
            assert ours.getstate() == theirs.getstate()
            assert known_sets(net) == ref.knows
    assert single


def test_inline_unit_draw_is_randrange():
    """``step`` draws unit indices with the stdlib's ``randrange`` loop written
    inline; a Python whose ``randrange`` draws otherwise fails here."""
    seeds = random.Random(11)
    for n in range(1, 2**10 + 1):
        seed = seeds.randrange(2**32)
        ours, theirs = random.Random(seed), random.Random(seed)
        for _ in range(3):
            k = n.bit_length()
            while (r := ours.getrandbits(k)) >= n:
                pass
            assert r == theirs.randrange(n), (seed, n)
        assert ours.getstate() == theirs.getstate(), (seed, n)


@given(st.sets(st.integers(min_value=0, max_value=699), min_size=1), st.booleans())
def test_kth_set_bit_is_kth_of_sorted_units(bits, dense):
    if dense:  # the complement: hundreds of set bits, as late in a large run
        bits = set(range(700)) - bits
    mask = sum(1 << bit for bit in bits)
    for k, bit in enumerate(sorted(bits)):
        assert kth_set_bit(mask, k) == 1 << bit


def test_aggregate_matches_three_pass_reference():
    s = spec(
        topology=Topology.HIERARCHY,
        horizon=50,
        isolation_events=((10, IsolationStrategy.MAX_DEGREE),),
        seed=11,
    )
    result = monte_carlo(s, 25)
    traces = [run_scenario(s._replace(seed=s.seed + r)) for r in range(25)]
    assert (result.mean, result.min, result.max) == reference_aggregate(traces)


def test_monte_carlo_memory_does_not_grow_with_replicates():
    s = spec(horizon=1)
    held = 2000 * sys.getsizeof(run_scenario(s).values)  # what keeping every trace holds
    monte_carlo(s, 2000)  # fills the interpreter's free lists, which tracemalloc counts
    tracemalloc.start()
    try:
        monte_carlo(s, 2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak * 5 <= held


# --- monte carlo -------------------------------------------------------------


def test_single_replicate_equals_single_run():
    s = spec(horizon=40, seed=9)
    seen = []
    result = monte_carlo(s, 1, lambda r, trace: seen.append((r, trace)))
    assert seen == [(0, run_scenario(s))]
    assert result.mean == seen[0][1].values


def test_aggregate_matches_sequential_rerun():
    s = spec(horizon=30, seed=5)
    seen = []
    result = monte_carlo(s, 8, lambda r, trace: seen.append((r, trace)))
    replayed = [run_scenario(s._replace(seed=s.seed + r)) for r in range(8)]
    assert seen == list(enumerate(replayed))
    for t in range(31):
        column = [trace.values[t] for trace in replayed]
        assert result.mean[t] == reduce(add, column) / 8  # left to right, as documented
        assert result.min[t] == min(column)
        assert result.max[t] == max(column)


def replicated_spec(rng):
    """A scenario whose replicates isolate different agents: up to 60 agents,
    random and max-degree isolations mixed, several often at one step."""
    topology = rng.choice(list(Topology))
    agents = 3 * rng.randint(1, 20) if topology is Topology.FRACTAL else rng.randint(2, 60)
    horizon = rng.randint(20, 80)
    shared = rng.randint(1, horizon)
    events = tuple((shared if rng.random() < 0.3 else rng.randint(1, horizon),
                    rng.choice(list(IsolationStrategy)))
                   for _ in range(rng.randint(2, min(agents, 6))))
    return ScenarioSpec(topology, horizon=horizon,
                        transmit_probability=rng.choice([0.05, 0.5, 1.0]),
                        isolation_events=events, seed=rng.randrange(2**32), agents=agents,
                        branching=rng.randint(2, 4))


def test_replicates_sharing_a_wiring_match_reference_runs():
    """Every replicate of ``monte_carlo`` runs on one wiring; each must still be
    the reference run of its own seed, isolations included."""
    rng = random.Random(27)
    mixed = 0
    for _ in range(20):
        s = replicated_spec(rng)
        seen = []
        result = monte_carlo(s, 20, lambda r, trace: seen.append(trace))
        expected = [reference_run_scenario(s._replace(seed=s.seed + r)) for r in range(20)]
        assert seen == expected, s
        assert (result.mean, result.min, result.max) == reference_aggregate(expected), s
        mixed += len({strategy for _, strategy in s.isolation_events}) == 2
    assert mixed >= 10


def test_wiring_keeps_only_the_max_degree_chain():
    """The memo keeps the isolated sets that max-degree isolations alone reach:
    one per event plus none, however many runs share the wiring."""
    R, M = IsolationStrategy.RANDOM, IsolationStrategy.MAX_DEGREE
    for events, kept in [(((2, M), (4, M), (4, M), (9, M)), 5),
                         (((2, M), (4, R), (6, M), (8, M)), 2),
                         (((2, R), (4, M)), 1)]:
        s = spec(agents=30, horizon=12, isolation_events=events)
        wiring = Wiring(s.build_edges(), s.agents, s.isolation_events)
        for seed in range(40):
            assert run_scenario(s, wiring, seed) == run_scenario(s._replace(seed=seed))
        assert len(wiring._memo) == kept, events


def test_wiring_entries_are_built_whole():
    """Every entry a shared wiring keeps is an immutable (live links, max-degree
    agent) pair: the reference's live links and its max-degree choice for the
    set, the lowest id among equals, and None once every agent is cut off."""
    rng = random.Random(32)
    M = IsolationStrategy.MAX_DEGREE
    specs = [replicated_spec(rng) for _ in range(12)]
    specs += [spec(topology, agents=6, horizon=12,
                   isolation_events=tuple((t, M) for t in range(1, 7)))
              for topology in Topology]
    everyone_cut = 0
    for s in specs:
        wiring = Wiring(s.build_edges(), s.agents, s.isolation_events)
        for seed in range(10):
            run_scenario(s, wiring, seed)
        for cut, entry in wiring._memo.items():
            ref = ReferenceMetaNetwork.initial(s.build_edges(), s.agents)
            ref.isolated = set(cut)
            live = [a for a in ref.agents if a not in cut]
            assert type(entry) is tuple, s
            assert entry[0] == [link for u, v in ref.live_edges() for link in ((u, v), (v, u))]
            assert entry[1] == min(live, key=lambda a: (-ref.live_degree(a), a), default=None)
            everyone_cut += not live
    assert everyone_cut >= 2


def test_wiring_memory_does_not_grow_with_replicates():
    """Random isolations give each replicate isolated sets of its own, which the
    shared wiring does not keep: 200 replicates peak no higher than 20."""
    R, M = IsolationStrategy.RANDOM, IsolationStrategy.MAX_DEGREE
    s = spec(agents=30, horizon=20, seed=4,
             isolation_events=((2, M), (4, R), (6, M), (8, R), (10, M), (12, R)))
    monte_carlo(s, 200)  # fills the interpreter's free lists, which tracemalloc counts
    peaks = []
    for replicates in (20, 200):
        tracemalloc.start()
        try:
            monte_carlo(s, replicates)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] * 1.1


def test_mean_trace_is_non_decreasing():
    result = monte_carlo(spec(horizon=50), 10)
    assert all(a <= b for a, b in zip(result.mean, result.mean[1:]))


def test_replicates_validated():
    with pytest.raises(InputError, match=r"^replicates must be at least 1$"):
        monte_carlo(spec(), 0)


# --- JSON loading -------------------------------------------------------------


def test_scenario_from_dict():
    s = scenario_from_dict(
        {
            "topology": "hierarchy",
            "horizon": 100,
            "transmit_probability": 0.5,
            "isolation_events": [[10, "max_degree"], [20, "random"]],
            "seed": 3,
        }
    )
    assert s.topology is Topology.HIERARCHY
    assert s.isolation_events == (
        (10, IsolationStrategy.MAX_DEGREE),
        (20, IsolationStrategy.RANDOM),
    )
    assert s.horizon == 100 and s.seed == 3


def test_scenario_names_fold_case_dashes_and_underscores():
    s = scenario_from_dict({"topology": " Hier-Archy ",
                            "isolation_events": [[1, "Max-Degree"], [2, "MAXDEGREE"],
                                                 [3, "ran_dom"]]})
    assert s.topology is Topology.HIERARCHY
    assert [strategy for _, strategy in s.isolation_events] == [
        IsolationStrategy.MAX_DEGREE, IsolationStrategy.MAX_DEGREE, IsolationStrategy.RANDOM]
    assert scenario_from_dict({"topology": "FRACTAL"}).topology is Topology.FRACTAL


def test_scenario_rejects_unknown_keys():
    with pytest.raises(InputError, match=r"^unknown scenario keys: \['speed'\]$"):
        scenario_from_dict({"topology": "fractal", "speed": 9})


def test_scenario_requires_topology():
    with pytest.raises(InputError, match=r"^scenario must name a topology$"):
        scenario_from_dict({"horizon": 10})
