"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL
lines as they happen.
"""

import json
import random
import time
from contextlib import contextmanager
from itertools import product
from pathlib import Path

import pytest

from fso.cli import main
from fso.community import Community, MatchPolicy, MatchType, match_pair
from fso.descriptions import (
    ValidationError,
    parse_descriptions,
    serialize_description,
)
from fso.diffusion import (
    IsolationStrategy,
    ScenarioSpec,
    Topology,
    gen_fractal,
    gen_hierarchy,
    load_scenario,
    monte_carlo,
)
from fso.fractal import load_fixture
from fso.mutualism import (
    ActionCorrespondence,
    ActionSystem,
    check_extended,
    check_precondition,
)
from fso.taxonomy import Taxonomy

import test_community
import test_fractal
from oracles import (
    all_partial_bijections,
    brute_force_witness,
    closure_matrix,
    connected_after_removal,
    has_cut_vertex,
    node_depth,
    random_dag,
    random_description,
    random_mutualism_instance,
)

DATA = Path(__file__).parent / "data"
SCENARIOS = Path(__file__).parents[1] / "scenarios"


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number:2d} {name}: PASS")


def test_criterion_1_mutualism_oracle_equivalence():
    with criterion(1, "mutualism oracle equivalence"):
        started = time.monotonic()
        discrepancies = 0
        for n, m in product(range(4), repeat=2):
            d_actions = [f"a{i}" for i in range(n)]
            r_actions = [f"b{i}" for i in range(m)]
            bijections = list(all_partial_bijections(d_actions, r_actions))
            for d_values in product((-1, 0, 1), repeat=n):
                d = ActionSystem("D", dict(zip(d_actions, d_values)))
                for r_values in product((-1, 0, 1), repeat=m):
                    r = ActionSystem("R", dict(zip(r_actions, r_values)))
                    for pairs in bijections:
                        corr = ActionCorrespondence("D", "R", pairs)
                        for extended, check in (
                            (False, check_precondition),
                            (True, check_extended),
                        ):
                            expected = brute_force_witness(
                                d.evaluations, r.evaluations, pairs, extended
                            )
                            actual = check(d, r, corr)
                            got = (
                                None
                                if actual is None
                                else (actual.forward_action, actual.backward_action)
                            )
                            if got != expected:
                                discrepancies += 1
        elapsed = time.monotonic() - started
        assert discrepancies == 0
        assert elapsed < 30.0


def test_criterion_2_weakening_law():
    with criterion(2, "weakening law on 10,000 instances"):
        rng = random.Random(1002)
        violations = 0
        for _ in range(10_000):
            d_evals, r_evals, pairs = random_mutualism_instance(rng)
            d = ActionSystem("D", d_evals)
            r = ActionSystem("R", r_evals)
            corr = ActionCorrespondence("D", "R", pairs)
            if check_precondition(d, r, corr) is not None:
                if check_extended(d, r, corr) is None:
                    violations += 1
        assert violations == 0


def test_criterion_3_symmetry_law():
    with criterion(3, "symmetry law on 10,000 instances"):
        rng = random.Random(1003)
        violations = 0
        for _ in range(10_000):
            d_evals, r_evals, pairs = random_mutualism_instance(rng)
            d = ActionSystem("D", d_evals)
            r = ActionSystem("R", r_evals)
            corr = ActionCorrespondence("D", "R", pairs)
            forward = check_precondition(d, r, corr)
            backward = check_precondition(r, d, corr.inverse())
            if (forward is None) != (backward is None):
                violations += 1
        assert violations == 0


def test_criterion_4_subsumption_oracle():
    with criterion(4, "subsumption oracle on 200 random DAGs"):
        rng = random.Random(1004)
        for _ in range(200):
            names, edges = random_dag(rng, max_nodes=50)
            tax = Taxonomy(edges)
            closure = closure_matrix(names, edges)
            for a in names:
                assert {b for b in names if tax.is_subtype(a, b)} == closure[a]
        fitness = Taxonomy(
            [("Walking", "Fitness"), ("Jogging", "Fitness"), ("Cycling", "Fitness")]
        )
        assert fitness.subtypes_of("Fitness") == {
            "Fitness",
            "Walking",
            "Jogging",
            "Cycling",
        }


def test_criterion_5_parser():
    with criterion(5, "parser exactness and round-trip"):
        from datetime import datetime

        records = parse_descriptions((DATA / "walking_service.ttl").read_text())
        assert len(records) == 1
        d = records[0]
        assert d.creation_time == datetime(2013, 5, 12, 13, 0, 0)
        assert d.start_time == datetime(2013, 5, 12, 17, 0, 0)
        assert d.end_time == datetime(2013, 5, 12, 21, 0, 0)
        assert d.creator == "http://www.pats.ua.ac.be/aal/user/15441#this"
        assert d.provide == "Walking" and d.request == "Walking"
        assert d.location.place_class == "http://schema.org/Beach"
        assert d.location.located_in == "http://dbpedia.org/resource/Borgerhout"

        rng = random.Random(1005)
        for _ in range(1_000):
            record = random_description(rng)
            assert parse_descriptions(serialize_description(record)) == [record]

        no_sides = (DATA / "walking_service.ttl").read_text().replace(
            "service:provide          service:Walking ;\n", ""
        ).replace("service:request          service:Walking ;\n", "")
        with pytest.raises(ValidationError):
            parse_descriptions(no_sides)


def test_criterion_6_matching():
    with criterion(6, "taxonomy-aware matching and the group walk"):
        tax = Taxonomy(
            [("Walking", "Fitness"), ("Jogging", "Fitness"), ("Cycling", "Fitness")]
        )
        desc = test_community.desc

        offered = match_pair(desc(provide="Walking"), desc(request="Fitness"), tax)
        assert offered.kind is MatchType.SERVICE
        assert (offered.forward, offered.backward) == ("Walking", None)

        strict = match_pair(desc(provide="Fitness"), desc(request="Walking"), tax)
        assert strict.kind is MatchType.NO_MATCH
        loose = match_pair(
            desc(provide="Fitness"),
            desc(request="Walking"),
            tax,
            MatchPolicy(allow_specialization=True),
        )
        assert loose.kind is MatchType.SERVICE

        both = match_pair(
            desc(provide="Walking", request="Walking"),
            desc(provide="Walking", request="Walking"),
            tax,
        )
        assert both.kind is MatchType.GROUP
        assert (both.forward, both.backward) == ("Walking", "Walking")

        community = Community(tax)
        for member in ("m1", "m2", "m3", "m4"):
            community.register(member)
        events = [
            event
            for member, record in (
                ("m1", desc(provide="Walking", request="Walking")),
                ("m2", desc(provide="Walking", request="Walking")),
                ("m3", desc(request="Walking")),
                ("m4", desc(provide="Location")),
            )
            for event in community.publish(member, record)
        ]
        # the group match, then the activity serving m3 and m4 binding its venue
        assert [(e.members, e.match.forward, e.match.backward) for e in events] == [
            (("m1", "m2"), "Walking", "Walking"),
            (("activity:Walking", "m3"), "Walking", None),
            (("activity:Walking", "m4"), None, "Location"),
        ]


def test_criterion_7_fso_escalation():
    with criterion(7, "escalation bounds on 1,000 random trees"):
        rng = random.Random(1007)
        locally_resolvable = 0
        for index in range(1_000):
            org = test_fractal.random_org(rng)
            cond, origin = test_fractal.random_condition(
                rng, org, favor_local=index % 2 == 0
            )
            result = org.resolve(cond)
            assert len(result.exceptions) <= node_depth(origin)
            if test_fractal.local_greedy_completes(
                origin, cond.required_roles, org.taxonomy
            ):
                locally_resolvable += 1
                assert result.complete
                assert result.exceptions == ()
        assert locally_resolvable > 100

        org, conditions = load_fixture(DATA / "sibling_fixture.json")
        result = org.resolve(conditions[0])
        assert result.complete
        assert len(result.exceptions) == 1


def test_criterion_8_topologies():
    with criterion(8, "fractal biconnectivity, hierarchy cut vertex"):
        fractal_edges = gen_fractal(15, 3)
        for removed in range(15):
            assert connected_after_removal(15, fractal_edges, removed)
        assert has_cut_vertex(15, gen_hierarchy(15, 2))


EXPERIMENT_FILES = {"S1": "baseline", "S2": "single-isolation", "S3": "repeated-isolation"}


@pytest.fixture(scope="module")
def experiment_scale_runs():
    started = time.monotonic()
    runs, traces = {}, {}
    for topology in (Topology.FRACTAL, Topology.HIERARCHY):
        for label, stem in EXPERIMENT_FILES.items():
            spec = load_scenario(SCENARIOS / f"{stem}-{topology.value}.json")
            kept = traces[(topology, label)] = []
            runs[(topology, label)] = monte_carlo(
                spec, 100, lambda r, trace: kept.append(trace))
    return runs, traces, time.monotonic() - started


def test_criterion_9_simulation_orderings(experiment_scale_runs):
    with criterion(9, "resilience orderings at experiment scale"):
        runs, traces, elapsed = experiment_scale_runs

        # (a) every trace non-decreasing in [0, 1]
        for kept in traces.values():
            for trace in kept:
                assert all(0.0 <= value <= 1.0 for value in trace.values)
                assert all(
                    a <= b for a, b in zip(trace.values, trace.values[1:])
                )

        # (b) baseline: fractal diffuses at least as well as the hierarchy
        fractal_s1 = runs[(Topology.FRACTAL, "S1")]
        hierarchy_s1 = runs[(Topology.HIERARCHY, "S1")]
        assert fractal_s1.final_mean >= hierarchy_s1.final_mean
        paired_wins = sum(
            1
            for f, h in zip(traces[(Topology.FRACTAL, "S1")],
                            traces[(Topology.HIERARCHY, "S1")])
            if f.values[-1] >= h.values[-1]
        )
        assert paired_wins >= 90

        # (c) single isolation: both topologies recover past the hit
        for topology in (Topology.FRACTAL, Topology.HIERARCHY):
            s2 = runs[(topology, "S2")]
            assert s2.mean[150] > s2.mean[10]

        # (d) repeated isolation: diffusion stays below baseline, and the
        # fractal organization still ends ahead
        for topology in (Topology.FRACTAL, Topology.HIERARCHY):
            assert (
                runs[(topology, "S3")].final_mean
                < runs[(topology, "S1")].final_mean
            )
        assert (
            runs[(Topology.FRACTAL, "S3")].final_mean
            > runs[(Topology.HIERARCHY, "S3")].final_mean
        )

        assert elapsed < 60.0


def test_committed_scenarios_are_the_experiment_specs():
    schedules = {"S1": (), "S2": (10,), "S3": (10, 20, 40, 70, 120)}
    expected = {
        f"{EXPERIMENT_FILES[label]}-{topology.value}.json": ScenarioSpec(
            topology=topology,
            horizon=150,
            transmit_probability=0.5,
            isolation_events=tuple((t, IsolationStrategy.MAX_DEGREE) for t in times),
            seed=0,
        )
        for topology in (Topology.FRACTAL, Topology.HIERARCHY)
        for label, times in schedules.items()
    }
    assert sorted(path.name for path in SCENARIOS.glob("*.json")) == sorted(expected)
    for name, spec in expected.items():
        assert load_scenario(SCENARIOS / name) == spec


def test_criterion_10_byte_identical_reruns(tmp_path):
    with criterion(10, "byte-identical reruns of every command"):
        walking = (DATA / "walking_service.ttl").read_text()
        member1 = tmp_path / "resident1.ttl"
        member2 = tmp_path / "resident2.ttl"
        member1.write_text(walking)
        member2.write_text(walking)
        scenario = tmp_path / "scenario.json"
        scenario.write_text(
            json.dumps(
                {
                    "topology": "fractal",
                    "horizon": 40,
                    "transmit_probability": 0.5,
                    "isolation_events": [[10, "max_degree"]],
                    "seed": 0,
                }
            )
        )
        commands = {
            "match": [
                "match",
                "--taxonomy",
                str(DATA / "fitness_taxonomy.txt"),
                str(member1),
                str(member2),
            ],
            "resolve": ["resolve", "--fixture", str(DATA / "sibling_fixture.json")],
            "simulate": [
                "simulate",
                "--scenario",
                str(scenario),
                "--replicates",
                "10",
            ],
        }
        for label, argv in commands.items():
            outputs = []
            for attempt in range(2):
                out = tmp_path / f"{label}-{attempt}.out"
                full = argv + ["--out", str(out)]
                assert main(full) == 0
                outputs.append(out.read_bytes())
            assert outputs[0] == outputs[1], label
