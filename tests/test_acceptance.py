"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL
lines as they happen.
"""

import hashlib
import json
import math
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
    write_aggregate_csv,
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
    node_depths,
    random_dag,
    random_description,
    random_mutualism_instance,
    reference_resilience_loss,
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
            assert len(result.exceptions) <= node_depths(org.root)[origin.id]
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


def first_step_at(values, level):
    """The first step whose diffusion is at least ``level``; past the horizon if none."""
    return next((t for t, value in enumerate(values) if value >= level), len(values))


def test_resilience_loss_separates_the_topologies(experiment_scale_runs):
    """The abstract's two claims on the committed pairs: replicate r of every
    scenario runs on seed r, so a baseline and a disrupted run of one topology
    share their random numbers until the first cut.  Each threshold was set
    below what was measured (100 of 100 pairs, a mean loss of 0.0078)."""
    traces = experiment_scale_runs[1]
    fractal, hierarchy = Topology.FRACTAL, Topology.HIERARCHY

    # outperform: the fractal baseline reaches 90% diffusion first
    sooner = sum(first_step_at(f.values, 0.9) < first_step_at(h.values, 0.9)
                 for f, h in zip(traces[(fractal, "S1")], traces[(hierarchy, "S1")]))
    assert sooner >= 95

    # recover: a cut costs the fractal topology less of its baseline's diffusion
    for label in ("S2", "S3"):
        losses = {topology: [reference_resilience_loss(base.values, cut.values)
                             for base, cut in zip(traces[(topology, "S1")],
                                                  traces[(topology, label)])]
                  for topology in (fractal, hierarchy)}
        lower = sum(f < h for f, h in zip(losses[fractal], losses[hierarchy]))
        assert lower >= 95, label
        assert math.fsum(losses[fractal]) / 100 <= 0.02, label


@pytest.mark.parametrize("block", [0, 1000, 2000])
def test_resilience_loss_separates_the_topologies_under_random_cuts(block):
    """The one loss claim that is not unanimous: four random cuts (steps
    10/20/40/70) at p = 0.1, from ``scenarios/sensitivity/``, replicates
    ``block + r``.  Each seed block must carry the claim on its own: the
    fractal loss is lower in at least 80 of its 100 pairs (measured 87-89)
    and lower on average (measured 0.147-0.152 against 0.312)."""
    losses = {}
    for topology in (Topology.FRACTAL, Topology.HIERARCHY):
        traces = {}
        for stem in ("baseline", "random-isolation"):
            spec = load_scenario(SCENARIOS / "sensitivity" / f"{stem}-{topology.value}.json")
            kept = traces[stem] = []
            monte_carlo(spec._replace(seed=block), 100, lambda r, trace: kept.append(trace))
        losses[topology] = [reference_resilience_loss(base.values, cut.values)
                            for base, cut in zip(traces["baseline"], traces["random-isolation"])]
    fractal, hierarchy = losses[Topology.FRACTAL], losses[Topology.HIERARCHY]
    assert sum(f < h for f, h in zip(fractal, hierarchy)) >= 80
    assert math.fsum(fractal) < math.fsum(hierarchy)


# sha256 of each committed scenario's 100-replicate aggregate CSV: the
# experiment's bytes, which no optimization may change on any interpreter.
EXPERIMENT_DIGESTS = {
    "baseline-fractal": "7d6e3b3a8ae2aa55d313cb4ac32e20634d18cfcac1f7548f4455e6d557f0b00b",
    "baseline-hierarchy": "c9d75799994ae347774ae1572372d3f62676381300da4c2017ff52f8f113721e",
    "repeated-isolation-fractal":
        "42e64187423f17dc00ba30bd90fcbd81d59d29629b50ec3059ef648025037317",
    "repeated-isolation-hierarchy":
        "97f81c24ce6651f330e3c8842383dbad0a43694091d8a5e39e4d994f4c567dea",
    "single-isolation-fractal":
        "5cd9154d2a48bb118cc43196b281d264e6b2e6166352111dbd875822b281adf7",
    "single-isolation-hierarchy":
        "a50018a2775e0ca757703118ed6911dbd199c97f21c3c7f3b9474c74df9cd85c",
}


def test_experiment_csvs_keep_their_bytes(experiment_scale_runs, tmp_path):
    runs = experiment_scale_runs[0]
    digests = {}
    for (topology, label), result in runs.items():
        stem = f"{EXPERIMENT_FILES[label]}-{topology.value}"
        write_aggregate_csv(result, tmp_path / f"{stem}.csv")
        digests[stem] = hashlib.sha256((tmp_path / f"{stem}.csv").read_bytes()).hexdigest()
    assert digests == EXPERIMENT_DIGESTS


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
