import json
import random
from collections import Counter
from datetime import datetime, timedelta
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from fso.community import MatchPolicy, MatchType, match_pair
from fso.descriptions import ServiceDescription
from fso.mutualism import (
    ActionCorrespondence,
    ActionSystem,
    CorrespondenceMismatch,
    MutualisticWitness,
    check_extended,
    check_precondition,
    mutualistic_closure,
)
from fso.taxonomy import Taxonomy

from oracles import (
    all_partial_bijections,
    brute_force_witness,
    inverted,
    random_dag,
    random_mutualism_instance,
    translate_pair,
)


def make_pair(d_evals, r_evals, pairs):
    d = ActionSystem("D", d_evals)
    r = ActionSystem("R", r_evals)
    corr = ActionCorrespondence("D", "R", pairs)
    return d, r, corr


def test_animals_plants_witness():
    animals = ActionSystem("animals", {"exhaleCO2": 0, "inhaleO2": 1})
    plants = ActionSystem("plants", {"absorbCO2": 1, "emitO2": 0})
    corr = ActionCorrespondence(
        "animals", "plants", [("exhaleCO2", "absorbCO2"), ("inhaleO2", "emitO2")]
    )
    witness = check_precondition(animals, plants, corr)
    assert witness == MutualisticWitness("exhaleCO2", "emitO2")


def test_empty_action_sets_have_no_witness():
    d, r, corr = make_pair({}, {}, [])
    assert check_precondition(d, r, corr) is None
    assert check_extended(d, r, corr) is None


def test_extended_admits_costly_actions():
    d, r, corr = make_pair(
        {"sell": -1, "profit": 1},
        {"buy": 1, "pay": -1},
        [("sell", "buy"), ("profit", "pay")],
    )
    assert check_precondition(d, r, corr) is None
    assert check_extended(d, r, corr) == MutualisticWitness("sell", "pay")


def test_mismatched_correspondence_rejected():
    d = ActionSystem("D", {"x": 1})
    r = ActionSystem("R", {"y": 1})
    corr = ActionCorrespondence("D", "Q", [])
    with pytest.raises(CorrespondenceMismatch):
        check_precondition(d, r, corr)


def test_correspondence_must_be_injective():
    with pytest.raises(ValueError):
        ActionCorrespondence("D", "R", [("a", "x"), ("a", "y")])
    with pytest.raises(ValueError):
        ActionCorrespondence("D", "R", [("a", "x"), ("b", "x")])


def test_correspondence_pairs_must_name_known_actions():
    d = ActionSystem("D", {"a": 1})
    r = ActionSystem("R", {"b": 1})
    corr = ActionCorrespondence("D", "R", [("a", "nope")])
    with pytest.raises(ValueError):
        check_precondition(d, r, corr)


def test_evaluations_outside_three_classes_rejected():
    with pytest.raises(ValueError):
        ActionSystem("D", {"a": 2})


def exhaustive_sweep(max_actions, extended):
    """Compare both checks against the brute-force oracle on all instances."""
    check = check_extended if extended else check_precondition
    mismatches = 0
    for n, m in product(range(max_actions + 1), repeat=2):
        d_actions = [f"a{i}" for i in range(n)]
        r_actions = [f"b{i}" for i in range(m)]
        bijections = list(all_partial_bijections(d_actions, r_actions))
        for d_values in product((-1, 0, 1), repeat=n):
            d_evals = dict(zip(d_actions, d_values))
            for r_values in product((-1, 0, 1), repeat=m):
                r_evals = dict(zip(r_actions, r_values))
                for pairs in bijections:
                    d = ActionSystem("D", d_evals)
                    r = ActionSystem("R", r_evals)
                    corr = ActionCorrespondence("D", "R", pairs)
                    expected = brute_force_witness(d_evals, r_evals, pairs, extended)
                    actual = check(d, r, corr)
                    got = None if actual is None else (
                        actual.forward_action,
                        actual.backward_action,
                    )
                    if got != expected:
                        mismatches += 1
    return mismatches


def test_exhaustive_small_instances_match_oracle():
    assert exhaustive_sweep(2, extended=False) == 0
    assert exhaustive_sweep(2, extended=True) == 0


@given(st.integers())
@settings(max_examples=200)
def test_weakening_law(seed):
    rng = random.Random(seed)
    d_evals, r_evals, pairs = random_mutualism_instance(rng)
    d, r, corr = make_pair(d_evals, r_evals, pairs)
    if check_precondition(d, r, corr) is not None:
        assert check_extended(d, r, corr) is not None


@given(st.integers())
@settings(max_examples=200)
def test_symmetry_law(seed):
    rng = random.Random(seed)
    d_evals, r_evals, pairs = random_mutualism_instance(rng)
    d, r, corr = make_pair(d_evals, r_evals, pairs)
    forward = check_precondition(d, r, corr)
    backward = check_precondition(r, d, inverted(corr))
    assert (forward is None) == (backward is None)
    if forward is not None:
        assert backward == MutualisticWitness(
            forward.backward_action, forward.forward_action
        )


@given(st.integers())
@settings(max_examples=200)
def test_determinism(seed):
    rng = random.Random(seed)
    d_evals, r_evals, pairs = random_mutualism_instance(rng)
    d, r, corr = make_pair(d_evals, r_evals, pairs)
    assert check_precondition(d, r, corr) == check_precondition(d, r, corr)
    assert check_extended(d, r, corr) == check_extended(d, r, corr)


@given(st.integers())
@settings(max_examples=200)
def test_monotonicity_in_correspondence(seed):
    rng = random.Random(seed)
    d_evals, r_evals, pairs = random_mutualism_instance(rng)
    if not pairs:
        return
    d, r, _ = make_pair(d_evals, r_evals, pairs)
    smaller = ActionCorrespondence("D", "R", pairs[:-1])
    larger = ActionCorrespondence("D", "R", pairs)
    for check in (check_precondition, check_extended):
        if check(d, r, smaller) is not None:
            assert check(d, r, larger) is not None


def closure_oracle(systems, corrs, extended):
    """Pairwise oracle checks plus reachability by repeated squaring."""
    edges = set()
    by_id = {s.id: s for s in systems}
    for corr in corrs:
        for oriented in (corr, inverted(corr)):  # both: the oracle does not assume symmetry
            d, r = by_id[oriented.source], by_id[oriented.target]
            witness = brute_force_witness(
                d.evaluations, r.evaluations, sorted(oriented.pairs), extended
            )
            if witness is not None and d.id != r.id:
                edges.add((d.id, r.id))
    closure = set(edges)
    while True:
        extra = {
            (a, d)
            for a, b in closure
            for c, d in closure
            if b == c and a != d
        }
        if extra <= closure:
            return closure
        closure |= extra


def test_closure_of_chain():
    a = ActionSystem("A", {"a1": 0, "a2": 1})
    b = ActionSystem("B", {"b1": 1, "b2": 1})
    c = ActionSystem("C", {"c1": 1})
    ab = ActionCorrespondence("A", "B", [("a1", "b1"), ("a2", "b2")])
    bc = ActionCorrespondence("B", "C", [("b1", "c1")])
    result = mutualistic_closure([a, b, c], [ab, bc])
    assert result == {
        ("A", "B"), ("B", "A"),
        ("B", "C"), ("C", "B"),
        ("A", "C"), ("C", "A"),
    }


def test_closure_ignores_a_correspondence_of_a_system_with_itself():
    """A self-correspondence whose check passes adds no pair and changes no other."""
    a = ActionSystem("A", {"a1": 1, "a2": 1})
    b = ActionSystem("B", {"b1": 1})
    c = ActionSystem("C", {"c1": 1})
    ab = ActionCorrespondence("A", "B", [("a1", "b1")])
    aa = ActionCorrespondence("A", "A", [("a1", "a2"), ("a2", "a1")])
    assert check_precondition(a, a, aa) is not None
    for systems, corrs, expected in (([a], [aa], set()),
                                     ([a, b, c], [ab, aa], {("A", "B"), ("B", "A")})):
        assert mutualistic_closure(systems, corrs) == expected
        assert mutualistic_closure(systems, corrs[::-1], extended=True) == expected


def test_closure_without_correspondences_is_empty():
    a = ActionSystem("A", {"a": 1})
    assert mutualistic_closure([a], []) == set()


def test_closure_rejects_unlisted_systems():
    a = ActionSystem("A", {"a": 1})
    stray = ActionCorrespondence("A", "missing", [])
    with pytest.raises(ValueError):
        mutualistic_closure([a], [stray])


def test_closure_matches_oracle_on_random_instances():
    rng = random.Random(99)
    # 5 systems; then 12 systems with up to 20 correspondences, for long chains
    for rounds, size, max_corrs in ((150, 5, 6), (100, 12, 20)):
        for _ in range(rounds):
            _check_random_closure(rng, size, max_corrs)


def _check_random_closure(rng, size, max_corrs):
    ids = [f"S{i}" for i in range(size)]
    systems = []
    for sid in ids:
        n = rng.randint(1, 3)
        systems.append(
            ActionSystem(
                sid, {f"{sid}x{i}": rng.choice((-1, 0, 1)) for i in range(n)}
            )
        )
    by_id = {s.id: s for s in systems}
    corrs = []
    for _ in range(rng.randint(0, max_corrs)):
        src, dst = rng.sample(ids, 2)
        d_actions = sorted(by_id[src].evaluations)
        r_actions = sorted(by_id[dst].evaluations)
        k = rng.randint(0, min(len(d_actions), len(r_actions)))
        corrs.append(
            ActionCorrespondence(
                src, dst,
                list(zip(rng.sample(d_actions, k), rng.sample(r_actions, k))),
            )
        )
    extended = rng.random() < 0.5
    assert mutualistic_closure(systems, corrs, extended) == closure_oracle(
        systems, corrs, extended
    )


def _translation_record(rng, types):
    """A record over ``types``, mostly one that both provides and requests."""
    shape = rng.choices(("provide", "request", "both"), weights=(1, 1, 4))[0]
    day = datetime(2013, 5, 12)  # one window for all: time overlap is granted
    return ServiceDescription(
        creation_time=day,
        start_time=day,
        end_time=day + timedelta(hours=1),
        creator="http://example.org/u",
        provide=None if shape == "request" else rng.choice(types),
        request=None if shape == "provide" else rng.choice(types),
    )


def test_match_kind_follows_the_translated_precondition():
    """Matching two records is the mutualism check on their translation.

    3,000 record pairs over random DAG taxonomies, each under all four
    policies: a mutualistic or group match exactly when the strict
    precondition has a witness, a service match exactly when the offer of
    one record alone serves the other.  Each direction of the match is set
    exactly when the correspondence links that offer to that request, and
    then holds the more specific of the two types.
    """
    rng = random.Random(8)
    kinds = Counter()
    for _ in range(3000):
        names, edges = random_dag(rng, max_nodes=6)
        tax = Taxonomy(edges)
        types = names + ["Outside"]  # a type the taxonomy does not know
        d1, d2 = _translation_record(rng, types), _translation_record(rng, types)
        for special, overlap in product((False, True), repeat=2):
            policy = MatchPolicy(allow_specialization=special, require_time_overlap=overlap)
            match = match_pair(d1, d2, tax, policy)
            kind = match.kind
            kinds[kind] += 1
            d, r, corr = translate_pair(d1, d2, tax, policy)
            mutual = check_precondition(d, r, corr) is not None
            assert (kind in (MatchType.MUTUALISTIC, MatchType.GROUP)) == mutual
            assert (kind is MatchType.SERVICE) == (len(corr.pairs) == 1)
            for enacted, offered, requested, link in (
                (match.forward, d1.provide, d2.request, ("offer", "receive")),
                (match.backward, d2.provide, d1.request, ("receive", "offer")),
            ):
                assert (enacted is not None) == (link in corr.pairs)
                if enacted is not None:
                    assert enacted in (offered, requested)
                    assert tax.is_subtype(enacted, offered)
                    assert tax.is_subtype(enacted, requested)
    minimum = {MatchType.NO_MATCH: 5000, MatchType.SERVICE: 2500,
               MatchType.MUTUALISTIC: 150, MatchType.GROUP: 50}
    assert all(kinds[kind] >= count for kind, count in minimum.items()), kinds


def test_load_instance_from_json_text():
    data = json.loads(
        '{"systems": {"animals": {"exhaleCO2": 0, "inhaleO2": 1},'
        ' "plants": {"absorbCO2": 1, "emitO2": 0}},'
        ' "correspondences": [{"source": "animals", "target": "plants",'
        ' "pairs": [["exhaleCO2", "absorbCO2"], ["inhaleO2", "emitO2"]]}]}'
    )
    systems = [ActionSystem(name, evaluations) for name, evaluations in data["systems"].items()]
    corr = data["correspondences"][0]
    correspondence = ActionCorrespondence(corr["source"], corr["target"], corr["pairs"])
    assert [s.id for s in systems] == ["animals", "plants"]
    d, r = systems
    witness = check_precondition(d, r, correspondence)
    assert witness == MutualisticWitness("exhaleCO2", "emitO2")
