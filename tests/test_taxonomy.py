import random

import pytest
from hypothesis import given, strategies as st

from fso.inputs import InputError
from fso.taxonomy import Taxonomy, parse_taxonomy

from oracles import closure_matrix, random_dag


@pytest.fixture
def fitness_taxonomy():
    return Taxonomy([("Walking", "Fitness"), ("Jogging", "Fitness"), ("Cycling", "Fitness")])


def test_fitness_children(fitness_taxonomy):
    assert fitness_taxonomy.subtypes_of("Fitness") == {
        "Fitness",
        "Walking",
        "Jogging",
        "Cycling",
    }


def test_walking_is_fitness(fitness_taxonomy):
    assert fitness_taxonomy.is_subtype("Walking", "Fitness")
    assert not fitness_taxonomy.is_subtype("Fitness", "Walking")


def test_reflexivity_on_unknown_names():
    tax = Taxonomy()
    assert tax.is_subtype("X", "X")
    assert not tax.is_subtype("X", "Y")
    assert tax.subtypes_of("X") == {"X"}


def test_subtypes_of_leaf(fitness_taxonomy):
    assert fitness_taxonomy.subtypes_of("Walking") == {"Walking"}


def test_self_edge_rejected():
    with pytest.raises(ValueError):
        Taxonomy([("A", "A")])


def test_two_cycle_rejected():
    with pytest.raises(InputError, match=r"^edge 'Fitness' -> 'Walking' would create a cycle$"):
        Taxonomy([("Walking", "Fitness"), ("Fitness", "Walking")])


def test_long_cycle_rejected():
    with pytest.raises(InputError, match=r"^edge 'D' -> 'A' would create a cycle$"):
        Taxonomy([("A", "B"), ("B", "C"), ("C", "D"), ("D", "A")])


def test_multiple_parents_allowed():
    tax = Taxonomy([("Walking", "Fitness"), ("Walking", "Transport")])
    assert tax.is_subtype("Walking", "Fitness")
    assert tax.is_subtype("Walking", "Transport")


def test_closure_matches_oracle_on_random_dags():
    rng = random.Random(7)
    for _ in range(40):
        names, edges = random_dag(rng, max_nodes=30)
        tax = Taxonomy(edges)
        closure = closure_matrix(names, edges)
        for a in names:
            assert {b for b in names if tax.is_subtype(a, b)} == closure[a]
        for b in names:
            expected = {a for a in names if b in closure[a]}
            assert tax.subtypes_of(b) == expected


def test_parse_single_edge():
    tax = parse_taxonomy("Walking subClassOf Fitness\n")
    assert tax.subclass_edges == {("Walking", "Fitness")}


def test_parse_empty_text():
    tax = parse_taxonomy("")
    assert tax.subtypes_of("Walking") == {"Walking"}
    assert tax.subclass_edges == set()
    assert repr(tax) == "Taxonomy(0 types, 0 edges)"


def test_parse_comments_and_blanks():
    text = "# a comment\n\nWalking subClassOf Fitness\n"
    tax = parse_taxonomy(text)
    assert tax.subtypes_of("Fitness") == {"Walking", "Fitness"}
    assert repr(tax) == "Taxonomy(2 types, 1 edges)"


def test_parse_malformed_line_reports_line_number():
    with pytest.raises(InputError, match=r"^line 1: expected '<child> subClassOf <parent>', got"
                                         r" 'X subClassOf'$"):
        parse_taxonomy("X subClassOf\n")
    with pytest.raises(InputError, match=r"^line 3: expected '<child> subClassOf <parent>', got"
                                         r" 'not a valid line'$"):
        parse_taxonomy("A subClassOf B\n\nnot a valid line\n")


def test_parse_cycle_propagates():
    with pytest.raises(InputError, match=r"^line 2: edge 'B' -> 'A' would create a cycle$"):
        parse_taxonomy("A subClassOf B\nB subClassOf A\n")


def test_parse_cycle_reports_its_line_number():
    with pytest.raises(InputError, match=r"^line 3: edge 'B' -> 'A' would create a cycle$"):
        parse_taxonomy("A subClassOf B\n\nB subClassOf A\n")


@st.composite
def taxonomies(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    names = [f"N{i}" for i in range(n)]
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1 :]]
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=15) if pairs else st.just([]))
    return Taxonomy(chosen), names


@given(taxonomies(), st.data())
def test_subsumption_is_transitive(tax_names, data):
    tax, names = tax_names
    a = data.draw(st.sampled_from(names))
    b = data.draw(st.sampled_from(names))
    c = data.draw(st.sampled_from(names))
    if tax.is_subtype(a, b) and tax.is_subtype(b, c):
        assert tax.is_subtype(a, c)


@given(taxonomies(), st.data())
def test_subsumption_is_antisymmetric(tax_names, data):
    tax, names = tax_names
    a = data.draw(st.sampled_from(names))
    b = data.draw(st.sampled_from(names))
    if tax.is_subtype(a, b) and tax.is_subtype(b, a):
        assert a == b


@given(taxonomies())
def test_subtypes_of_agrees_with_is_subtype(tax_names):
    tax, names = tax_names
    for b in names:
        assert tax.subtypes_of(b) == {a for a in names if tax.is_subtype(a, b)} | {b}

