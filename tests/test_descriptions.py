import random
from datetime import datetime, timezone
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fso.descriptions import (
    LOCATED_IN_IRI,
    SERVICE_NS,
    XSD_NS,
    LocationSpec,
    ParseError,
    ServiceDescription,
    ValidationError,
    parse_descriptions,
    serialize_description,
)

from fso.inputs import InputError
from oracles import random_description, reference_parse_descriptions

DATA = Path(__file__).parent / "data"

PREFIX_BLOCK = (
    "@prefix service: <http://www.pats.ua.ac.be/AALService#> .\n"
    "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n"
)


def make_description(**overrides):
    fields = dict(
        creation_time=datetime(2013, 5, 12, 13, 0, 0),
        start_time=datetime(2013, 5, 12, 17, 0, 0),
        end_time=datetime(2013, 5, 12, 21, 0, 0),
        creator="http://example.org/user/1#this",
        provide="Walking",
        request="Walking",
    )
    fields.update(overrides)
    return ServiceDescription(**fields)


def test_verbatim_sample_parses_to_exact_fields():
    records = parse_descriptions((DATA / "walking_service.ttl").read_text())
    assert len(records) == 1
    d = records[0]
    assert d.creation_time == datetime(2013, 5, 12, 13, 0, 0)
    assert d.start_time == datetime(2013, 5, 12, 17, 0, 0)
    assert d.end_time == datetime(2013, 5, 12, 21, 0, 0)
    assert d.creator == "http://www.pats.ua.ac.be/aal/user/15441#this"
    assert d.provide == "Walking"
    assert d.request == "Walking"
    assert d.location == LocationSpec(
        place_class="http://schema.org/Beach",
        located_in="http://dbpedia.org/resource/Borgerhout",
    )


def test_prefixes_only_yields_no_records():
    assert parse_descriptions(PREFIX_BLOCK) == []


def test_missing_provide_and_request_is_invalid():
    text = PREFIX_BLOCK + (
        '[\n'
        '  service:creationTime "2013-05-12T13:00:00"^^xsd:dateTime ;\n'
        '  service:startTime "2013-05-12T17:00:00"^^xsd:dateTime ;\n'
        '  service:endTime "2013-05-12T21:00:00"^^xsd:dateTime ;\n'
        '  service:hasCreator <http://example.org/u/1>\n'
        '] .\n'
    )
    with pytest.raises(ValidationError):
        parse_descriptions(text)
    with pytest.raises(ValidationError):
        make_description(provide=None, request=None)


def test_start_after_end_is_invalid():
    with pytest.raises(ValidationError):
        make_description(
            start_time=datetime(2013, 5, 12, 22, 0, 0),
            end_time=datetime(2013, 5, 12, 21, 0, 0),
        )


def test_timezone_aware_timestamps_rejected():
    with pytest.raises(ValidationError):
        make_description(start_time=datetime(2013, 5, 12, 17, tzinfo=timezone.utc))


def test_timestamps_must_be_datetimes():
    with pytest.raises(ValidationError, match=r"^start_time must be a datetime$"):
        make_description(start_time="2013-05-12T17:00:00")


def test_empty_place_class_rejected():
    with pytest.raises(ValidationError):
        LocationSpec(place_class="")


def test_parse_error_carries_offset():
    bad = PREFIX_BLOCK + "} .\n"
    with pytest.raises(ParseError) as excinfo:
        parse_descriptions(bad)
    assert excinfo.value.offset == len(PREFIX_BLOCK)


def test_unknown_predicate_rejected():
    text = PREFIX_BLOCK + (
        '[\n'
        '  service:creationTime "2013-05-12T13:00:00"^^xsd:dateTime ;\n'
        '  service:color <http://example.org/blue>\n'
        '] .\n'
    )
    with pytest.raises(ParseError, match="unrecognized predicate"):
        parse_descriptions(text)


def test_duplicate_predicate_rejected():
    text = PREFIX_BLOCK + (
        '[\n'
        '  service:provide service:Walking ;\n'
        '  service:provide service:Jogging\n'
        '] .\n'
    )
    with pytest.raises(ParseError, match="duplicate"):
        parse_descriptions(text)


def test_undeclared_prefix_rejected():
    text = "[\n  svc:provide svc:Walking\n] .\n"
    with pytest.raises(ParseError, match="undeclared prefix"):
        parse_descriptions(text)


def test_unsupported_datatype_rejected():
    text = PREFIX_BLOCK + (
        '[\n  service:creationTime "5"^^xsd:integer\n] .\n'
    )
    with pytest.raises(ParseError, match="unsupported datatype"):
        parse_descriptions(text)


def test_multiple_records_in_document_order():
    one = serialize_description(make_description(provide="Walking", request=None))
    two = serialize_description(make_description(provide=None, request="Fitness"))
    records = parse_descriptions(one + "\n" + two)
    assert [r.provide for r in records] == ["Walking", None]


def test_roundtrip_of_verbatim_sample():
    first = parse_descriptions((DATA / "walking_service.ttl").read_text())[0]
    again = parse_descriptions(serialize_description(first))[0]
    assert again == first


def test_canonical_text_of_a_full_record():
    """Line by line: a round trip cannot see the order of the lines."""
    d = make_description(
        location=LocationSpec("http://schema.org/Beach", "http://dbpedia.org/resource/Borgerhout"),
        request="http://example.org/types/Fitness",
    )
    assert serialize_description(d) == (
        "@prefix service: <http://www.pats.ua.ac.be/AALService#> .\n"
        "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n"
        "\n"
        "[\n"
        '  service:creationTime "2013-05-12T13:00:00"^^xsd:dateTime ;\n'
        '  service:endTime "2013-05-12T21:00:00"^^xsd:dateTime ;\n'
        "  service:hasCreator <http://example.org/user/1#this> ;\n"
        "  service:hasServiceLocation [\n"
        "    a <http://schema.org/Beach> ;\n"
        "    <http://dbpedia.org/ontology/location> <http://dbpedia.org/resource/Borgerhout>\n"
        "  ] ;\n"
        "  service:provide service:Walking ;\n"
        "  service:request <http://example.org/types/Fitness> ;\n"
        '  service:startTime "2013-05-12T17:00:00"^^xsd:dateTime\n'
        "] .\n"
    )


def test_serialization_is_deterministic():
    a = make_description()
    b = make_description()
    assert serialize_description(a) == serialize_description(b)


def test_full_iri_service_type_normalizes_to_local_name():
    text = PREFIX_BLOCK + (
        '[\n'
        '  service:creationTime "2013-05-12T13:00:00"^^xsd:dateTime ;\n'
        '  service:startTime "2013-05-12T17:00:00"^^xsd:dateTime ;\n'
        '  service:endTime "2013-05-12T21:00:00"^^xsd:dateTime ;\n'
        '  service:hasCreator <http://example.org/u/1> ;\n'
        '  service:provide <http://www.pats.ua.ac.be/AALService#Walking>\n'
        '] .\n'
    )
    assert parse_descriptions(text)[0].provide == "Walking"
    bare = text.replace("AALService#Walking>", "AALService#>")  # no local name to keep
    assert parse_descriptions(bare)[0].provide == SERVICE_NS


def test_roundtrip_on_generated_records():
    rng = random.Random(20260809)
    for _ in range(300):
        d = random_description(rng)
        text = serialize_description(d)
        assert parse_descriptions(text) == [d]


@st.composite
def descriptions_strategy(draw):
    naive = st.datetimes(
        min_value=datetime(1900, 1, 1), max_value=datetime(2200, 1, 1)
    )
    start = draw(naive)
    end = draw(naive.filter(lambda value: value >= start))
    shape = draw(st.sampled_from(["provide", "request", "both"]))
    name = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,10}", fullmatch=True)
    return ServiceDescription(
        creation_time=draw(naive),
        start_time=start,
        end_time=end,
        creator=f"http://example.org/u/{draw(st.integers(0, 999))}",
        provide=draw(name) if shape in ("provide", "both") else None,
        request=draw(name) if shape in ("request", "both") else None,
    )


@given(descriptions_strategy())
def test_roundtrip_property(d):
    assert parse_descriptions(serialize_description(d)) == [d]


# Names near the edges of what a token carries: a trailing newline, which
# ``$`` would let through, space, angle brackets, the service namespace.
_EDGE_NAMES = ["Walk\n", "Walk ", "a b", "<x>", "x>", "", "_", "Walk.", "1x", "é",
               SERVICE_NS, SERVICE_NS + "Walk", "http://example.org/x#y"]
_ANY_NAME = st.text(max_size=12) | st.sampled_from(_EDGE_NAMES)


@st.composite
def any_name_descriptions(draw):
    """A record whose types, creator and places are any text."""
    provide = draw(st.none() | _ANY_NAME)
    request = draw(_ANY_NAME if provide is None else st.none() | _ANY_NAME)
    location = draw(st.none() | st.builds(LocationSpec, _ANY_NAME.filter(bool),
                                          st.none() | _ANY_NAME))
    stamp = draw(st.datetimes())
    return ServiceDescription(stamp, stamp, stamp, draw(_ANY_NAME), provide, request, location)


@given(any_name_descriptions())
def test_serialized_record_parses_back_or_is_refused(d):
    """A record reads back from its text unless a name holds whitespace, ``<`` or
    ``>``, or a type names the service namespace and more; then it is refused."""
    place = d.location or LocationSpec("x")
    names = [d.creator, d.provide, d.request, place.place_class, place.located_in]
    types = [name for name in (d.provide, d.request) if name is not None]
    if any(c.isspace() or c in "<>" for name in names if name is not None for c in name) or any(
            name.startswith(SERVICE_NS) and name != SERVICE_NS for name in types):
        with pytest.raises(ValueError):
            serialize_description(d)
    else:
        assert parse_descriptions(serialize_description(d)) == [d]


@pytest.mark.parametrize("field,name", [("provide", "Walk\n"), ("request", SERVICE_NS + "Walk"),
                                        ("creator", "http://example.org/a b"),
                                        ("creator", "http://example.org/<u>")])
def test_names_that_no_token_carries_are_refused(field, name):
    d = make_description(**{field: name})
    with pytest.raises(ValueError, match="read back|carry"):
        serialize_description(d)


# --- differential test against the reference parser ------------------------------


def ragged_document(rng: random.Random, count: int) -> tuple[str, list[ServiceDescription]]:
    """``count`` random records written the way member files write them, not
    canonically: comments, irregular whitespace, optional ``a`` markers,
    full and prefixed IRIs, and location blocks with bare IRIs."""

    def gap():
        return rng.choice([" ", "  ", "\t", "\n", "\n  ", "\r\n", " # note ; [ ]\n"])

    def type_ref(name):
        if "/" in name:
            return f"<{name}>"
        return rng.choice([f"service:{name}", f"<{SERVICE_NS}{name}>"])

    def stamp(moment):
        datatype = rng.choice(["xsd:dateTime", f"<{XSD_NS}dateTime>"])
        return f'"{moment.isoformat()}"^^{datatype}'

    chunks = [f"# {count} records\n@prefix service: <{SERVICE_NS}> .", gap(),
              f"@prefix xsd: <{XSD_NS}> .", gap()]
    records = [random_description(rng) for _ in range(count)]
    for d in records:
        creator = f"<{d.creator}>"
        if rng.random() < 0.5:  # redeclared before each record that uses it
            chunks.append(f"@prefix me: <{d.creator.removesuffix('this')}> .{gap()}")
            creator = "me:this"
        statements = [
            f"service:creationTime {stamp(d.creation_time)}",
            f"service:startTime {stamp(d.start_time)}",
            f"service:endTime {stamp(d.end_time)}",
            f"service:hasCreator {creator}",
        ]
        statements += [f"service:{pred} {type_ref(name)}"
                       for pred, name in (("provide", d.provide), ("request", d.request))
                       if name is not None]
        if d.location is not None:
            place = [f"a <{d.location.place_class}>"]
            if d.location.located_in is not None:
                place += rng.choice([
                    [f"<{LOCATED_IN_IRI}> <{d.location.located_in}>"],
                    [f"<{LOCATED_IN_IRI}>", f"<{d.location.located_in}>"],  # bare IRIs
                    [f"<{d.location.located_in}>"],  # a bare place
                ])
            if rng.random() < 0.5:  # the class last; bare IRIs keep their order
                place.append(place.pop(0))
            inner = f"{gap()};{gap()}".join(place)
            statements.append(f"service:hasServiceLocation [{gap()}{inner}{gap()}]")
        if rng.random() < 0.3:
            statements.append("a service:Service")  # a record-level type assertion
        rng.shuffle(statements)
        if rng.random() < 0.3:  # a lone 'a' marker before a full pair
            statements[0] = "a " + statements[0]
        body = f"{gap()};{gap()}".join(statements)
        chunks.append(f"[{gap()}{body}{gap()}{rng.choice(['', ';'])}]{gap()}.{gap()}")
    return "".join(chunks), records


_MUTATION_CHARS = '[];.<>"\\^:#@a \n\tx0-_é'


def mutations(rng: random.Random, text: str, count: int, start: int = 0):
    """``count`` random one-character replacements, insertions and deletions,
    each at or after ``start``."""
    for _ in range(count):
        at = rng.randrange(start, len(text))
        char = rng.choice(_MUTATION_CHARS)
        yield rng.choice([text[:at] + char + text[at + 1:], text[:at] + char + text[at:],
                          text[:at] + text[at + 1:]])


def outcome(parse, text):
    try:
        return parse(text)
    except InputError as exc:
        return type(exc), str(exc), getattr(exc, "offset", None)


def assert_same_as_reference(text):
    mine = outcome(parse_descriptions, text)
    assert mine == outcome(reference_parse_descriptions, text), text
    if isinstance(mine, tuple) and mine[0] is ParseError:
        _, message, offset = mine
        assert 0 <= offset <= len(text)
        if "unexpected character" in message:
            assert message.endswith(f"unexpected character {text[offset]!r}")
    return mine


_EDGE_BODIES = [
    "",
    " \n# only a comment",
    "@prefix",
    "@prefix ex: <http://example.org/>",
    "@prefix ex: <http://example.org/> ;",
    "@prefix <http://example.org/> .",
    "@prefix ex: ex:x .",
    "[ ] .",
    "[ a ] .",
    "[ ; ; ] .",
    "[ ] ]",
    "[ [ a <x> ] service:provide service:X ] .",
    "[ a [ a <x> ] service:provide service:X ] .",
    "[ service:provide [ a <x> ] ] .",
    "[ service:hasServiceLocation [ [ a <x> ] ] ] .",
    "[ service:hasServiceLocation [ a [ a <x> ] ] ] .",
    "[ service:hasServiceLocation [ a <x> ; <p> <q> <r> ] ] .",
    "[ service:hasServiceLocation [ a <x> ; <p> ; <q> ; <r> ] ] .",
    "[ service:hasServiceLocation <x> ] .",
    "[ service:hasServiceLocation [ a <x> ; a <y> ] ] .",
    "[ service:hasServiceLocation [ a <x> ; <p> <q> ; <p> <r> ] ] .",
    "[ service:hasServiceLocation [ a <x> ; <p> <q> ; <r> ] ] .",
    "[ service:hasServiceLocation [ <q> ; a <x> ; <p> <r> ] ] .",
    "[ service:hasServiceLocation [ a <x> ; <p> ; <q> ; <p> <r> ] ] .",
    "[ service:hasServiceLocation [ a <x> ; <p> <q> ; a ] ] .",
    "[ service:hasServiceLocation [ a <x> ; <p> <q> ; <p> \"r\" ] ] .",
    "[ service:hasServiceLocation [ a \"lit\" ] ] .",
    "[ service:hasServiceLocation [ \"lit\" ] ] .",
    "[ service:hasServiceLocation [ a a ] ] .",
    "[ service:hasServiceLocation [ a <x> ; a <p> <q> ] ] .",
    "[ service:hasServiceLocation [ a <x> ; <p> \"lit\" ] ] .",
    "[ service:hasCreator [ a <x> ] ] .",
    "[ service:hasCreator \"x\" ] .",
    "[ \"x\" service:provide ] .",
    "[ service:creationTime \"2013-05-12T13:00:00\\\n\"^^xsd:dateTime ] .",
    "[ service:creationTime \"2013-05-12T13:00:00\"^^ex:dateTime ] .",
    "[ service:creationTime \"2013-05-12T13:00:00\"^^<http://example.org/t> ] .",
    "[ service:creationTime \"2013-05-12T13:00:00\" ] .",
    "[ service:creationTime \"yesterday\"^^xsd:dateTime ] .",
    "[ service:creationTime service:Walking ] .",
    "[ <http://example.org/p> <x> ] .",
    "[ service:provide service:X ] . @prefix service: <http://example.org/> .",
    "[ service:provide service:X ] .. ",
    "[ service:provide service:X ] [",
    "[ service:provide service:X ] . }",
    "[ service:provide ab ] .",
    "[ service:provide a: ] .",
    "[ service:provide : ] .",
    "$",
    "[ service:provide service:X ] .$",
    "[ service:provide service:X ] . # a comment that ends the text",
    "a",
    "[ service:provide service:X ] . a",
    "[ service:provide service:X ] .\x0b\x1c\xa0\u2028\u3000",
    # a statement that goes on after a nested block, and blocks left open
    "[ service:provide [ a <x> ] service:X ] .",
    "[ a service:hasServiceLocation [ a <x> ] ] .",
    "[ a [ a <x> ] [ a <y> ] ] .",
    "[ service:hasServiceLocation [ a <x> ; <p> [ a <y> ] <q> ] ] .",
    "[ service:hasServiceLocation [ a <x> ] <y> ; service:provide service:X ] .",
    "[ service:hasServiceLocation [ a <x> ] ; ; [ a <y> ] ] .",
    "[ service:hasServiceLocation [ a <x> ] . ] .",
    "[ service:provide service:X ; service:hasServiceLocation [ a <x>",
]


def test_parser_agrees_with_reference_on_edge_cases():
    for body in _EDGE_BODIES:
        assert_same_as_reference(body)
        assert_same_as_reference(PREFIX_BLOCK + body)


def test_parser_agrees_with_reference_on_generated_documents():
    rng = random.Random(20261018)
    documents = []
    for _ in range(8):
        count = rng.randint(1, 2)
        ragged, records = ragged_document(rng, count)
        assert assert_same_as_reference(ragged) == records
        canonical = "\n".join(serialize_description(random_description(rng))
                              for _ in range(count))
        assert_same_as_reference(canonical)
        documents += [ragged, canonical]
    for text in documents:
        for end in range(len(text)):
            assert_same_as_reference(text[:end])
        for mutated in mutations(rng, text, 100):
            assert_same_as_reference(mutated)


def test_parser_agrees_with_reference_on_a_large_document():
    rng = random.Random(3000)
    ragged, records = ragged_document(rng, 1500)
    canonical = "".join(serialize_description(random_description(rng)) for _ in range(1500))
    text = ragged + canonical
    parsed = assert_same_as_reference(text)
    assert len(parsed) == 3000 and parsed[:1500] == records
    assert_same_as_reference(text[:rng.randrange(len(text))])
    for mutated in mutations(rng, text, 1):
        assert_same_as_reference(mutated)


def test_parser_agrees_with_reference_on_escapes_inside_literals():
    for literal in ['"2013-05-12T13:00:00\\"^^xsd:dateTime"', '"a\\"^^b"', '"a\\\\"^^xsd:dateTime',
                    '"2013-05-12T13:00:00\\\\"^^xsd:dateTime', '"\\u0032"^^xsd:dateTime']:
        assert_same_as_reference(PREFIX_BLOCK + f"[ service:creationTime {literal} ] .")


@pytest.mark.parametrize("tail", [" " * 200_000, "# " + "x" * 200_000, " " * 200_000 + "}",
                                  '[ service:provide "' + "x" * 200_000],
                         ids=["trailing-spaces", "unterminated-comment", "bad-after-spaces",
                              "unterminated-literal"])
def test_long_tails_are_scanned_once(tail):
    """A tail that the tokenizer retried at every position would take
    minutes here; the reference tokenizer scans it once."""
    assert_same_as_reference(PREFIX_BLOCK + tail)


# Whitespace that ``\s`` matches but a hand-written split might miss, and a BOM.
_ODD_CHARS = "\x0b\x1c\xa0\u2028\u3000\ufeff"
_FRAGMENTS = ["service:provide", "service:creationTime", "service:hasCreator", "xsd:dateTime",
              '"2013-05-12T13:00:00"^^xsd:dateTime', "<http://example.org/x>", "@prefix",
              "service:", "[", "] .", " ; ", "a "]


@settings(deadline=None)
@given(st.lists(st.one_of(st.sampled_from(_MUTATION_CHARS + _ODD_CHARS),
                          st.sampled_from(_FRAGMENTS)), max_size=40).map("".join),
       st.booleans())
def test_parser_agrees_with_reference_on_arbitrary_text(text, with_prefixes):
    assert_same_as_reference(PREFIX_BLOCK + text if with_prefixes else text)


def test_parser_agrees_with_reference_deep_in_documents():
    """Errors far from the start: the offset is recovered only then."""
    rng = random.Random(14)
    ragged, _ = ragged_document(rng, 300)
    rng_large = random.Random(3000)  # the document of the test above
    large, _ = ragged_document(rng_large, 1500)
    large += "".join(serialize_description(random_description(rng_large)) for _ in range(1500))
    for text, count in ((ragged, 30), (large, 3)):
        for mutated in mutations(rng, text, count, start=len(text) // 2):
            assert_same_as_reference(mutated)


@pytest.mark.parametrize("stamp,expected", [
    ("2013-05-12T13:00:00.5", datetime(2013, 5, 12, 13, 0, 0, 500_000)),
    ("2013-05-12T13:00:00.1234567", datetime(2013, 5, 12, 13, 0, 0, 123_456)),
    ("-2013-05-12T13:00:00", ParseError),
    ("2013-05-12T13:00:00Z", ValidationError),
    ("2013-05-12T13:00:00+01:00", ValidationError),
], ids=["fraction", "long-fraction", "negative-year", "utc", "offset"])
def test_datetime_lexical_forms_inside_xsd(stamp, expected):
    text = (DATA / "walking_service.ttl").read_text().replace("2013-05-12T13:00:00", stamp)
    if isinstance(expected, datetime):
        assert parse_descriptions(text)[0].creation_time == expected
    else:
        with pytest.raises(expected):
            parse_descriptions(text)
    assert_same_as_reference(text)
