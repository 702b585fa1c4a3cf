import csv
import gc
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from datetime import datetime, timedelta
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import fso.cli
from fso.cli import _render, _render_resolution, _write_report, main
from fso.community import load_community
from fso.diffusion import load_scenario, run_scenario
from fso.fractal import ExceptionRecord, Resolution, SocialOverlayNetwork, load_fixture
from oracles import resolution_json

DATA = Path(__file__).parent / "data"

WALKING = (DATA / "walking_service.ttl").read_text()
PREFIX = "@prefix service: <http://www.pats.ua.ac.be/AALService#> .\n"
CYCLE = "A subClassOf B\nB subClassOf A\n"


def write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def assert_input_error(capsys, argv, *fragments):
    """The command exits 2 with one stderr line that holds every fragment."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: "), err
    for fragment in fragments:
        assert fragment in err, err


def scenario_file(tmp_path, name="scenario.json", **overrides) -> str:
    data = {
        "topology": "fractal",
        "horizon": 20,
        "transmit_probability": 0.5,
        "isolation_events": [],
        "seed": 0,
    }
    data.update(overrides)
    return write(tmp_path / name, json.dumps(data))


# --- match ------------------------------------------------------------------


def test_match_two_walking_members_form_group(tmp_path, capsys):
    member1 = write(tmp_path / "resident1.ttl", WALKING)
    member2 = write(tmp_path / "resident2.ttl", WALKING)
    code = main(["match", "--taxonomy", str(DATA / "fitness_taxonomy.txt"),
                 member1, member2])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert [e["kind"] for e in report["events"]] == ["group"]
    assert report["events"][0]["members"] == ["resident1", "resident2"]
    assert report["events"][0]["matched_type"] == "Walking"
    # the promoted activity is outstanding, requesting a venue
    assert [p["member"] for p in report["pending"]] == ["activity:Walking"]


def test_match_no_descriptions_is_empty_success(capsys):
    code = main(["match"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report == {"events": [], "pending": []}


def test_match_prefix_only_file_gives_no_events(tmp_path, capsys):
    member = write(
        tmp_path / "empty.ttl",
        "@prefix service: <http://www.pats.ua.ac.be/AALService#> .\n",
    )
    code = main(["match", member])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report == {"events": [], "pending": []}


def test_match_malformed_file_names_the_file(tmp_path, capsys):
    member = write(tmp_path / "broken.ttl", "[ not turtle\n")
    assert_input_error(capsys, ["match", member], "broken.ttl")


def test_match_missing_file_is_input_error(tmp_path, capsys):
    assert_input_error(capsys, ["match", str(tmp_path / "absent.ttl")], "absent.ttl")


@pytest.mark.parametrize("option", ["--community", "--taxonomy"])
def test_match_empty_path_is_input_error(capsys, option):
    # an empty path names no file; it is not the same as leaving the option out
    assert_input_error(capsys, ["match", option, ""], "error: '': the file name is empty")


@pytest.mark.parametrize("argv", [
    ["resolve", "--fixture", ""],
    ["simulate", "--scenario", "", "--out", "{}/x.csv"],
    ["resolve", "--fixture", "{}"],
    ["match", "--community", "{}"],
    ["match", "--taxonomy", "{}"],
    ["match", "{}"],
    ["simulate", "--scenario", "{}", "--out", "{}/x.csv"],
], ids=["fixture-empty", "scenario-empty", "fixture-directory", "community-directory",
        "taxonomy-directory", "description-directory", "scenario-directory"])
def test_empty_or_directory_input_path_names_the_value(tmp_path, capsys, argv):
    # not the OS error: "." for an empty name, or "[Errno 21] Is a directory"
    argv = [arg.format(tmp_path) for arg in argv]
    expected = "'': the file name is empty" if "" in argv else f"{tmp_path}: is a directory"
    assert_input_error(capsys, argv, expected)
    assert not (tmp_path / "x.csv").exists()


WALKING_PLACE = ("[ a\n      <http://schema.org/Beach> ;\n"
                 "      <http://dbpedia.org/ontology/location> ;\n"
                 "      <http://dbpedia.org/resource/Borgerhout>\n    ]")


def relocated(place: str, later: str, message: str):
    """The sample with location block ``place``, rejected at the statement ``later``."""
    text = WALKING.replace(WALKING_PLACE, place)
    assert text != WALKING and text.count(later) == 1
    return "member.ttl", text, (f"member.ttl: offset {text.index(later)}: {message}",)


TWICE_PLACED = "duplicate located-in place in location block"


@pytest.mark.parametrize(
    "name,content,fragments",
    [
        ("member.ttl", PREFIX + "[ service:provide [ a <x> ] ] .\n", ("member.ttl", "offset")),
        ("member.ttl", b"\xff\xfe", ("member.ttl", "UTF-8")),
        ("activity:Walking.ttl", WALKING, ("activity:Walking.ttl", "reserved")),
        ("member.ttl", "[" * 5000, ("member.ttl", "offset 4999", "unterminated")),
        relocated("[ a <http://x/Park> ; a <http://x/Beach> ; <http://p> <http://q1> ;"
                  " <http://p> <http://q2> ]", "a <http://x/Beach>",
                  "duplicate place class in location block"),
        relocated("[ a <http://x/Park> ; <http://p> <http://q1> ; <http://p> <http://q2> ]",
                  "<http://p> <http://q2>", TWICE_PLACED),
        relocated("[ a <http://x/Park> ; <http://p> <http://q1> ; <http://q2> ]",
                  "<http://q2>", TWICE_PLACED),
        relocated("[ <http://q1> ; a <http://x/Park> ; <http://p> <http://q2> ]",
                  "<http://p>", TWICE_PLACED),
        relocated("[ a <http://x/Park> ; <http://p> ; <http://q1> ; <http://p> <http://q2> ]",
                  "<http://p> <http://q2>", TWICE_PLACED),
        ("member.ttl", '@prefix "x"^^xsd: <http://e/> .\n',
         ("member.ttl: offset 8: expected a prefix name ending in ':'",)),
        ("member.ttl", WALKING.replace("<http://www.pats.ua.ac.be/aal/user/15441#this>", "a"),
         (f"member.ttl: offset {WALKING.index('service:hasCreator')}: creator must be an IRI",)),
    ],
    ids=["block-as-type", "not-utf8", "reserved-activity-stem", "deep-nesting",
         "place-class-twice", "place-pair-twice", "place-pair-then-bare",
         "place-bare-then-pair", "place-bare-pair-then-pair", "literal-as-prefix-name",
         "a-as-creator"],
)
def test_match_bad_description_file_names_it(tmp_path, capsys, name, content, fragments):
    member = tmp_path / name
    member.write_bytes(content if isinstance(content, bytes) else content.encode())
    assert_input_error(capsys, ["match", str(member)], *fragments)


RECORD = WALKING[WALKING.index("["):]


@pytest.mark.parametrize("bad_record,message", [
    ("[ service:provide service:A ] .\n", "record is missing"),
    (RECORD.replace("  service:provide          service:Walking ;\n", "")
     .replace("  service:request          service:Walking ;\n", ""),
     "both 'provide' and 'request' missing"),
    (RECORD.replace("2013-05-12T17:00:00", "2013-05-12T22:00:00"), "start_time is after end_time"),
    (RECORD.replace("[ a\n      <http://schema.org/Beach> ;", "["),
     "location block has no place class"),
], ids=["missing-fields", "no-provide-or-request", "start-after-end", "no-place-class"])
def test_match_bad_record_names_its_offset(tmp_path, capsys, bad_record, message):
    text = WALKING + "\n" + bad_record
    offset = len(WALKING) + 1  # the second record's '['
    assert text[offset] == "["
    member = write(tmp_path / "member.ttl", text)
    assert_input_error(capsys, ["match", member], f"member.ttl: offset {offset}: {message}")


@pytest.mark.parametrize("stamp", [
    "2013-05-12", "2013-05-12 13:00:00", "20130512T130000", "2013-W19-7T13:00:00",
    "2013-05-12T13", "2013-05-12T13:00", "2013-05-12T130000", "2013-05-12T13:00:00,5",
    "2013-05-12T13:00:00+0100",
], ids=["bare-date", "space-separator", "basic-format", "week-date", "no-minutes",
        "no-seconds", "basic-time", "comma-fraction", "basic-zone"])
def test_match_datetime_outside_the_xsd_lexical_form_names_its_offset(tmp_path, capsys, stamp):
    """Python 3.11's fromisoformat reads every one of these stamps."""
    text = WALKING.replace("2013-05-12T13:00:00", stamp)
    offset = text.index(f'"{stamp}"')
    member = write(tmp_path / "member.ttl", text)
    assert_input_error(capsys, ["match", member],
                       f"member.ttl: offset {offset}: invalid dateTime value {stamp!r}")


@pytest.mark.parametrize("copies", [2, 3])
def test_match_repeated_description_path_is_input_error(tmp_path, capsys, copies):
    member = write(tmp_path / "a.ttl", WALKING)
    assert_input_error(capsys, ["match", *[member] * copies],
                       f"{member}: the file is listed more than once")


def test_match_member_id_collision_names_both_files(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write(tmp_path / "a.ttl", WALKING)
    write(tmp_path / "a", WALKING)
    # the second file with stem "a" falls back to its path, which is again "a"
    assert_input_error(capsys, ["match", "a.ttl", "a"], "a: member id 'a'", "a.ttl")
    # in the other order the path is free, and it becomes the member id
    assert main(["match", "a", "a.ttl"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["events"][0]["members"] == ["a", "a.ttl"]


def test_match_taxonomy_cycle_names_the_file(tmp_path, capsys):
    types = write(tmp_path / "types.txt", CYCLE)
    assert_input_error(capsys, ["match", "--taxonomy", types], "types.txt", "line 2")


def test_match_malformed_taxonomy_line_names_the_file(tmp_path, capsys):
    types = write(tmp_path / "types.txt", "A isa B\n")
    assert_input_error(capsys, ["match", "--taxonomy", types],
                       f"{types}: line 1: expected '<child> subClassOf <parent>', got 'A isa B'")


def test_match_community_and_descriptions_are_exclusive(tmp_path, capsys):
    argv = ["match", "--community", str(tmp_path / "absent.json"),
            str(tmp_path / "absent.ttl")]
    assert_input_error(capsys, argv, "exclusive")


@pytest.mark.parametrize(
    "community,extra",
    [("absent.json", ["--taxonomy", "absent.txt"]),
     ("absent.json", ["--allow-specialization"]),
     ("absent.json", ["--no-time-overlap"]),
     ("", ["absent.ttl"])],
    ids=["taxonomy", "allow-specialization", "no-time-overlap", "empty-community-and-a-file"],
)
def test_match_community_and_policy_options_are_exclusive(tmp_path, capsys, community, extra):
    # rejected before any file is read: none of the named files exists
    argv = ["match", "--community", community, *extra]
    argv = [str(tmp_path / arg) if arg.startswith("absent") else arg for arg in argv]
    assert_input_error(capsys, argv, "exclusive")


def test_match_community_document(tmp_path, capsys):
    write(tmp_path / "types.txt", "Walking subClassOf Fitness\n")
    write(tmp_path / "alice.ttl", WALKING)
    write(tmp_path / "bob.ttl", WALKING)
    community = write(
        tmp_path / "community.json",
        json.dumps(
            {
                "taxonomy": "types.txt",
                "policy": {"allow_specialization": True},
                "members": [
                    {"id": "alice", "descriptions": ["alice.ttl"]},
                    {"id": "bob", "descriptions": ["bob.ttl"]},
                ],
            }
        ),
    )
    code = main(["match", "--community", community])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert [e["kind"] for e in report["events"]] == ["group"]
    assert report["events"][0]["members"] == ["alice", "bob"]


PROVIDE = "  service:provide          service:Walking ;\n"
REQUEST = "  service:request          service:Walking ;\n"


def offer(provide=None, request=None) -> str:
    """The Walking record with its provide and request types replaced or dropped."""
    return (WALKING.replace(PROVIDE, PROVIDE.replace("Walking", provide) if provide else "")
            .replace(REQUEST, REQUEST.replace("Walking", request) if request else ""))


def test_match_community_reports_service_and_mutualistic_events(tmp_path, capsys):
    """Every event kind in exact JSON, the group walk's joins and venue binding too."""
    direct = {"bob": offer(request="Fitness"), "alice": offer(provide="Walking"),
              "carol": offer("Cooking", "Cleaning"), "dave": offer("Cleaning", "Cooking")}
    group_walk = {"m1": WALKING, "m2": WALKING, "m3": offer(request="Walking"),
                  "m4": offer(provide="Location")}
    activity = "activity:Walking"
    cases = [
        (direct, [
            {"kind": "service", "members": ["bob", "alice"], "provider": "alice",
             "requester": "bob", "matched_type": "Walking"},
            {"kind": "mutualistic", "members": ["carol", "dave"],
             "x_type": "Cooking", "y_type": "Cleaning"},
        ], []),
        (group_walk, [
            {"kind": "group", "members": ["m1", "m2"], "matched_type": "Walking"},
            {"kind": "service", "members": [activity, "m3"], "provider": activity,
             "requester": "m3", "matched_type": "Walking"},
            {"kind": "service", "members": [activity, "m4"], "provider": "m4",
             "requester": activity, "matched_type": "Location"},
        ], [
            {"member": activity, "provide": "Walking", "request": None,
             "start_time": "2013-05-12T17:00:00", "end_time": "2013-05-12T21:00:00"},
        ]),
    ]
    for n, (members, events, pending) in enumerate(cases):
        folder = tmp_path / str(n)
        folder.mkdir()
        for member, text in members.items():
            write(folder / f"{member}.ttl", text)
        document = {"taxonomy_edges": [["Walking", "Fitness"]],
                    "members": [{"id": m, "descriptions": [f"{m}.ttl"]} for m in members]}
        community = write(folder / "community.json", json.dumps(document))
        assert main(["match", "--community", community]) == 0
        assert json.loads(capsys.readouterr().out) == {"events": events, "pending": pending}


def test_match_community_policy_flag_must_be_boolean(tmp_path, capsys):
    community = write(
        tmp_path / "community.json",
        json.dumps({"policy": {"allow_specialization": "yes"}, "members": []}),
    )
    assert_input_error(capsys, ["match", "--community", community],
                       "community.json", "policy.allow_specialization")


@pytest.mark.parametrize(
    "document,files,fragments",
    [
        ([{"members": []}], {}, ("community.json", "must be a JSON object")),
        ({"members": [{"descriptions": []}]}, {}, ("community.json", "members[0].id")),
        ({"members": 5}, {}, ("community.json", "members must be a list")),
        ({"taxonomy": "types.txt"}, {"types.txt": CYCLE}, ("types.txt", "line 2")),
        ({"taxonomy": "types.txt"}, {"types.txt": "A isa B\n"},
         ("types.txt: line 1: expected '<child> subClassOf <parent>'",)),
        ("{", {}, ("community.json", "invalid JSON")),
        ({"members": [{"id": "a", "descriptions": ["bad.ttl"]}]},
         {"bad.ttl": "[ not turtle\n"}, ("bad.ttl", "offset 2")),
        ({"policy": {"fast": True}}, {}, ("community.json", "policy", "'fast'")),
        ({"taxonomy_edges": [["A"]]}, {}, ("community.json", "taxonomy_edges[0]")),
        ({"taxonomy_edges": [["A", "B"], ["B", "A"]]}, {},
         ("community.json", "taxonomy_edges[1]", "cycle")),
        ({"members": [{"id": "a"}, {"id": "a"}]}, {}, ("community.json", "'a'")),
        ({"members": [{"id": "a", "descriptions": [7]}]}, {},
         ("community.json", "members[0].descriptions[0]")),
        ('{"members": ' + "1" * 5000 + "}", {}, ("community.json", "invalid JSON")),
        ("[" * 100000 + "]" * 100000, {}, ("community.json", "invalid JSON")),
        ({"taxonomy": "types\u0000.txt"}, {}, ("types\\x00.txt", "NUL")),
        ({"members": [{"id": "a"}, {"id": "activity:Walking"}]}, {},
         ("community.json", "members[1].id", "'activity:Walking'", "reserved")),
        ({"taxonomy": ""}, {}, ("community.json: taxonomy: the file name is empty",)),
        ({"members": [{"id": "a", "descriptions": ["a.ttl", ""]}]}, {"a.ttl": WALKING},
         ("community.json: members[0].descriptions[1]: the file name is empty",)),
        ({"members": [{"id": "a", "description": ["a.ttl"]}]}, {"a.ttl": WALKING},
         ("community.json: members[0]: unknown keys ['description']",)),
        ({"membres": [{"id": "a", "descriptions": ["a.ttl"]}]}, {"a.ttl": WALKING},
         ("community.json: unknown document keys: ['membres']",)),
        ({"taxonomy_edges": ["ab"]}, {},
         ("community.json: taxonomy_edges[0] must be a [child, parent] pair of strings",)),
        ({"taxonomy_edges": [{"A": 1, "B": 2}]}, {},
         ("community.json: taxonomy_edges[0] must be a [child, parent] pair of strings",)),
    ],
    ids=["top-level-array", "member-without-id", "members-not-a-list",
         "taxonomy-file-cycle", "taxonomy-file-syntax", "malformed-json", "bad-turtle",
         "unknown-policy-flag", "one-element-edge", "inline-edge-cycle", "duplicate-member",
         "description-path-not-a-string", "integer-too-long", "deep-nesting",
         "nul-in-file-name", "reserved-activity-id", "empty-taxonomy-name",
         "empty-description-name", "unknown-member-key", "unknown-top-level-key",
         "string-as-edge", "object-as-edge"],
)
def test_match_malformed_community_names_file_and_field(
    tmp_path, capsys, document, files, fragments
):
    for name, text in files.items():
        write(tmp_path / name, text)
    text = document if isinstance(document, str) else json.dumps(document)
    community = write(tmp_path / "community.json", text)
    assert_input_error(capsys, ["match", "--community", community], *fragments)


@pytest.mark.parametrize("command", ["match", "resolve"])
@pytest.mark.parametrize("out", ["", "missing/report.json"], ids=["directory", "missing-parent"])
def test_unusable_out_fails_before_any_input_is_read(tmp_path, capsys, monkeypatch,
                                                     command, out):
    def refuse(path):
        raise AssertionError("the input was read before --out was checked")

    monkeypatch.setattr("fso.community.load_community", refuse)
    monkeypatch.setattr("fso.fractal.load_fixture", refuse)
    source = ("--community" if command == "match" else "--fixture", str(tmp_path / "in.json"))
    argv = [command, *source, "--out", str(tmp_path / out)]
    assert_input_error(capsys, argv, f"{tmp_path / out}: --out must name a file")
    assert [p.name for p in tmp_path.iterdir()] == []


# --- resolve ------------------------------------------------------------------


def test_resolve_sibling_fixture(capsys):
    code = main(["resolve", "--fixture", str(DATA / "sibling_fixture.json")])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    (result,) = report["results"]
    assert result["status"] == "complete"
    assert result["assignment"] == [{"role": "Nurse", "member": "clinic-7"}]
    assert len(result["exceptions"]) == 1
    assert result["exceptions"][0]["community"] == "district-a"


def test_resolve_unresolvable_fixture_still_exits_zero(capsys):
    code = main(["resolve", "--fixture", str(DATA / "unresolvable_fixture.json")])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    (result,) = report["results"]
    assert result["status"] == "incomplete"
    assert result["missing_roles"] == ["Doctor"]
    assert result["assignment"] == []


def test_resolve_missing_fixture_is_input_error(tmp_path, capsys):
    assert_input_error(capsys, ["resolve", "--fixture", str(tmp_path / "absent.json")],
                       "absent.json")


def resolve_report(path) -> str:
    """The resolve report of a fixture, built from the library's results with
    ``json.dumps``: the text the command must write, byte for byte."""
    org, conditions = load_fixture(path)
    results = [resolution_json(org.resolve(cond)) for cond in conditions]
    return json.dumps({"results": results}, indent=2, sort_keys=True) + "\n"


def assert_resolve_report(tmp_path, capsys, fixture: dict) -> str:
    """Both of the command's outputs equal the oracle report; returns it."""
    path = write(tmp_path / "fixture.json", json.dumps(fixture))
    expected = resolve_report(path)
    assert main(["resolve", "--fixture", path]) == 0
    assert capsys.readouterr().out == expected
    out = tmp_path / "report.json"
    assert main(["resolve", "--fixture", path, "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == expected
    return expected


CLINIC = {"id": "city", "members": [{"id": "m0", "offers": ["Driver"]}],
          "children": [{"id": "ward", "members": [{"id": "n1", "offers": ["Nurse"]},
                                                  {"id": "n2", "offers": ["Nurse"]}]}]}


@pytest.mark.parametrize("conditions,shape", [
    ([{"id": "quiet", "origin": "ward", "roles": []}],  # complete, with nothing to show
     '"assignment": [],\n      "condition": "quiet",\n      "exceptions": [],\n'
     '      "home_communities": {},\n'),
    ([], '{\n  "results": []\n}\n'),
    ([{"id": "far", "origin": "ward", "roles": ["Nurse", "Driver", "Surgeon"]}],
     '"missing_roles": [\n            "Driver",\n            "Surgeon"\n'),
    ([{"id": "named", "origin": "ward", "roles": ["Nurse", "Nurse"],
       "state": {"Nurse": "n2"}}],
     '"member": "n2",\n          "role": "Nurse"\n        },\n'
     '        {\n          "member": "n1"'),
], ids=["zero-roles", "no-conditions", "incomplete-with-trail", "preassigned"])
def test_resolve_report_edge_shapes_are_byte_exact(tmp_path, capsys, conditions, shape):
    report = assert_resolve_report(tmp_path, capsys, {"community": CLINIC,
                                                      "conditions": conditions})
    assert shape in report


def test_resolve_bad_later_condition_writes_nothing(tmp_path, capsys):
    fixture = {"community": CLINIC,
               "conditions": [{"id": "ok", "origin": "ward", "roles": ["Nurse"]},
                              {"id": "lost", "origin": "nowhere", "roles": ["Nurse"]}]}
    path = write(tmp_path / "fixture.json", json.dumps(fixture))
    out = tmp_path / "report.json"
    assert_input_error(capsys, ["resolve", "--fixture", path, "--out", str(out)],
                       "conditions[1]", "'nowhere'")
    assert not out.exists()


def generated_fixture(rng: random.Random, conditions: int) -> dict:
    """A depth-3, fan-out-5 tree of about 950 members and ``conditions``
    conditions of one to three roles, drawn mostly from the rarely offered
    types: those run out, so results come complete and incomplete, most of
    them after escalating."""
    types = ["Nurse", "Driver", "Cook", "Doctor", "Surgeon", "Pilot"]
    weights = [8, 6, 4, 2, 1, 0.5]
    nodes = []

    def build(level):
        node_id = f"c{len(nodes)}"
        nodes.append(node_id)
        members = [{"id": f"{node_id}.m{i}",
                    "offers": rng.choices(types, weights, k=rng.randint(1, 2))}
                   for i in range(rng.randint(0, 12))]
        children = [build(level + 1) for _ in range(5 if level < 3 else 0)]
        return {"id": node_id, "members": members, "children": children}

    community = build(0)
    conds = [{"id": f"t{n}", "origin": rng.choice(nodes),
              "roles": rng.choices(types, weights[::-1], k=rng.randint(1, 3))}
             for n in range(conditions)]
    return {"taxonomy_edges": [["Surgeon", "Doctor"]], "community": community,
            "conditions": conds}


def test_resolve_report_matches_the_oracle_at_benchmark_scale(tmp_path, capsys):
    fixture = generated_fixture(random.Random(18), conditions=2500)
    report = assert_resolve_report(tmp_path, capsys, fixture)
    results = json.loads(report)["results"]
    statuses = [r["status"] for r in results]
    assert len(results) == 2500
    assert 200 < statuses.count("incomplete") < 2300
    assert sum(len(r["exceptions"]) for r in results) > 2500


def generated_community(folder: Path, rng: random.Random, members: int, records: int) -> str:
    """A community document of ``members`` members with non-ASCII ids, each
    publishing ``records`` records over one week: offers, requests,
    exchanges, group offers and venues of a 15-type tree taxonomy, so every
    event kind occurs and many records stay pending.  Returns its path."""
    types = [f"T{i}" for i in range(15)]
    write(folder / "types.txt",
          "".join(f"T{i} subClassOf T{(i - 1) // 2}\n" for i in range(1, 15)))
    stamp = '"{:%Y-%m-%dT%H:%M:%S}"^^xsd:dateTime'.format
    document = {"taxonomy": "types.txt", "policy": {"allow_specialization": True}, "members": []}
    for m in range(members):
        chunks = [PREFIX, "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n"]
        for _ in range(records):
            a, b = rng.choice(types), rng.choice(types)
            provide, request = rng.choice([(a, None), (None, a), (a, b), (a, a),
                                           ("Location", None)])
            start = datetime(2013, 5, 1) + timedelta(minutes=rng.randrange(7 * 24 * 60))
            end = start + timedelta(minutes=rng.randrange(60, 8 * 60))
            chunks.append(f"[ service:creationTime {stamp(start - timedelta(hours=1))} ;\n"
                          f"  service:endTime {stamp(end)} ;\n"
                          f"  service:hasCreator <http://example.org/user/{m}#this> ;\n"
                          + (f"  service:provide service:{provide} ;\n" if provide else "")
                          + (f"  service:request service:{request} ;\n" if request else "")
                          + f"  service:startTime {stamp(start)}\n] .\n")
        write(folder / f"m{m}.ttl", "".join(chunks))
        member_id = ["résident-{}", "成员{}", "m{}\u2028😀"][m % 3].format(m)
        document["members"].append({"id": member_id, "descriptions": [f"m{m}.ttl"]})
    return write(folder / "community.json", json.dumps(document))


def test_match_report_matches_the_oracle_at_benchmark_scale(tmp_path, capsys):
    community_path = generated_community(tmp_path, random.Random(20), members=60, records=20)
    community, plan = load_community(community_path)
    events = [event for member_id, record in plan
              for event in community.publish(member_id, record)]
    pending = [{"member": owner, "provide": d.provide, "request": d.request,
                "start_time": d.start_time.isoformat(), "end_time": d.end_time.isoformat()}
               for owner, d in community.pending()]
    expected = json.dumps({"events": [event.to_json_dict() for event in events],
                           "pending": pending}, indent=2, sort_keys=True) + "\n"
    assert len(plan) == 1200
    assert {event.kind.value for event in events} == {"service", "group", "mutualistic"}
    assert len(pending) > 100 and "\\u6210" in expected
    assert main(["match", "--community", community_path]) == 0
    assert capsys.readouterr().out == expected
    out = tmp_path / "report.json"
    assert main(["match", "--community", community_path, "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == expected


def condition(**fields):
    return {"id": "c", "origin": "city", "roles": ["Nurse"], **fields}


CITY = {"id": "city", "members": [{"id": "m", "offers": ["Cooking"]}]}


@pytest.mark.parametrize(
    "fixture,fragments",
    [
        ([{"community": {"id": "city"}}], ("fixture must be a JSON object",)),
        ({"community": {"members": []}}, ("community.id",)),
        ({"community": {"id": "city", "children": [{"id": "a", "members": [{}]}]}},
         ("community.children[0].members[0].id",)),
        ({"community": CITY, "conditions": [condition(state=[1])]},
         ("conditions[0].state",)),
        ({"community": CITY, "conditions": [condition(origin="x")]},
         ("conditions[0]", "'x'")),
        ({"community": {"id": "city", "members": [{"id": "m", "offers": 5}]}},
         ("community.members[0].offers",)),
        ({"community": {"id": "city", "members": 5}}, ("community.members",)),
        ({"community": CITY, "conditions": [condition(roles=5)]},
         ("conditions[0].roles",)),
        ({"community": CITY, "taxonomy_edges": 5}, ("taxonomy_edges",)),
        ({"community": {"id": ["r"]}}, ("community.id",)),
        ({"community": CITY, "conditions": [condition(state={"Nurse": "ghost"})]},
         ("conditions[0]", "'ghost'")),
        ({"community": CITY, "conditions": [condition(state={"Nurse": "m"})]},
         ("conditions[0]", "'m'", "'Nurse'")),
        ({"community": CITY, "conditions": [condition(roles=["Cooking"], state={"Cooking": "m"}),
                                            condition(roles=["Cooking"], state={"Cooking": "m"})]},
         ("conditions[1]", "booked")),
        ({"community": {"id": "city", "children": [{"id": "city"}]}},
         ("duplicate community id 'city'",)),
        ({"community": {**CITY, "children": [{"id": "a", "members": [{"id": "m"}]}]}},
         ("duplicate member id 'm'",)),
        ({"community": CITY, "conditions": [condition(state={"Doctor": "m"})]},
         ("conditions[0].state['Doctor']",)),
        ({"community": CITY, "conditions": [condition(state={"Nurse": 5})]},
         ("conditions[0].state['Nurse']",)),
        ({"taxonomy": "", "community": {"id": "x"}},
         ("bad.json: taxonomy: the file name is empty",)),
        ({"community": {"id": "city", "members": [{"id": "m", "offer": ["Nurse"]}]},
          "conditions": [condition()]},
         ("bad.json: community.members[0]: unknown keys ['offer']",)),
        ({"community": CITY, "condition": [condition()]},
         ("bad.json: unknown fixture keys: ['condition']",)),
        ({"community": {**CITY, "child": [{"id": "a"}]}},
         ("bad.json: community: unknown keys ['child']",)),
        ({"community": CITY, "conditions": [condition(role=["Cooking"])]},
         ("bad.json: conditions[0]: unknown keys ['role']",)),
        ({"conditions": []}, ("bad.json: missing field community\n",)),
    ],
    ids=["top-level-array", "community-without-id", "member-without-id",
         "state-not-an-object", "unknown-origin", "offers-not-a-list",
         "members-not-a-list", "roles-not-a-list", "edges-not-a-list",
         "id-not-a-string", "preassigned-not-in-tree", "preassigned-lacks-role",
         "preassigned-already-booked", "duplicate-community-id",
         "member-in-two-communities", "state-key-not-a-role", "state-member-not-a-string",
         "empty-taxonomy-name", "unknown-member-key", "unknown-top-level-key",
         "unknown-community-key", "unknown-condition-key", "no-community"],
)
def test_resolve_malformed_fixture_names_file_and_field(tmp_path, capsys, fixture, fragments):
    path = write(tmp_path / "bad.json", json.dumps(fixture))
    assert_input_error(capsys, ["resolve", "--fixture", path], "bad.json", *fragments)


# --- simulate -------------------------------------------------------------------


def test_simulate_writes_aggregate_csv(tmp_path, capsys):
    scenario = scenario_file(tmp_path)
    out = tmp_path / "trace.csv"
    code = main(["simulate", "--scenario", scenario, "--replicates", "5",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "step,mean,min,max"
    assert len(lines) == 22  # header + horizon + 1
    assert "final mean diffusion" in capsys.readouterr().out


def test_simulate_single_replicate_writes_trace_csv(tmp_path):
    scenario = scenario_file(tmp_path, horizon=0)
    out = tmp_path / "trace.csv"
    assert main(["simulate", "--scenario", scenario, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "step,diffusion"
    assert len(lines) == 2
    assert float(lines[1].split(",")[1]) == pytest.approx(1 / 15)


def test_simulate_dump_replicates(tmp_path):
    scenario = scenario_file(tmp_path, horizon=12, seed=4,
                             isolation_events=[[3, "random"], [5, "max_degree"]])
    spec = load_scenario(scenario)
    runs = [run_scenario(replace(spec, seed=spec.seed + r)) for r in range(3)]

    def rendered(header, rows):
        text = io.StringIO(newline="")
        csv.writer(text).writerows([header, *rows])
        return text.getvalue().encode()

    out = tmp_path / "trace.csv"
    for replicates in (1, 3):
        assert main(["simulate", "--scenario", scenario, "--replicates", str(replicates),
                     "--out", str(out), "--dump-replicates"]) == 0
        dump = (tmp_path / "trace.replicates.csv").read_bytes()
        assert dump == rendered(["replicate", "step", "diffusion"],
                                [[r, t, value] for r, trace in enumerate(runs[:replicates])
                                 for t, value in enumerate(trace.values)])
    assert main(["simulate", "--scenario", scenario, "--out", str(out)]) == 0
    assert out.read_bytes() == rendered(["step", "diffusion"], enumerate(runs[0].values))


def test_simulate_dump_memory_does_not_grow_with_replicates(tmp_path):
    scenario = scenario_file(tmp_path, horizon=1)
    held = 2000 * sys.getsizeof(run_scenario(load_scenario(scenario)).values)

    def peak(replicates):
        argv = ["simulate", "--scenario", scenario, "--replicates", str(replicates),
                "--out", str(tmp_path / "trace.csv"), "--dump-replicates"]
        assert main(argv) == 0  # fills the interpreter's free lists, which tracemalloc counts
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert (peak(2000) - peak(20)) * 5 <= held


def test_simulate_multiple_scenarios_into_directory(tmp_path, capsys):
    fractal = scenario_file(tmp_path, name="fractal.json", topology="fractal")
    hierarchy = scenario_file(tmp_path, name="hierarchy.json", topology="hierarchy")
    out_dir = tmp_path / "results"
    code = main(["simulate", "--scenario", fractal, hierarchy,
                 "--replicates", "2", "--out", str(out_dir)])
    assert code == 0
    assert (out_dir / "fractal.csv").exists()
    assert (out_dir / "hierarchy.csv").exists()
    summary = capsys.readouterr().out
    assert "fractal (fractal)" in summary
    assert "hierarchy (hierarchy)" in summary


def test_simulate_seed_flag_overrides_spec(tmp_path):
    one = scenario_file(tmp_path, name="one.json", seed=1)
    two = scenario_file(tmp_path, name="two.json", seed=2)

    def run(scenario, out, *extra) -> bytes:
        assert main(["simulate", "--scenario", scenario, "--replicates", "3",
                     "--out", str(tmp_path / out), *extra]) == 0
        return (tmp_path / out).read_bytes()

    assert run(one, "overridden.csv", "--seed", "2") == run(two, "two.csv") != run(one, "one.csv")
    # no dump was asked for, so none is written
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "one.csv", "one.json", "overridden.csv", "two.csv", "two.json"]


def test_simulate_hierarchy_is_not_held_to_the_fractal_edge_bound(tmp_path):
    # one 600-agent fractal cell would make 179,700 edges; a hierarchy ignores cell_size
    scenario = scenario_file(tmp_path, topology="hierarchy", agents=600, cell_size=600, horizon=0)
    assert main(["simulate", "--scenario", scenario, "--out", str(tmp_path / "x.csv")]) == 0


def test_simulate_negative_seed_flag_fails_before_any_output(tmp_path, capsys):
    # random.Random(-1) is random.Random(1): its replicates would repeat seed 1's
    scenario = scenario_file(tmp_path)
    out = tmp_path / "x.csv"
    argv = ["simulate", "--scenario", scenario, "--seed", "-1", "--replicates", "3",
            "--out", str(out), "--dump-replicates"]
    assert_input_error(capsys, argv, "--seed must be non-negative, got -1")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.json"]


def test_simulate_invalid_spec_is_input_error(tmp_path, capsys):
    bad = scenario_file(tmp_path, transmit_probability=0.0)
    argv = ["simulate", "--scenario", bad, "--out", str(tmp_path / "x.csv")]
    assert_input_error(capsys, argv, "scenario.json", "transmit_probability")


@pytest.mark.parametrize(
    "scenario,message",
    [
        ({"topology": "fractal", "agents": 3, "horizon": 20,
          "isolation_events": [[t, "max_degree"] for t in (1, 2, 3, 4)]},
         "isolation_events"),
        ([1, 2], "scenario must be a JSON object"),
        ({"topology": "fractal", "horizon": 10.5}, "horizon"),
        ({"topology": "fractal", "isolation_events": [[10.5, "random"]]},
         "isolation_events[0]"),
        ({"topology": "fractal", "isolation_events": [[10]]}, "isolation_events[0]"),
        ({"topology": "fractal", "transmit_probability": "0.5"},
         "transmit_probability"),
        ({"topology": "fractal", "agents": 16}, "not divisible by cell size"),
        ({"topology": "hierarchy", "agents": -3}, "agents must be at least 1"),
        ({"topology": "fractal", "speed": 9}, "unknown scenario keys: ['speed']"),
        ({"topology": "fractal", "horizon": -1}, "horizon must be non-negative"),
        ({"topology": "hierarchy", "agents": 1, "horizon": 10**20},
         "horizon must be at most 1000000"),
        ({"topology": "fractal", "seed": -3}, "seed must be non-negative"),
        ({"topology": "ring"}, "unknown topology 'ring'"),
        ({"topology": "fractal", "isolation_events": [[1, "sideways"]]},
         "unknown isolation strategy 'sideways'"),
        ({"topology": "fractal", "isolation_events": [[1, "random"], [2, "sideways"]]},
         "isolation_events[1]: unknown isolation strategy 'sideways'"),
        ({"seed": 0}, "scenario must name a topology"),
        ({"topology": "hierarchy", "agents": 10001, "horizon": 0},
         "agents must be at most 10000, got 10001"),
        ({"topology": "fractal", "agents": 800, "cell_size": 400, "horizon": 0},
         "cell_size 400 with 800 agents makes 159604 edges, more than 100000"),
        ({"topology": "fractal", "transmit_probability": True},
         "transmit_probability must be a number, got True"),
        ({"topology": "fractal", "agents": True}, "agents must be an integer, got True"),
    ],
    ids=["more-isolations-than-agents", "top-level-array", "fractional-horizon",
         "fractional-isolation-time", "one-element-event", "string-probability",
         "fractal-shape", "negative-agents", "unknown-key", "negative-horizon", "huge-horizon",
         "negative-seed",
         "unknown-topology", "unknown-isolation-strategy", "second-isolation-strategy-unknown",
         "no-topology", "too-many-agents", "too-many-edges", "boolean-probability",
         "boolean-agents"],
)
def test_simulate_malformed_scenario_names_the_field(tmp_path, capsys, scenario, message):
    path = write(tmp_path / "bad.json", json.dumps(scenario))
    argv = ["simulate", "--scenario", path, "--out", str(tmp_path / "x.csv")]
    assert_input_error(capsys, argv, message, "bad.json")


def test_simulate_bad_scenario_among_several_writes_nothing(tmp_path, capsys):
    good = scenario_file(tmp_path, name="good.json")
    out_dir = tmp_path / "results"
    for bad_fields in ({"isolation_events": [[10]]}, {"agents": 16}):
        bad = scenario_file(tmp_path, name="bad.json", **bad_fields)
        argv = ["simulate", "--scenario", good, bad, "--out", str(out_dir)]
        assert_input_error(capsys, argv, "bad.json")
        assert not out_dir.exists()
    other = scenario_file(tmp_path, name="other.json")
    argv = ["simulate", "--scenario", good, other, "--replicates", "0", "--out", str(out_dir)]
    assert_input_error(capsys, argv, "replicates must be at least 1")
    assert not out_dir.exists()


@pytest.mark.parametrize("names,extra", [
    (["a/s.json", "b/s.json"], []),
    (["s.json", "s.json"], []),
    (["s.json", "s.replicates.json"], ["--dump-replicates"]),
], ids=["shared-stem", "same-file-twice", "stem-of-a-replicates-dump"])
def test_simulate_scenarios_writing_one_output_are_rejected(tmp_path, capsys, names, extra):
    paths = []
    for name in names:
        (tmp_path / name).parent.mkdir(exist_ok=True)
        paths.append(scenario_file(tmp_path, name=name))
    out_dir = tmp_path / "out"
    argv = ["simulate", "--scenario", *paths, "--replicates", "3", "--out", str(out_dir), *extra]
    assert_input_error(capsys, argv, paths[0], paths[1], "would both write")
    assert not out_dir.exists()


@pytest.mark.parametrize("out,several,fragment", [
    ("taken.csv", True, "must be a directory for several scenarios"),
    ("taken.csv/sub", True, "taken.csv is not one"),
    ("nodir/x.csv", False, "must name a file in an existing directory"),
    ("folder", False, "must name a file in an existing directory"),
], ids=["several-into-a-file", "several-under-a-file", "missing-directory", "a-directory"])
def test_simulate_unusable_out_fails_before_any_run(tmp_path, capsys, monkeypatch,
                                                    out, several, fragment):
    def refuse(spec, replicates, on_replicate=None):
        raise AssertionError("monte_carlo ran before the output location was checked")

    monkeypatch.setattr("fso.diffusion.monte_carlo", refuse)
    (tmp_path / "taken.csv").write_text("keep\n")
    (tmp_path / "folder").mkdir()
    scenarios = [scenario_file(tmp_path, name="a.json")]
    if several:
        scenarios.append(scenario_file(tmp_path, name="b.json"))
    argv = ["simulate", "--scenario", *scenarios, "--replicates", "300",
            "--out", str(tmp_path / out)]
    assert_input_error(capsys, argv, str(tmp_path / out), fragment)
    assert (tmp_path / "taken.csv").read_text() == "keep\n"
    made = {p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")}
    assert made == {"taken.csv", "folder", "a.json"} | ({"b.json"} if several else set())


@pytest.mark.parametrize("names,out,extra", [
    (["a.json", "b.json"], "out/b.csv", []),
    (["a.json", "b.json"], "out/a.replicates.csv", ["--dump-replicates"]),
    (["a.json"], "x.replicates.csv", ["--dump-replicates"]),
], ids=["several-one-csv", "several-one-dump", "one-dump"])
def test_simulate_output_file_that_is_a_directory_fails_before_any_run(
        tmp_path, capsys, monkeypatch, names, out, extra):
    def refuse(spec, replicates, on_replicate=None):
        raise AssertionError("monte_carlo ran before every output file was checked")

    monkeypatch.setattr("fso.diffusion.monte_carlo", refuse)
    (tmp_path / out).mkdir(parents=True)
    scenarios = [scenario_file(tmp_path, name=name) for name in names]
    target = tmp_path / ("out" if len(names) > 1 else "x.csv")
    argv = ["simulate", "--scenario", *scenarios, "--replicates", "50", "--out", str(target),
            *extra]
    assert_input_error(capsys, argv, f"error: {tmp_path / out}: the output file is an"
                                     " existing directory")
    made = {p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")}
    assert made == {*names, out} | ({"out"} if len(names) > 1 else set())


def test_simulate_several_scenarios_refuse_an_empty_out(tmp_path, capsys, monkeypatch):
    # Path("") is the working directory: the CSVs would land there unasked
    monkeypatch.chdir(tmp_path)
    scenarios = [scenario_file(tmp_path, name=name) for name in ("a.json", "b.json")]
    assert_input_error(capsys, ["simulate", "--scenario", *scenarios, "--out", ""],
                       "error: '': --out must name a directory for several scenarios")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json", "b.json"]


def test_repeated_invocations_are_byte_identical(tmp_path):
    scenario = scenario_file(
        tmp_path, horizon=25, isolation_events=[[10, "max_degree"]]
    )
    outputs = []
    for name in ("first.csv", "second.csv"):
        out = tmp_path / name
        assert main(["simulate", "--scenario", scenario, "--replicates", "4",
                     "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]

    reports = []
    for _ in range(2):
        out = tmp_path / "resolve.json"
        assert main(["resolve", "--fixture", str(DATA / "sibling_fixture.json"),
                     "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_internal_error_exits_1_with_traceback(tmp_path, capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr("fso.cli.cmd_resolve", broken)
    assert main(["resolve", "--fixture", str(tmp_path / "absent.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("Traceback (most recent call last):"), err
    assert "RuntimeError: boom" in err
    assert err.splitlines()[-1] == "internal error: boom"


_TEXT = st.text(max_size=8) | st.text('"\\/\b\f\n\r\t\x00\x7féß€\u2028😀', max_size=8)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _TEXT,
    lambda children: (st.lists(children, max_size=4) | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(_TEXT, children, max_size=4)),
    max_leaves=20,
)


@given(_JSON_VALUES)
def test_report_writer_matches_indented_sorted_json_dumps(value):
    assert _render(value, "") == json.dumps(value, indent=2, sort_keys=True)


@given(st.dictionaries(_TEXT, st.lists(_JSON_VALUES, max_size=3), max_size=3))
def test_report_sections_match_indented_sorted_json_dumps(sections):
    chunks = []
    _write_report(chunks.append, {key: (_render(entry, "    ") for entry in entries)
                                  for key, entries in sections.items()})
    assert "".join(chunks) == json.dumps(sections, indent=2, sort_keys=True)


_IDS = st.lists(_TEXT, min_size=1, max_size=4, unique=True)


@st.composite
def resolutions(draw):
    """A resolve result with ids from the escape alphabet: complete with an
    overlay (possibly of no roles) or incomplete, with any exception trail."""
    trail = tuple(ExceptionRecord(draw(_TEXT), tuple(draw(st.lists(_TEXT, max_size=3))))
                  for _ in range(draw(st.integers(0, 3))))
    if draw(st.booleans()):
        members = draw(st.lists(_TEXT, max_size=4, unique=True))
        roles = draw(st.lists(_TEXT, min_size=len(members), max_size=len(members)))
        homes = {member: draw(_TEXT) for member in members}
        overlay = SocialOverlayNetwork(draw(_TEXT), tuple(zip(roles, members)), homes)
        return Resolution(overlay.condition_id, overlay, (), trail)
    return Resolution(draw(_TEXT), None, tuple(draw(_IDS)), trail)


@given(st.lists(resolutions(), max_size=4))
def test_resolve_report_writer_matches_indented_sorted_json_dumps(results):
    chunks = []
    _write_report(chunks.append, {"results": map(_render_resolution, results)})
    report = {"results": [resolution_json(resolution) for resolution in results]}
    assert "".join(chunks) == json.dumps(report, indent=2, sort_keys=True)


# --- what each command imports ----------------------------------------------

LAYERS = {"community", "descriptions", "diffusion", "fractal", "mutualism"}


def modules_loaded(code: str) -> set[str]:
    """The names in ``sys.modules`` after running ``code`` in a fresh interpreter."""
    script = f"{code}\nimport sys\nprint(*sys.modules)"
    src = str(Path(__file__).parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, check=True)
    return set(done.stdout.split())


def layers_loaded(code: str) -> set[str]:
    """The fso layers in ``sys.modules`` after running ``code`` in a fresh interpreter."""
    loaded = modules_loaded(code)
    return {layer for layer in LAYERS if f"fso.{layer}" in loaded}


def test_importing_the_command_line_loads_no_layer():
    assert layers_loaded("import fso.cli") == set()


def test_importing_the_command_line_loads_no_traceback_module():
    """Only an internal error reads ``traceback``, so only it imports the module."""
    assert "traceback" not in modules_loaded("import fso.cli") - modules_loaded("pass")


@pytest.mark.parametrize("argv,loaded", [
    (["simulate", "--scenario", "{}/scenario.json", "--out", "{}/x.csv"], {"diffusion"}),
    (["resolve", "--fixture", str(DATA / "sibling_fixture.json")], {"fractal"}),
    (["match", "--taxonomy", str(DATA / "fitness_taxonomy.txt"),
      str(DATA / "walking_service.ttl")], {"community", "descriptions"}),
], ids=["simulate", "resolve", "match"])
def test_each_command_loads_only_its_layers(tmp_path, argv, loaded):
    scenario_file(tmp_path)
    argv = [arg.format(tmp_path) for arg in argv]
    code = ("import contextlib, io\nfrom fso.cli import main\n"
            f"with contextlib.redirect_stdout(io.StringIO()):\n    assert main({argv!r}) == 0")
    assert layers_loaded(code) == loaded


# --- the cyclic collector ---------------------------------------------------


@pytest.fixture
def collector():
    """Puts back the collector's setting after the test, however it ends."""
    was_on = gc.isenabled()
    yield
    (gc.enable if was_on else gc.disable)()


def _broken(args):
    raise RuntimeError("boom")


@pytest.mark.parametrize("on_before", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("argv,code", [
    (["simulate", "--scenario", "{}/scenario.json", "--out", "{}/x.csv"], 0),
    (["resolve", "--fixture", "{}/absent.json"], 2),
    (["resolve", "--fixture", "{}/absent.json"], 1),  # the command raises
], ids=["exit-0", "exit-2", "exit-1"])
def test_main_runs_the_command_without_the_collector_and_puts_it_back(
        tmp_path, monkeypatch, collector, on_before, argv, code):
    scenario_file(tmp_path, horizon=2)
    command = f"cmd_{argv[0]}"
    run = _broken if code == 1 else getattr(fso.cli, command)
    seen = []

    def watched(args):
        seen.append(gc.isenabled())
        return run(args)

    monkeypatch.setattr(fso.cli, command, watched)
    (gc.enable if on_before else gc.disable)()
    assert main([arg.format(tmp_path) for arg in argv]) == code
    assert gc.isenabled() is on_before
    assert seen == [False]


def cyclic_garbage_left(argv) -> int:
    """Objects in reference cycles that one run of ``argv`` leaves, the
    collector off; a first run imports the layers and fills their caches."""
    assert main(argv) == 0
    gc.collect()
    assert main(argv) == 0
    return gc.collect()


def test_commands_leave_cyclic_garbage_that_does_not_grow_with_their_input(
        tmp_path, collector):
    """``main`` runs commands with the collector off, which is safe only while
    no command makes a cycle per replicate, condition or record."""
    gc.disable()
    scenario = scenario_file(tmp_path, horizon=10)
    simulate = ["simulate", "--scenario", scenario, "--out", str(tmp_path / "trace.csv"),
                "--dump-replicates", "--replicates"]
    fixture = generated_fixture(random.Random(3), conditions=400)
    resolve = []
    for conditions in (100, 400):
        path = write(tmp_path / f"org{conditions}.json",
                     json.dumps({**fixture, "conditions": fixture["conditions"][:conditions]}))
        resolve.append(["resolve", "--fixture", path, "--out", str(tmp_path / "report.json")])
    match = []
    for records in (5, 20):
        (tmp_path / f"c{records}").mkdir()
        community = generated_community(tmp_path / f"c{records}", random.Random(4), 4, records)
        match.append(["match", "--community", community, "--out", str(tmp_path / "report.json")])

    assert (cyclic_garbage_left(simulate + ["5"])
            == cyclic_garbage_left(simulate + ["50"]))
    assert cyclic_garbage_left(resolve[0]) == cyclic_garbage_left(resolve[1]) > 1000  # the tree
    assert cyclic_garbage_left(match[0]) == cyclic_garbage_left(match[1])
