import json
from pathlib import Path

import pytest

from fso.cli import main

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


@pytest.mark.parametrize(
    "name,content,fragments",
    [
        ("member.ttl", PREFIX + "[ service:provide [ a <x> ] ] .\n", ("member.ttl", "offset")),
        ("member.ttl", b"\xff\xfe", ("member.ttl", "UTF-8")),
        ("activity:Walking.ttl", WALKING, ("activity:Walking.ttl", "reserved")),
    ],
    ids=["block-as-type", "not-utf8", "reserved-activity-stem"],
)
def test_match_bad_description_file_names_it(tmp_path, capsys, name, content, fragments):
    member = tmp_path / name
    member.write_bytes(content if isinstance(content, bytes) else content.encode())
    assert_input_error(capsys, ["match", str(member)], *fragments)


def test_match_taxonomy_cycle_names_the_file(tmp_path, capsys):
    types = write(tmp_path / "types.txt", CYCLE)
    assert_input_error(capsys, ["match", "--taxonomy", types], "types.txt", "line 2")


def test_match_community_and_descriptions_are_exclusive(tmp_path, capsys):
    argv = ["match", "--community", str(tmp_path / "absent.json"),
            str(tmp_path / "absent.ttl")]
    assert_input_error(capsys, argv, "exclusive")


@pytest.mark.parametrize(
    "extra",
    [["--taxonomy", "absent.txt"], ["--allow-specialization"], ["--no-time-overlap"]],
    ids=["taxonomy", "allow-specialization", "no-time-overlap"],
)
def test_match_community_and_policy_options_are_exclusive(tmp_path, capsys, extra):
    # rejected before any file is read: none of the named files exists
    argv = ["match", "--community", str(tmp_path / "absent.json")]
    argv += [str(tmp_path / arg) if arg.startswith("absent") else arg for arg in extra]
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
    ],
    ids=["top-level-array", "member-without-id", "members-not-a-list",
         "taxonomy-file-cycle", "malformed-json", "bad-turtle", "unknown-policy-flag",
         "one-element-edge", "inline-edge-cycle", "duplicate-member",
         "description-path-not-a-string", "integer-too-long", "deep-nesting",
         "nul-in-file-name", "reserved-activity-id"],
)
def test_match_malformed_community_names_file_and_field(
    tmp_path, capsys, document, files, fragments
):
    for name, text in files.items():
        write(tmp_path / name, text)
    text = document if isinstance(document, str) else json.dumps(document)
    community = write(tmp_path / "community.json", text)
    assert_input_error(capsys, ["match", "--community", community], *fragments)


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
    ],
    ids=["top-level-array", "community-without-id", "member-without-id",
         "state-not-an-object", "unknown-origin", "offers-not-a-list",
         "members-not-a-list", "roles-not-a-list", "edges-not-a-list",
         "id-not-a-string", "preassigned-not-in-tree", "preassigned-lacks-role",
         "preassigned-already-booked"],
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
    scenario = scenario_file(tmp_path, horizon=5)
    out = tmp_path / "trace.csv"
    code = main(["simulate", "--scenario", scenario, "--replicates", "3",
                 "--out", str(out), "--dump-replicates"])
    assert code == 0
    dump = tmp_path / "trace.replicates.csv"
    lines = dump.read_text().splitlines()
    assert lines[0] == "replicate,step,diffusion"
    assert len(lines) == 1 + 3 * 6


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
    scenario = scenario_file(tmp_path, seed=1)
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    main(["simulate", "--scenario", scenario, "--out", str(out_a), "--seed", "1"])
    main(["simulate", "--scenario", scenario, "--out", str(out_b)])
    assert out_a.read_bytes() == out_b.read_bytes()


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
    ],
    ids=["more-isolations-than-agents", "top-level-array", "fractional-horizon",
         "fractional-isolation-time", "one-element-event", "string-probability",
         "fractal-shape", "negative-agents"],
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
