import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fso.cli import main
from fso.inputs import InputError, get_field, read_json

ROOT = Path(__file__).parent.parent
DATA = Path(__file__).parent / "data"

COMMUNITY = {
    "taxonomy": "types.txt",
    "policy": {"allow_specialization": True, "require_time_overlap": True},
    "members": [
        {"id": "alice", "descriptions": ["alice.ttl"]},
        {"id": "bob", "descriptions": ["bob.ttl"]},
    ],
}


def committed_inputs() -> list[tuple[dict[str, str], list[str]]]:
    """(files, argv) per committed input; ``{}`` in argv is the work directory."""
    fixtures = [
        ({"fixture.json": (DATA / name).read_text()},
         ["resolve", "--fixture", "{}/fixture.json", "--out", "{}/out.json"])
        for name in ("sibling_fixture.json", "unresolvable_fixture.json")
    ]
    scenarios = [
        ({"scenario.json": path.read_text()},
         ["simulate", "--scenario", "{}/scenario.json", "--out", "{}/out.csv"])
        for path in sorted((ROOT / "scenarios").glob("*.json"))
    ]
    walking = (DATA / "walking_service.ttl").read_text()
    community = (
        {"community.json": json.dumps(COMMUNITY), "alice.ttl": walking,
         "bob.ttl": walking, "types.txt": (DATA / "fitness_taxonomy.txt").read_text()},
        ["match", "--community", "{}/community.json", "--out", "{}/out.json"],
    )
    return fixtures + scenarios + [community]


INPUTS = committed_inputs()
REPLACEMENTS = [None, True, 0, -3, 2.5, "x", [], {}]


def json_paths(value, path=()):
    yield path
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        children = ()
    for key, child in children:
        yield from json_paths(child, (*path, key))


def mutate(doc, path, op, replacement):
    """Drop, wrap in an array or replace the value at ``path``."""
    if not path:
        return [doc] if op == "wrap" else replacement
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if op == "drop":
        del parent[key]
    elif op == "wrap":
        parent[key] = [parent[key]]
    else:
        parent[key] = replacement
    return doc


@st.composite
def mutated_inputs(draw):
    files, argv = draw(st.sampled_from(INPUTS))
    files = dict(files)
    name = draw(st.sampled_from(sorted(files)))
    text = files[name]
    if name.endswith(".json") and draw(st.booleans()):
        doc = json.loads(text)
        path = draw(st.sampled_from(list(json_paths(doc))))
        op = draw(st.sampled_from(["drop", "wrap", "replace"]))
        files[name] = json.dumps(mutate(doc, path, op, draw(st.sampled_from(REPLACEMENTS))))
    else:
        files[name] = text[: draw(st.integers(0, len(text)))]
    return files, argv


@settings(max_examples=150, deadline=None)
@given(mutated_inputs())
def test_mutated_inputs_exit_0_or_2_with_one_line(case):
    files, argv = case
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as work:
        for name, text in files.items():
            Path(work, name).write_text(text, encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([arg.format(work) for arg in argv])
        message = err.getvalue()
        assert code in (0, 2) and "Traceback" not in message, message
        assert message.count("\n") == (code == 2), message
        assert code == 0 or work in message, message  # the line names the file


def test_get_field_names_the_path_of_a_list_item():
    members = [{"id": "a"}, {"id": 5}]
    assert get_field(members[0], "id", str, "members", 0) == "a"
    with pytest.raises(InputError, match=r"^members\[1\]\.id must be a string, got int$"):
        get_field(members[1], "id", str, "members", 1)
    with pytest.raises(InputError, match=r"^missing field members\[0\]\.offers$"):
        get_field(members[0], "offers", list, "members", 0)
    assert get_field(members[0], "offers", list, "members", 0, default=()) == ()


def test_get_field_checks_list_items():
    member = {"offers": ["Nurse", 7]}
    with pytest.raises(InputError, match=r"^m\.offers\[1\] must be a string, got int$"):
        get_field(member, "offers", list, "m", items=str)


def test_read_json_names_the_file(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text("{", encoding="utf-8")
    with pytest.raises(InputError) as excinfo:
        read_json(path)
    assert excinfo.value.file == path
    assert str(excinfo.value).startswith(f"{path}: invalid JSON: ")
