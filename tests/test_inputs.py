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
    """Drop, wrap in an array, duplicate (a list item) or replace the value at ``path``."""
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
    elif op == "duplicate":
        parent.insert(key, parent[key])
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


# One valid document of each kind, with the files it names, and the command
# that reads it; ``{}`` in argv is the work directory, ``{out}`` the output.
DOCUMENTS = [
    ({"topology": "fractal", "agents": 9, "horizon": 20, "transmit_probability": 0.5,
      "isolation_events": [[5, "max_degree"], [12, "random"]], "seed": 0,
      "cell_size": 3, "branching": 2},
     (), ["simulate", "--scenario", "{}/doc.json", "--replicates", "2", "--out", "{out}"]),
    (json.loads((DATA / "sibling_fixture.json").read_text()),
     (), ["resolve", "--fixture", "{}/doc.json", "--out", "{out}"]),
    ({"taxonomy": "fitness_taxonomy.txt",
      "policy": {"allow_specialization": True, "require_time_overlap": True},
      "members": [{"id": "alice", "descriptions": ["walking_service.ttl"]},
                  {"id": "bob", "descriptions": ["walking_service.ttl"]}]},
     ("fitness_taxonomy.txt", "walking_service.ttl"),
     ["match", "--community", "{}/doc.json", "--out", "{out}"]),
]
# small, or past the bounds that refuse them, so no accepted document runs long
VALUES = [None, True, -1, 0, 2, 0.5, float("nan"), float("inf"), 2**70, "", "x", [], {}]


@st.composite
def restructured_documents(draw):
    """A valid document with one key or list item deleted or duplicated, or one value replaced."""
    doc, names, argv = draw(st.sampled_from(DOCUMENTS))
    path = draw(st.sampled_from(list(json_paths(doc))))
    ops = ["replace"]
    if path:
        ops.append("drop")
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if type(parent) is list:
            ops.append("duplicate")
    op = draw(st.sampled_from(ops))
    return mutate(doc, path, op, draw(st.sampled_from(VALUES))), names, argv


def named_files(value):
    """Every string in the JSON value ``value``: the names of the files it may read."""
    if isinstance(value, str):
        yield value
    elif isinstance(value, (dict, list)):
        for child in value.values() if isinstance(value, dict) else value:
            yield from named_files(child)


@settings(max_examples=300, deadline=None)
@given(restructured_documents())
def test_restructured_documents_exit_0_or_2_and_name_the_file_at_fault(case):
    doc, names, argv = case
    with tempfile.TemporaryDirectory() as work:
        Path(work, "doc.json").write_text(json.dumps(doc), encoding="utf-8")
        for name in names:
            Path(work, name).write_text((DATA / name).read_text(), encoding="utf-8")
        outputs = []
        for out in ("out1", "out2"):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([arg.format(work, out=Path(work, out)) for arg in argv])
            message = err.getvalue()
            assert code in (0, 2), message
            if code == 2:
                assert message.count("\n") == 1 and message.startswith("error: "), message
                at_fault = [Path(work, "doc.json")]
                at_fault += [Path(work, name) for name in named_files(doc) if name]
                assert any(str(path) in message for path in at_fault), message
                return
            outputs.append(Path(work, out).read_bytes())
        assert outputs[0] == outputs[1]


# The two text inputs of ``fso match``, each mutated as bytes, and the command.
TEXTS = {"types.txt": (DATA / "fitness_taxonomy.txt").read_bytes(),
         "walking.ttl": (DATA / "walking_service.ttl").read_bytes()}
TEXT_ARGV = ["match", "--taxonomy", "{}/types.txt", "--allow-specialization",
             "{}/walking.ttl", "{}/member.ttl"]


@st.composite
def mutated_texts(draw):
    """One file truncated, given bytes, cut by a span, or with a line repeated or swapped."""
    name = draw(st.sampled_from(sorted(TEXTS)))
    data = TEXTS[name]
    i, j = sorted(draw(st.integers(0, len(data))) for _ in range(2))
    lines = data.splitlines(keepends=True)
    k, m = (draw(st.integers(0, len(lines) - 1)) for _ in range(2))
    op = draw(st.sampled_from(["truncate", "insert", "delete", "repeat", "swap"]))
    if op == "truncate":
        data = data[:i]
    elif op == "insert":  # any byte: NUL, controls and non-UTF-8 included
        data = data[:i] + draw(st.binary(min_size=1, max_size=3)) + data[i:]
    elif op == "delete":
        data = data[:i] + data[j:]
    elif op == "repeat":
        data = b"".join(lines[:k + 1] + lines[k:])
    else:
        lines[k], lines[m] = lines[m], lines[k]
        data = b"".join(lines)
    return name, data


def run_cli(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=200, deadline=None)
@given(mutated_texts())
def test_mutated_text_files_exit_0_or_2_and_name_the_file(case):
    name, data = case
    with tempfile.TemporaryDirectory() as work:
        for file, content in {**TEXTS, "member.ttl": TEXTS["walking.ttl"], name: data}.items():
            Path(work, file).write_bytes(content)
        outputs = []
        for out in ("out1.json", "out2.json"):
            code, message = run_cli([*(arg.format(work) for arg in TEXT_ARGV),
                                     "--out", str(Path(work, out))])
            assert code in (0, 2), message
            if code == 2:
                assert message.count("\n") == 1 and message.startswith("error: "), message
                assert str(Path(work, name)) in message, message
                return
            outputs.append(Path(work, out).read_bytes())
        assert outputs[0] == outputs[1]


# Each command with valid inputs; ``{in}`` marks the paths a mutation may replace.
PATH_COMMANDS = [
    ["match", "--taxonomy", "{in}types.txt", "{in}walking.ttl", "--out", "{in}out.json"],
    ["match", "--community", "{in}community.json", "--out", "{in}out.json"],
    ["resolve", "--fixture", "{in}fixture.json", "--out", "{in}out.json"],
    ["simulate", "--scenario", "{in}scenario.json", "--out", "{in}out.csv"],
]
PATH_FILES = {
    **TEXTS,
    "community.json": json.dumps({"taxonomy": "types.txt", "members": [
        {"id": "a", "descriptions": ["walking.ttl"]}]}).encode(),
    "fixture.json": (DATA / "sibling_fixture.json").read_bytes(),
    "scenario.json": json.dumps(DOCUMENTS[0][0]).encode(),
}
# what replaces a path: missing, missing with its directory, empty, a directory,
# and a path under a file
PATH_MUTATIONS = ["{}/absent", "{}/absent/file", "", "{}/folder", "{}/types.txt/file"]


def test_mutated_paths_exit_0_or_2_and_name_the_path():
    """Every input path and every ``--out`` of every command, replaced by each mutation."""
    cases = 0
    for template in PATH_COMMANDS:
        for at in (i for i, arg in enumerate(template) if arg.startswith("{in}")):
            for mutation in PATH_MUTATIONS:
                with tempfile.TemporaryDirectory() as work:
                    for name, data in PATH_FILES.items():
                        Path(work, name).write_bytes(data)
                    Path(work, "folder").mkdir()
                    argv = [arg.replace("{in}", f"{work}/") for arg in template]
                    argv[at] = path = mutation.format(work)
                    code, message = run_cli(argv)
                    assert code in (0, 2), (argv, message)
                    if code == 2:
                        assert message.count("\n") == 1 and message.startswith("error: "), message
                        assert (path or "''") in message, (argv, message)
                    cases += 1
    assert cases == 9 * len(PATH_MUTATIONS)


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
