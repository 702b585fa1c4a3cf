"""Guards over the package source: it imports only the stdlib, parses as
Python 3.10, sums floats the same way on every interpreter, and defines only
names that the program or its benchmark reaches."""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def absolute_imports(path: Path) -> set[str]:
    """The top-level module of every absolute import in one source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def test_package_imports_only_the_stdlib():
    sources = sorted((ROOT / "src" / "fso").glob("*.py"))
    assert sources
    foreign = {
        f"{path.name}: {name}"
        for path in sources
        for name in absolute_imports(path)
        if name != "fso" and name not in sys.stdlib_module_names
    }
    assert not foreign


def test_pyproject_declares_no_dependencies():
    lines = (ROOT / "pyproject.toml").read_text(encoding="utf-8").splitlines()
    assert "dependencies = []" in lines


SOURCES = sorted((ROOT / "src" / "fso").glob("*.py"))
# Possessive quantifiers and atomic groups: regex syntax new in Python 3.11.
NEW_IN_311 = ("*+", "++", "?+", "}+", "(?>")


def test_sources_parse_as_python_3_10():
    """pyproject.toml declares requires-python >= 3.10."""
    for path in SOURCES:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def regex_literals(path: Path):
    """Every string literal passed first to a function of ``re``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "re"
                and node.args and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)):
            yield node.args[0].value


def test_regexes_need_no_python_3_11_syntax():
    found = [(path.name, pattern) for path in SOURCES for pattern in regex_literals(path)]
    assert any("@prefix" in pattern for _, pattern in found)  # the tokenizer's is seen
    for name, pattern in found:
        # An escaped character or a character class holds no quantifier.
        bare = re.sub(r"\[[^\]]*\]", "", re.sub(r"\\.", "x", pattern))
        assert not [c for c in NEW_IN_311 if c in bare], f"{name}: {pattern!r}"


# Builtin sum() compensates float rounding from Python 3.12, so a float sum
# there would change bytes between interpreters: only integer sums may use it.
INTEGER_SUMS = {"diffusion_measure", "ReferenceMetaNetwork.live_degree", "reference_measure"}


def sum_calls(tree, scope=()):
    """The enclosing function or class path of each builtin ``sum(`` call."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from sum_calls(node, (*scope, node.name))
            continue
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "sum"):
            yield ".".join(scope)
        yield from sum_calls(node, scope)


def test_float_sums_are_left_to_right():
    """``monte_carlo`` and its oracle sum floats left to right on every interpreter."""
    found = {(path.name, name) for path in SOURCES + [ROOT / "tests" / "oracles.py"]
             for name in sum_calls(ast.parse(path.read_text(encoding="utf-8"), str(path)))}
    assert ("diffusion.py", "diffusion_measure") in found  # the walk enters functions
    assert {(file, name) for file, name in found if name not in INTEGER_SUMS} == set()


# Names that neither src/fso nor perfbench/ reaches, each kept for a reason.
UNREACHED_BY_DESIGN = {
    "diffusion.IsolationStrategy.MAX_DEGREE": "an enum member, reached by value from scenarios",
    "diffusion.Topology.HIERARCHY": "an enum member, reached by value from scenarios",
    "diffusion.DiffusionTrace.isolations": "the isolation log, for ROADMAP item 5's diagnostics",
    "mutualism.MutualisticWitness.forward_action": "the witness that library callers read",
    "mutualism.MutualisticWitness.backward_action": "the witness that library callers read",
    "descriptions.serialize_description": "library API documented in the README",
    "fractal.FractalOrganization.dissolve": "library API documented in the README",
    "mutualism.mutualistic_closure": "library API documented in the README",
}


def slots(node) -> list:
    """The string constants that a ``__slots__ = (...)`` assignment declares, else none."""
    if (isinstance(node, ast.Assign) and isinstance(node.value, (ast.Tuple, ast.List))
            and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets)):
        return node.value.elts
    return []


def reached_names() -> tuple[set[str], set[str]]:
    """Every name that src/fso and perfbench/ load or import, and every attribute
    they read or string they hold: how a module-level and a class-level name is reached.
    An attribute that is only assigned or deleted is not reached, and a string in a
    ``__slots__`` declaration, which defines a field, does not reach it."""
    loaded, touched = set(), set()
    for path in SOURCES + sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        declared = {id(slot) for node in ast.walk(tree) for slot in slots(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                loaded.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                loaded.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                touched.add(node.attr)
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and id(node) not in declared):
                touched.add(node.value)
    return loaded, touched


def definitions(body):
    """(name, node) for each function, class and assigned name in a module or class
    body; a class's ``__slots__`` entries are its fields."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, ast.Assign):
            yield from ((t.id, node) for t in node.targets if isinstance(t, ast.Name))
            yield from ((slot.value, node) for slot in slots(node))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id, node


def test_every_defined_name_is_reached():
    loaded, touched = reached_names()
    unreached = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for name, node in definitions(tree.body):
            if name not in loaded | touched:
                unreached.add(f"{path.stem}.{name}")
            for member, _ in definitions(node.body) if isinstance(node, ast.ClassDef) else ():
                if not member.startswith("__") and member not in touched:
                    unreached.add(f"{path.stem}.{name}.{member}")
    assert unreached == set(UNREACHED_BY_DESIGN)


# Attributes that a class assigns on ``self`` and neither src/fso nor
# perfbench/ reads, each kept for a reason.
UNREAD_SELF_ATTRIBUTES = {
    "descriptions.ParseError.offset": "library callers read the offset",
}


def self_attributes(tree):
    """(class, attribute) for each ``self.<attribute>`` that a class's code assigns."""
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for node in ast.walk(cls):
                if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                        and isinstance(node.value, ast.Name) and node.value.id == "self"):
                    yield cls.name, node.attr


def test_every_attribute_assigned_on_self_is_read():
    """State a class keeps in an attribute that nothing reads is dead; the
    reach guard above sees only names a class body defines."""
    _, touched = reached_names()
    unread = {f"{path.stem}.{cls}.{attr}" for path in SOURCES
              for cls, attr in self_attributes(ast.parse(path.read_text(encoding="utf-8")))
              if attr not in touched}
    assert unread == set(UNREAD_SELF_ATTRIBUTES)


# Class members that more than one fso class defines under one name.  The
# reach guard counts a member reached when an attribute of its name is read
# anywhere, so it cannot tell which of these is read: a dead one hides behind
# a live one.  A new shared name is reviewed by adding it here.  Not covered:
# a name that a member shares with a stdlib attribute, such as ``items``, and
# an attribute assigned only on ``self``, which this guard does not count as
# defined and the guard above counts as read when any attribute of its name is.
SHARED_MEMBER_NAMES = {
    "_index": {"Community", "FractalOrganization"},
    "condition_id": {"SocialOverlayNetwork", "Resolution"},
    "id": {"Member", "TriggeringCondition", "ActionSystem"},
    "kind": {"Match", "MatchEvent"},
    "missing_roles": {"ExceptionRecord", "Resolution"},
}


def test_member_names_shared_between_classes_are_known():
    owners: dict[str, set[str]] = {}
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.ClassDef):
                for member, _ in definitions(node.body):
                    if not member.startswith("__"):
                        owners.setdefault(member, set()).add(node.name)
    assert {member: classes for member, classes in owners.items()
            if len(classes) > 1} == SHARED_MEMBER_NAMES


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def own_nodes(scope):
    """The nodes of a module or function, not those inside the functions it defines."""
    for child in ast.iter_child_nodes(scope):
        yield child
        if not isinstance(child, FUNCTIONS):
            yield from own_nodes(child)


def bound(node) -> set[str]:
    """The names one node binds: by import, assignment or as a parameter."""
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return {alias.asname or alias.name.partition(".")[0] for alias in node.names}
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
        return {node.id}
    return {node.arg} if isinstance(node, ast.arg) else set()


def reads(scope, name: str) -> bool:
    """Whether ``scope``, or a function in it that does not bind ``name`` itself, loads it."""
    return any(
        isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id == name
        or isinstance(node, FUNCTIONS) and reads(node, name)
        and not any(name in bound(inner) for inner in own_nodes(node))
        for node in own_nodes(scope))


def test_every_imported_name_is_read():
    """An import that its module never reads is dead code, and in the command
    module it may load a layer that the running command does not use."""
    unread = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for scope in [tree, *(node for node in ast.walk(tree) if isinstance(node, FUNCTIONS))]:
            for node in own_nodes(scope):
                if (isinstance(node, (ast.Import, ast.ImportFrom))
                        and getattr(node, "module", None) != "__future__"):
                    unread += [f"{path.name}: {name}" for name in sorted(bound(node))
                               if not reads(scope, name)]
    assert unread == []
