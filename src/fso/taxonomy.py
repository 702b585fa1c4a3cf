"""Service-type taxonomy with subsumption (subtype) reasoning.

Types are opaque names (bare identifiers or IRIs) arranged in an acyclic
subclass graph; multiple parents are allowed.  Subsumption is the
reflexive-transitive closure of the subclass edges: ``is_subtype(a, b)``
answers "does a count as a b".  Names that were never registered are
treated as isolated types, so they are subtypes of themselves and of
nothing else.
"""

from __future__ import annotations

from collections.abc import Iterable
from pathlib import Path

from .inputs import InputError, get_field, read_text, reading


class Taxonomy:
    """A DAG of service types under a subclass relation."""

    def __init__(self, edges: Iterable[tuple[str, str]] = ()):
        self.subclass_edges: set[tuple[str, str]] = set()
        self._parents: dict[str, set[str]] = {}  # every registered type -> its parents
        self._ancestor_cache: dict[str, frozenset[str]] = {}
        self._subtypes: dict[str, frozenset[str]] | None = None  # built on first query
        for child, parent in edges:
            self.add_subclass(child, parent)

    def add_subclass(self, child: str, parent: str) -> "Taxonomy":
        """Record ``child`` as a subclass of ``parent``, registering both.

        Raises InputError for a self-edge or an edge that would close a
        directed cycle.
        """
        if self.is_subtype(parent, child):
            raise InputError(f"edge {child!r} -> {parent!r} would create a cycle")
        self._parents.setdefault(child, set()).add(parent)
        self._parents.setdefault(parent, set())
        self.subclass_edges.add((child, parent))
        self._ancestor_cache.clear()
        self._subtypes = None
        return self

    def ancestors(self, name: str) -> frozenset[str]:
        """All types reachable upward from ``name``, including itself."""
        cached = self._ancestor_cache.get(name)
        if cached is not None:
            return cached
        seen = {name}
        stack = [name]
        while stack:
            for parent in self._parents.get(stack.pop(), ()):
                if parent not in seen:
                    seen.add(parent)
                    stack.append(parent)
        result = frozenset(seen)
        self._ancestor_cache[name] = result
        return result

    def is_subtype(self, a: str, b: str) -> bool:
        """True iff ``a`` is subsumed by ``b`` (reflexive, transitive)."""
        return a == b or b in self.ancestors(a)

    def subtypes_of(self, b: str) -> frozenset[str]:
        """Every registered type subsumed by ``b``, plus ``b`` itself.

        The first query inverts ``ancestors`` over every registered type in
        one pass, building the subtypes of all of them at once.
        """
        subtypes = self._subtypes
        if subtypes is None:
            inverse: dict[str, set[str]] = {}
            for a in self._parents:
                for t in self.ancestors(a):
                    inverse.setdefault(t, set()).add(a)
            subtypes = self._subtypes = {t: frozenset(s) for t, s in inverse.items()}
        found = subtypes.get(b)
        if found is None:  # an unregistered name
            found = subtypes[b] = frozenset((b,))
        return found

    def __repr__(self) -> str:
        return f"Taxonomy({len(self._parents)} types, {len(self.subclass_edges)} edges)"


def parse_taxonomy(text: str) -> Taxonomy:
    """Parse a line-oriented taxonomy: ``<child> subClassOf <parent>``.

    Blank lines and lines starting with ``#`` are ignored.
    """
    tax = Taxonomy()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 3 or fields[1] != "subClassOf":
            raise InputError(f"line {lineno}: expected '<child> subClassOf <parent>',"
                             f" got {line!r}")
        child, _, parent = fields
        try:
            tax.add_subclass(child, parent)
        except InputError as exc:
            raise InputError(f"line {lineno}: {exc}") from None
    return tax


def load_taxonomy(path) -> Taxonomy:
    """Read a taxonomy file; bad content names the file and the line."""
    with reading(path):
        return parse_taxonomy(read_text(path))


def taxonomy_from_spec(data: dict, base: Path) -> Taxonomy:
    """A document's optional ``taxonomy`` file (under ``base``) plus its ``taxonomy_edges``."""
    name = get_field(data, "taxonomy", str, default=None)
    if name == "":  # base / "" is base itself, a directory
        raise InputError("taxonomy: the file name is empty")
    tax = Taxonomy() if name is None else load_taxonomy(base / name)
    for i, edge in enumerate(get_field(data, "taxonomy_edges", list, default=())):
        if type(edge) is not list or len(edge) != 2 or {type(t) for t in edge} != {str}:
            raise InputError(f"taxonomy_edges[{i}] must be a [child, parent] pair of strings")
        try:
            tax.add_subclass(*edge)
        except InputError as exc:
            raise InputError(f"taxonomy_edges[{i}]: {exc}") from None
    return tax
