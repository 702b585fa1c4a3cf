"""Fractal organization of communities: role resolution with escalation.

Communities form a tree; the members of every subtree are one contiguous
slice of the tree's preorder member list, its root's own members first.  A
triggering condition fired in one community names the roles a response
activity needs.  Resolution first tries the origin's own members; whenever
roles are still open, the community raises an exception that forwards the
condition and its partial assignment to the parent, whose scope adds its
direct members and the members of its other descendant communities in
preorder.  Assignments made on the way up are kept, never revoked.  Each
level's scope is one or two slices of the preorder member list, searched
through per-type posting lists.

A fully staffed condition yields a social overlay network: a temporary
cross-community team whose members stay booked until the overlay is
dissolved.  A member serves in at most one active overlay at a time.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from pathlib import Path

from .inputs import InputError, check_document, check_keys, get_field, read_json, reading
from .taxonomy import Taxonomy, taxonomy_from_spec


class AlreadyDissolved(Exception):
    """The overlay was dissolved before."""


@dataclass(frozen=True)
class Member:
    """A concrete member of one community, with the types it can provide."""

    id: str
    offers: frozenset[str] = frozenset()

    def __init__(self, id: str, offers=()):
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "offers", frozenset(offers))

    def provides(self, role_type: str, tax: Taxonomy) -> bool:
        return not self.offers.isdisjoint(tax.subtypes_of(role_type))


class CommunityNode:
    """One community in the tree."""

    def __init__(self, id: str, members: list[Member] | None = None):
        self.id = id
        self.members: list[Member] = list(members or [])
        self.children: list[CommunityNode] = []
        self.parent: CommunityNode | None = None

    def add_child(self, child: "CommunityNode") -> "CommunityNode":
        if child.parent is not None:
            raise ValueError(f"community {child.id!r} already has a parent")
        child.parent = self
        self.children.append(child)
        return child

    def walk(self):
        """Preorder traversal of the subtree rooted here."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:
        return f"CommunityNode({self.id!r}, {len(self.members)} members, {len(self.children)} children)"


@dataclass
class TriggeringCondition:
    """A situation demanding a response activity with the given roles."""

    id: str
    origin: str
    required_roles: tuple[str, ...]
    state: dict[int, str] = field(default_factory=dict)  # role slot -> member id

    def __post_init__(self):
        self.required_roles = tuple(self.required_roles)
        for slot in self.state:
            if not 0 <= slot < len(self.required_roles):
                raise ValueError(f"preassigned slot {slot} is out of range")


@dataclass(frozen=True)
class ExceptionRecord:
    """Raised when a community cannot staff all roles and escalates."""

    community_id: str
    missing_roles: tuple[str, ...]


class OverlayStatus(Enum):
    ACTIVE = "active"
    DISSOLVED = "dissolved"


@dataclass
class SocialOverlayNetwork:
    """The temporary team assembled for one condition."""

    condition_id: str
    assignments: tuple[tuple[str, str], ...]  # (role type, member id) per slot
    home_communities: dict[str, str]  # member id -> community id
    status: OverlayStatus = OverlayStatus.ACTIVE

    @property
    def member_ids(self) -> tuple[str, ...]:
        return tuple(member for _, member in self.assignments)


@dataclass(frozen=True)
class Resolution:
    """Outcome of resolving one condition."""

    condition_id: str
    overlay: SocialOverlayNetwork | None
    missing_roles: tuple[str, ...]
    exceptions: tuple[ExceptionRecord, ...]

    @property
    def complete(self) -> bool:
        return self.overlay is not None


class FractalOrganization:
    """A community tree plus the booking state of its members.

    The tree is indexed once, when the organization is built: one preorder
    list of all members, each community's own members sorted by id, and
    per community the span of that list its own members and its subtree
    take.  A tree changed afterwards needs a new organization.

    On the first resolve, and again once the taxonomy has gained an edge or
    been replaced, an inverted index is built: per type, the ascending
    preorder positions of the members that provide it.  A member offering
    ``o`` is listed once under every type in ``taxonomy.ancestors(o)``,
    which is exactly ``Member.provides``: ``o`` is in ``subtypes_of(T)``
    iff ``T`` is in ``ancestors(o)``, unregistered types included.  A slot's
    search bisects to the start of each scope slice and walks forward in
    preorder, so it meets the same candidates in the same order as a
    member-by-member scan.
    """

    def __init__(self, root: CommunityNode, taxonomy: Taxonomy):
        self.root = root
        self.taxonomy = taxonomy
        self.booked: dict[str, str] = {}  # member id -> condition id
        self._nodes: dict[str, CommunityNode] = {}
        self._members: dict[str, Member] = {}
        self._homes: dict[str, str] = {}  # member id -> community id
        self._preorder: list[Member] = []
        self._spans: dict[str, tuple[int, int, int]] = {}  # id -> start, own end, subtree end
        self._postings_key: tuple | None = None  # (taxonomy, edge count) the postings reflect
        self._index(root)

    def _index(self, node: CommunityNode) -> None:
        if node.id in self._nodes:
            raise InputError(f"duplicate community id {node.id!r}")
        self._nodes[node.id] = node
        for member in node.members:
            if member.id in self._homes:
                raise InputError(f"duplicate member id {member.id!r}")
            self._members[member.id] = member
            self._homes[member.id] = node.id
        start = len(self._preorder)
        self._preorder.extend(sorted(node.members, key=lambda m: m.id))
        own_end = len(self._preorder)
        for child in node.children:
            self._index(child)
        self._spans[node.id] = (start, own_end, len(self._preorder))

    def node(self, community_id: str) -> CommunityNode:
        if community_id not in self._nodes:
            raise InputError(f"unknown community {community_id!r}")
        return self._nodes[community_id]

    def resolve(self, cond: TriggeringCondition) -> Resolution:
        """Staff a condition, escalating as far as the root if needed."""
        node = self.node(cond.origin)
        roles = cond.required_roles
        assignment: dict[int, str] = {}  # slot -> member id
        for slot, role_type in enumerate(roles):
            if slot in cond.state:
                self._preassign(cond.state[slot], role_type, assignment)
                assignment[slot] = cond.state[slot]
        trail: list[ExceptionRecord] = []
        came_from: CommunityNode | None = None
        postings = self._postings()
        while True:
            start, own_end, end = self._spans[node.id]
            if came_from is None:  # the origin sees its own members
                slices = ((start, own_end),)
            else:  # an ancestor skips the child subtree it was escalated from
                skip_start, _, skip_end = self._spans[came_from.id]
                slices = ((start, skip_start), (skip_end, end))
            for slot, role_type in enumerate(roles):
                if slot not in assignment:
                    member_id = self._first_free(postings.get(role_type, ()), slices, assignment)
                    if member_id is not None:
                        assignment[slot] = member_id
            missing = tuple(role for slot, role in enumerate(roles) if slot not in assignment)
            if not missing:
                chosen = [assignment[slot] for slot in range(len(roles))]
                for member_id in chosen:
                    self.booked[member_id] = cond.id
                overlay = SocialOverlayNetwork(cond.id, tuple(zip(roles, chosen)),
                                               {m: self._homes[m] for m in chosen})
                return Resolution(cond.id, overlay, (), tuple(trail))
            if node.parent is None:
                return Resolution(cond.id, None, missing, tuple(trail))
            trail.append(ExceptionRecord(node.id, missing))
            came_from, node = node, node.parent

    def dissolve(self, overlay: SocialOverlayNetwork) -> SocialOverlayNetwork:
        """Release an overlay's members and mark it dissolved."""
        if overlay.status is OverlayStatus.DISSOLVED:
            raise AlreadyDissolved(overlay.condition_id)
        overlay.status = OverlayStatus.DISSOLVED
        for member_id in overlay.member_ids:
            if self.booked.get(member_id) == overlay.condition_id:
                del self.booked[member_id]
        return overlay

    # --- helpers ---

    def _postings(self) -> dict[str, list[int]]:
        """The per-type posting lists, rebuilt when the taxonomy changed since the last build."""
        key = (self.taxonomy, len(self.taxonomy.subclass_edges))
        if self._postings_key != key:
            self._postings_key, self._postings_by_type = key, {}
            for pos, member in enumerate(self._preorder):
                for role_type in set().union(*map(self.taxonomy.ancestors, member.offers)):
                    self._postings_by_type.setdefault(role_type, []).append(pos)
        return self._postings_by_type

    def _first_free(self, positions: list[int], slices, assignment: dict[int, str]) -> str | None:
        """The first member at ``positions`` within the slices, neither booked nor assigned."""
        for lo, hi in slices:
            for pos in positions[bisect_left(positions, lo):bisect_left(positions, hi)]:
                member_id = self._preorder[pos].id
                if member_id not in self.booked and member_id not in assignment.values():
                    return member_id
        return None

    def _preassign(self, member_id: str, role_type: str, assignment: dict[int, str]) -> None:
        """Check one preassigned member against the tree, its role and the bookings."""
        member = self._members.get(member_id)
        if member is None:
            raise InputError(f"preassigned member {member_id!r} is not in the tree")
        if not member.provides(role_type, self.taxonomy):
            raise InputError(f"preassigned member {member_id!r} does not provide {role_type!r}")
        if member_id in assignment.values():
            raise InputError(f"member {member_id!r} preassigned to two roles")
        if member_id in self.booked:
            raise InputError(f"preassigned member {member_id!r} is already booked")


# --- loading -----------------------------------------------------------


_FIXTURE_KEYS = frozenset({"taxonomy", "taxonomy_edges", "community", "conditions"})
_NODE_KEYS = frozenset({"id", "members", "children"})
_MEMBER_KEYS = frozenset({"id", "offers"})
_CONDITION_KEYS = frozenset({"id", "origin", "roles", "state"})


def _node_from_dict(data, where: str) -> CommunityNode:
    check_keys(data, _NODE_KEYS, where)
    members_at = f"{where}.members"
    listed = get_field(data, "members", list, where, default=())
    members = [
        Member(get_field(m, "id", str, members_at, i),
               get_field(m, "offers", list, members_at, i, (), str))
        for i, m in enumerate(listed)
    ]
    # get_field has made each member an object; one pass over all their keys
    # costs less than a check_keys call for each of thousands of members
    if not _MEMBER_KEYS.issuperset(chain.from_iterable(listed)):
        for i, m in enumerate(listed):
            check_keys(m, _MEMBER_KEYS, members_at, i)
    node = CommunityNode(get_field(data, "id", str, where), members)
    for i, child_data in enumerate(get_field(data, "children", list, where, default=())):
        node.add_child(_node_from_dict(child_data, f"{where}.children[{i}]"))
    return node


def load_fixture(path) -> tuple[FractalOrganization, list[TriggeringCondition]]:
    """Load a community tree and its conditions from a JSON document.

    Expected shape::

        {"taxonomy": "types.txt",                    # optional path, or
         "taxonomy_edges": [["Nurse", "Caregiver"]], # optional inline edges
         "community": {"id": "city",
                       "members": [{"id": "clinic", "offers": ["Nurse"]}],
                       "children": [...]},
         "conditions": [{"id": "alarm-1", "origin": "district-a",
                         "roles": ["Nurse", "Transport"],
                         "state": {"Nurse": "clinic"}}]}  # optional preassignment

    Bad content raises InputError naming the file and the field or line.
    """
    with reading(path):
        data = read_json(path)  # before Path(): an empty name is not the directory "."
        check_document(data, "fixture", _FIXTURE_KEYS)
        community = get_field(data, "community", dict)
        taxonomy = taxonomy_from_spec(data, Path(path).parent)
        org = FractalOrganization(_node_from_dict(community, "community"), taxonomy)
        conditions = []
        for n, cond_data in enumerate(get_field(data, "conditions", list, default=())):
            check_keys(cond_data, _CONDITION_KEYS, "conditions", n)
            roles = tuple(get_field(cond_data, "roles", list, "conditions", n, items=str))
            state: dict[int, str] = {}  # a role is preassigned to its first slot
            preassigned = get_field(cond_data, "state", dict, "conditions", n, {})
            for role_name, member_id in preassigned.items():
                if role_name not in roles or type(member_id) is not str:
                    raise InputError(f"conditions[{n}].state[{role_name!r}] must map"
                                     " one of the roles to a member id")
                state[roles.index(role_name)] = member_id
            conditions.append(
                TriggeringCondition(
                    id=get_field(cond_data, "id", str, "conditions", n),
                    origin=get_field(cond_data, "origin", str, "conditions", n),
                    required_roles=roles,
                    state=state,
                )
            )
    return org, conditions
