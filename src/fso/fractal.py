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
from enum import Enum
from itertools import chain
from pathlib import Path
from typing import NamedTuple

from .inputs import InputError, Record, check_document, check_keys, get_field, read_json, reading
from .taxonomy import Taxonomy, taxonomy_from_spec


class AlreadyDissolved(Exception):
    """The overlay was dissolved before."""


class Member(Record):
    """A concrete member of one community, with the types it can provide.

    A frozenset passed as ``offers`` is kept as it is, not copied, so members
    that ``load_fixture`` reads from one document with equal offers share one
    set.
    """

    __slots__ = ("id", "offers")

    def __init__(self, id: str, offers=()):
        self.id, self.offers = id, frozenset(offers)

    def provides(self, role_type: str, tax: Taxonomy) -> bool:
        return not self.offers.isdisjoint(tax.subtypes_of(role_type))


class CommunityNode:
    """One community in the tree; it points to its children, never to its parent."""

    def __init__(self, id: str, members: list[Member] | None = None):
        self.id = id
        self.members: list[Member] = list(members or [])
        self.children: list[CommunityNode] = []

    def add_child(self, child: "CommunityNode") -> "CommunityNode":
        self.children.append(child)
        return child

    def walk(self):
        """Preorder traversal of the subtree rooted here."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:
        return f"CommunityNode({self.id!r}, {len(self.members)} members, {len(self.children)} children)"


class TriggeringCondition(Record):
    """A situation demanding a response activity with the given roles."""

    __slots__ = ("id", "origin", "required_roles", "state")
    __hash__ = None  # mutable

    def __init__(self, id: str, origin: str, required_roles: tuple[str, ...],
                 state: dict[int, str] | None = None):
        self.id, self.origin = id, origin
        self.state = {} if state is None else state  # role slot -> member id
        self.required_roles = tuple(required_roles)
        for slot in self.state:
            if not 0 <= slot < len(self.required_roles):
                raise ValueError(f"preassigned slot {slot} is out of range")


class ExceptionRecord(NamedTuple):
    """Raised when a community cannot staff all roles and escalates."""

    community_id: str
    missing_roles: tuple[str, ...]


class OverlayStatus(Enum):
    ACTIVE = "active"
    DISSOLVED = "dissolved"


class SocialOverlayNetwork(Record):
    """The temporary team assembled for one condition."""

    __slots__ = ("condition_id", "assignments", "home_communities", "status")
    __hash__ = None  # dissolving it changes its status

    def __init__(self, condition_id: str,
                 assignments: tuple[tuple[str, str], ...],  # (role type, member id) per slot
                 home_communities: dict[str, str],  # member id -> community id
                 status: OverlayStatus = OverlayStatus.ACTIVE):
        self.condition_id, self.assignments = condition_id, assignments
        self.home_communities, self.status = home_communities, status

    @property
    def member_ids(self) -> tuple[str, ...]:
        return tuple(member for _, member in self.assignments)


class Resolution(NamedTuple):
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
    list of all members and one of their ids, each community's own members
    sorted by id, and per community id the span of that list its own
    members and its subtree take, with its parent's id, so escalation climbs
    by id alone, and per member id its home community, in whose own members
    a preassigned member is found by bisection.  A community reached twice,
    under two parents or under its own descendant, is refused as a duplicate
    id.  A tree changed afterwards needs a new organization.

    On the first resolve, and again once the taxonomy has gained an edge or
    been replaced, an inverted index is built: per type, the ascending
    preorder positions of the members that provide it.  A member offering
    ``o`` is listed once under every type in ``taxonomy.ancestors(o)``,
    which is exactly ``Member.provides``: ``o`` is in ``subtypes_of(T)``
    iff ``T`` is in ``ancestors(o)``, unregistered types included.  Each
    distinct offer set's closure is derived once per build and serves every
    member that offers that set.  A slot's search bisects to the start of
    each scope slice and walks its posting list forward by index, reading
    each id from the preorder id list, to the first member neither booked
    nor taken by the condition, so it meets the same candidates in the same
    order as a member-by-member scan.
    The slots still open at one level are the only ones searched at the next.
    """

    def __init__(self, root: CommunityNode, taxonomy: Taxonomy):
        self.root = root
        self.taxonomy = taxonomy
        self.booked: dict[str, str] = {}  # member id -> condition id
        self._homes: dict[str, str] = {}  # member id -> community id
        self._preorder: list[Member] = []
        # id -> start, own end, subtree end, parent id
        self._spans: dict[str, tuple[int, int, int, str | None]] = {}
        self._postings_key: tuple | None = None  # (taxonomy, edge count) the postings reflect
        self._index(root)
        self._ids = [member.id for member in self._preorder]

    def _index(self, node: CommunityNode, parent: str | None = None) -> None:
        if node.id in self._spans:
            raise InputError(f"duplicate community id {node.id!r}")
        for member in node.members:
            if member.id in self._homes:
                raise InputError(f"duplicate member id {member.id!r}")
            self._homes[member.id] = node.id
        start = len(self._preorder)
        self._preorder.extend(sorted(node.members, key=lambda m: m.id))
        own_end = len(self._preorder)
        self._spans[node.id] = (start, own_end, own_end, parent)  # refuses the id below
        for child in node.children:
            self._index(child, node.id)
        self._spans[node.id] = (start, own_end, len(self._preorder), parent)

    def resolve(self, cond: TriggeringCondition) -> Resolution:
        """Staff a condition, escalating as far as the root if needed."""
        community = cond.origin
        if community not in self._spans:
            raise InputError(f"unknown community {community!r}")
        roles = cond.required_roles
        postings, ids, booked = self._postings(), self._ids, self.booked
        chosen: list[str | None] = [None] * len(roles)  # slot -> member id
        taken: set[str] = set()  # the members chosen so far
        open_slots = [*enumerate(roles)]  # (slot, role type) still to staff, in slot order
        if cond.state:
            for slot in sorted(cond.state):
                self._preassign(cond.state[slot], roles[slot], taken)
                chosen[slot] = cond.state[slot]
                taken.add(chosen[slot])
            open_slots = [(slot, role) for slot, role in open_slots if slot not in cond.state]
        trail: list[ExceptionRecord] = []
        came_from: str | None = None
        while True:
            start, own_end, end, parent = self._spans[community]
            if came_from is None:  # the origin sees its own members
                slices = ((start, own_end),)
            else:  # an ancestor skips the child subtree it was escalated from
                skip_start, _, skip_end, _ = self._spans[came_from]
                slices = ((start, skip_start), (skip_end, end))
            still_open = []
            for slot, role_type in open_slots:  # the first free member of the scope, in preorder
                positions = postings.get(role_type, ())
                for lo, hi in slices:
                    for i in range(bisect_left(positions, lo), bisect_left(positions, hi)):
                        member_id = ids[positions[i]]
                        if member_id not in booked and member_id not in taken:
                            break
                    else:  # none free in this slice
                        continue
                    chosen[slot] = member_id
                    taken.add(member_id)
                    break
                else:  # none free in the scope: the slot stays open
                    still_open.append((slot, role_type))
            open_slots = still_open
            if not open_slots:
                booked.update(dict.fromkeys(chosen, cond.id))
                overlay = SocialOverlayNetwork(cond.id, tuple(zip(roles, chosen)),
                                               dict(zip(chosen, map(self._homes.get, chosen))))
                return Resolution(cond.id, overlay, (), tuple(trail))
            missing = tuple(role for _, role in open_slots)
            if parent is None:
                return Resolution(cond.id, None, missing, tuple(trail))
            trail.append(ExceptionRecord(community, missing))
            came_from, community = community, parent

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
            postings: dict[str, list[int]] = {}
            lists_of: dict[frozenset[str], list] = {}  # offer set -> the lists it is posted to
            for pos, member in enumerate(self._preorder):
                lists = lists_of.get(member.offers)
                if lists is None:
                    types = set().union(*map(self.taxonomy.ancestors, member.offers))
                    lists = lists_of[member.offers] = [postings.setdefault(t, []) for t in types]
                for positions in lists:
                    positions.append(pos)
            self._postings_key, self._postings_by_type = key, postings
        return self._postings_by_type

    def _preassign(self, member_id: str, role_type: str, taken: set[str]) -> None:
        """Check one preassigned member against the tree, its role and the bookings."""
        home = self._homes.get(member_id)
        if home is None:
            raise InputError(f"preassigned member {member_id!r} is not in the tree")
        start, own_end, _, _ = self._spans[home]  # the home's own members, in id order
        member = self._preorder[bisect_left(self._ids, member_id, start, own_end)]
        if not member.provides(role_type, self.taxonomy):
            raise InputError(f"preassigned member {member_id!r} does not provide {role_type!r}")
        if member_id in taken:
            raise InputError(f"member {member_id!r} preassigned to two roles")
        if member_id in self.booked:
            raise InputError(f"preassigned member {member_id!r} is already booked")


# --- loading -----------------------------------------------------------


_FIXTURE_KEYS = frozenset({"taxonomy", "taxonomy_edges", "community", "conditions"})
_NODE_KEYS = frozenset({"id", "members", "children"})
_MEMBER_KEYS = frozenset({"id", "offers"})
_CONDITION_KEYS = frozenset({"id", "origin", "roles", "state"})


def _node_from_dict(data, where: str, offer_sets: dict) -> CommunityNode:
    """One community and its subtree.

    ``offer_sets`` maps each offers list read so far from the document, as a
    tuple, and each distinct offer set to the first frozenset of that set,
    which every later member with equal offers shares.  A member whose list
    was read before takes its set from one lookup; any other member goes
    through the field checks, so a bad one is named as it always was.
    """
    check_keys(data, _NODE_KEYS, where)
    members_at = f"{where}.members"
    listed = get_field(data, "members", list, where, default=())
    members = []
    for i, m in enumerate(listed):
        try:  # offers listed before: their set is one lookup away
            if type(m["id"]) is str and type(m["offers"]) is list:
                members.append(Member(m["id"], offer_sets[tuple(m["offers"])]))
                continue
        except (KeyError, TypeError):  # a first sighting, a missing field, not an object
            pass
        member_id = get_field(m, "id", str, members_at, i)
        listed_offers = get_field(m, "offers", list, members_at, i, (), str)
        offers = frozenset(listed_offers)
        offers = offer_sets.setdefault(offers, offers)
        offer_sets[tuple(listed_offers)] = offers
        members.append(Member(member_id, offers))
    # get_field has made each member an object; one pass over all their keys
    # costs less than a check_keys call for each of thousands of members
    if not _MEMBER_KEYS.issuperset(chain.from_iterable(listed)):
        for i, m in enumerate(listed):
            check_keys(m, _MEMBER_KEYS, members_at, i)
    node = CommunityNode(get_field(data, "id", str, where), members)
    for i, child_data in enumerate(get_field(data, "children", list, where, default=())):
        node.add_child(_node_from_dict(child_data, f"{where}.children[{i}]", offer_sets))
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

    Members with equal offers share one frozenset, so a document with many
    members but few distinct offer sets holds each set once.  Bad content
    raises InputError naming the file and the field or line.
    """
    with reading(path):
        data = read_json(path)  # before Path(): an empty name is not the directory "."
        check_document(data, "fixture", _FIXTURE_KEYS)
        community = get_field(data, "community", dict)
        taxonomy = taxonomy_from_spec(data, Path(path).parent)
        org = FractalOrganization(_node_from_dict(community, "community", {}), taxonomy)
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
