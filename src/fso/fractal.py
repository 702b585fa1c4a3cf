"""Fractal organization of communities: role resolution with escalation.

Communities form a tree; every community is also visible as a proxy member
of its parent.  A triggering condition fired in one community names the
roles a response activity needs.  Resolution first tries the origin's own
members; whenever roles are still open, the community raises an exception
that forwards the condition and its partial assignment to the parent,
whose scope adds its direct members and the members of its other
descendant communities in preorder.  Assignments made on the way up are
kept, never revoked.

A fully staffed condition yields a social overlay network: a temporary
cross-community team whose members stay booked until the overlay is
dissolved.  A member serves in at most one active overlay at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from .inputs import InputError, get_field, read_json, reading
from .taxonomy import Taxonomy, taxonomy_from_spec


class UnknownCommunity(InputError):
    """A condition names an origin community that is not in the tree."""


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

    def proxy_members(self) -> list[str]:
        """Child communities, as they appear among this node's members."""
        return [child.id for child in self.children]

    def walk(self):
        """Preorder traversal of the subtree rooted here."""
        yield self
        for child in self.children:
            yield from child.walk()

    def depth(self) -> int:
        depth = 0
        node = self
        while node.parent is not None:
            depth += 1
            node = node.parent
        return depth

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

    def to_json_dict(self) -> dict:
        data: dict = {
            "condition": self.condition_id,
            "status": "complete" if self.complete else "incomplete",
            "missing_roles": list(self.missing_roles),
            "exceptions": [
                {
                    "community": record.community_id,
                    "missing_roles": list(record.missing_roles),
                }
                for record in self.exceptions
            ],
        }
        if self.overlay is not None:
            data["assignment"] = [
                {"role": role, "member": member}
                for role, member in self.overlay.assignments
            ]
            data["home_communities"] = dict(sorted(self.overlay.home_communities.items()))
        else:
            data["assignment"] = []
        return data


class FractalOrganization:
    """A community tree plus the booking state of its members.

    The tree is indexed once, when the organization is built: one preorder
    list of all members, each community's own members sorted by id, and
    per community the span of that list its own members and its subtree
    take.  A tree changed afterwards needs a new organization.
    """

    def __init__(self, root: CommunityNode, taxonomy: Taxonomy | None = None):
        self.root = root
        self.taxonomy = taxonomy if taxonomy is not None else Taxonomy()
        self.booked: dict[str, str] = {}  # member id -> condition id
        self._nodes: dict[str, CommunityNode] = {}
        self._members: dict[str, Member] = {}
        self._homes: dict[str, str] = {}  # member id -> community id
        self._preorder: list[Member] = []
        self._spans: dict[str, tuple[int, int, int]] = {}  # id -> start, own end, subtree end
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
            raise UnknownCommunity(f"unknown community {community_id!r}")
        return self._nodes[community_id]

    def _scope(self, node: CommunityNode, came_from: CommunityNode | None) -> list[Member]:
        """Candidates visible at one escalation level, in matching order.

        The origin sees its own members; an ancestor sees its direct
        members followed by the members of its descendants in preorder,
        skipping the already-searched child subtree.
        """
        start, own_end, end = self._spans[node.id]
        if came_from is None:
            return self._preorder[start:own_end]
        skip_start, _, skip_end = self._spans[came_from.id]
        return self._preorder[start:skip_start] + self._preorder[skip_end:end]

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
        while True:
            scope = self._scope(node, came_from)
            for slot, role_type in enumerate(roles):
                if slot in assignment:
                    continue
                for member in scope:
                    if (member.provides(role_type, self.taxonomy)
                            and member.id not in assignment.values()
                            and member.id not in self.booked):
                        assignment[slot] = member.id
                        break
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


def _node_from_dict(data, where: str) -> CommunityNode:
    members_at = f"{where}.members"
    members = [
        Member(get_field(m, "id", str, members_at, i),
               get_field(m, "offers", list, members_at, i, (), str))
        for i, m in enumerate(get_field(data, "members", list, where, default=()))
    ]
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
    path = Path(path)
    with reading(path):
        data = read_json(path)
        if type(data) is not dict:
            raise InputError(f"fixture must be a JSON object, got {type(data).__name__}")
        community = get_field(data, "community", dict)
        taxonomy = taxonomy_from_spec(data, path.parent)
        org = FractalOrganization(_node_from_dict(community, "community"), taxonomy)
        conditions = []
        for n, cond_data in enumerate(get_field(data, "conditions", list, default=())):
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
