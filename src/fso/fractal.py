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
dissolved.  By default a member serves in at most one active overlay at a
time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from .taxonomy import Taxonomy, load_taxonomy


class UnknownCommunity(LookupError):
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
        return any(tax.is_subtype(offer, role_type) for offer in self.offers)


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

    condition_id: str
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
    """A community tree plus the booking state of its members."""

    def __init__(
        self,
        root: CommunityNode,
        taxonomy: Taxonomy | None = None,
        exclusive_booking: bool = True,
    ):
        self.root = root
        self.taxonomy = taxonomy if taxonomy is not None else Taxonomy()
        self.exclusive_booking = exclusive_booking
        self.booked: dict[str, str] = {}  # member id -> condition id
        self._nodes: dict[str, CommunityNode] = {}
        seen_members: set[str] = set()
        for node in root.walk():
            if node.id in self._nodes:
                raise ValueError(f"duplicate community id {node.id!r}")
            self._nodes[node.id] = node
            for member in node.members:
                if member.id in seen_members:
                    raise ValueError(f"duplicate member id {member.id!r}")
                seen_members.add(member.id)

    def node(self, community_id: str) -> CommunityNode:
        try:
            return self._nodes[community_id]
        except KeyError:
            raise UnknownCommunity(community_id) from None

    def _scope(
        self, node: CommunityNode, came_from: CommunityNode | None
    ) -> list[tuple[str, Member]]:
        """Candidates visible at one escalation level, in matching order.

        The origin sees its own members; an ancestor sees its direct
        members followed by the members of its descendants in preorder,
        skipping the already-searched child subtree.
        """
        scope = [(node.id, m) for m in sorted(node.members, key=lambda m: m.id)]
        if came_from is not None:
            for child in node.children:
                if child is came_from:
                    continue
                for descendant in child.walk():
                    scope.extend(
                        (descendant.id, m)
                        for m in sorted(descendant.members, key=lambda m: m.id)
                    )
        return scope

    def resolve(self, cond: TriggeringCondition) -> Resolution:
        """Staff a condition, escalating as far as the root if needed."""
        origin = self.node(cond.origin)
        assignment: dict[int, str] = {}
        homes: dict[str, str] = {}
        for slot, member_id in sorted(cond.state.items()):
            self._validate_preassignment(cond, slot, member_id, assignment)
            assignment[slot] = member_id
            homes[member_id] = self._home_of(member_id)
        trail: list[ExceptionRecord] = []
        node = origin
        came_from: CommunityNode | None = None
        while True:
            scope = self._scope(node, came_from)
            for slot, role_type in enumerate(cond.required_roles):
                if slot in assignment:
                    continue
                for community_id, member in scope:
                    if not member.provides(role_type, self.taxonomy):
                        continue
                    if member.id in assignment.values():
                        continue
                    if self.exclusive_booking and member.id in self.booked:
                        continue
                    assignment[slot] = member.id
                    homes[member.id] = community_id
                    break
            missing = tuple(
                role
                for slot, role in enumerate(cond.required_roles)
                if slot not in assignment
            )
            if not missing:
                overlay = SocialOverlayNetwork(
                    condition_id=cond.id,
                    assignments=tuple(
                        (role, assignment[slot])
                        for slot, role in enumerate(cond.required_roles)
                    ),
                    home_communities=homes,
                )
                for member_id in overlay.member_ids:
                    self.booked[member_id] = cond.id
                return Resolution(cond.id, overlay, (), tuple(trail))
            if node.parent is None:
                return Resolution(cond.id, None, missing, tuple(trail))
            trail.append(ExceptionRecord(cond.id, node.id, missing))
            came_from = node
            node = node.parent

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

    def _home_of(self, member_id: str) -> str:
        for node in self.root.walk():
            if any(m.id == member_id for m in node.members):
                return node.id
        raise ValueError(f"member {member_id!r} is not in the tree")

    def _validate_preassignment(
        self,
        cond: TriggeringCondition,
        slot: int,
        member_id: str,
        assignment: dict[int, str],
    ):
        role_type = cond.required_roles[slot]
        home = self._home_of(member_id)
        member = next(
            m for m in self._nodes[home].members if m.id == member_id
        )
        if not member.provides(role_type, self.taxonomy):
            raise ValueError(
                f"preassigned member {member_id!r} does not provide {role_type!r}"
            )
        if member_id in assignment.values():
            raise ValueError(f"member {member_id!r} preassigned to two roles")
        if self.exclusive_booking and member_id in self.booked:
            raise ValueError(f"preassigned member {member_id!r} is already booked")


# --- loading -----------------------------------------------------------


def _field(data, key: str, where: str = "", index: int | None = None):
    """``data[key]``; a missing field or a non-object is named by its path.

    The path of ``data`` is ``where``, or ``where[index]`` for a list item.
    """
    if isinstance(data, dict) and key in data:
        return data[key]
    if index is not None:
        where = f"{where}[{index}]"
    if not isinstance(data, dict):
        raise ValueError(
            f"{where or 'fixture'} must be a JSON object, got {type(data).__name__}"
        )
    raise ValueError(f"missing field {where + '.' if where else ''}{key}")


def _node_from_dict(data, where: str) -> CommunityNode:
    node_id = _field(data, "id", where)
    members_at = f"{where}.members"
    members = [
        Member(_field(m, "id", members_at, i), m.get("offers", []))
        for i, m in enumerate(data.get("members", []))
    ]
    node = CommunityNode(node_id, members)
    for i, child_data in enumerate(data.get("children", [])):
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
                         "roles": ["Nurse", "Transport"]}]}

    Bad content raises ValueError naming the file and the field.
    """
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        return _fixture_from_dict(json.loads(text), path.parent)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _fixture_from_dict(
    data, base: Path
) -> tuple[FractalOrganization, list[TriggeringCondition]]:
    community = _field(data, "community")
    taxonomy = Taxonomy()
    if "taxonomy" in data:
        taxonomy = load_taxonomy(base / data["taxonomy"])
    for child, parent in data.get("taxonomy_edges", []):
        taxonomy.add_subclass(child, parent)
    org = FractalOrganization(_node_from_dict(community, "community"), taxonomy)
    conditions = []
    for n, cond_data in enumerate(data.get("conditions", [])):
        roles = tuple(_field(cond_data, "roles", "conditions", n))
        state: dict[int, str] = {}
        for role_name, member_id in cond_data.get("state", {}).items():
            open_slots = [
                i
                for i, role in enumerate(roles)
                if role == role_name and i not in state
            ]
            if not open_slots:
                raise ValueError(f"no open {role_name!r} slot to preassign")
            state[open_slots[0]] = member_id
        conditions.append(
            TriggeringCondition(
                id=_field(cond_data, "id", "conditions", n),
                origin=_field(cond_data, "origin", "conditions", n),
                required_roles=roles,
                state=state,
            )
        )
    return org, conditions
