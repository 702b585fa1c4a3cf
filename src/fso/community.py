"""A single service-oriented community: members, publication, matching.

Members publish service descriptions.  Each new publication is matched
against the outstanding descriptions of other members, oldest first, and
the first hit consumes both records and emits an event.  Matching is
taxonomy-aware: a provided type satisfies a requested type when it is a
subtype of it, or, when the policy allows specialization, a supertype.

Only outstanding records are kept, in publication order, each under a
sequence number and indexed in two buckets: by the type it provides and by
the type it requests.  A new record reads the provide-buckets of the types
that could serve its request and the request-buckets of the types its
offer could serve, as the taxonomy gives them, and visits that union by
ascending sequence number; ``match_pair`` alone decides each candidate.

A match where both sides end up enacting the same type is a group
activity.  The community can promote such a match to a member of its own:
the promoted activity offers the shared type, requests a venue for it,
accumulates later requesters as participants, and is bound by the first
member that offers the venue type.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import count
from pathlib import Path

from .descriptions import ServiceDescription, load_descriptions
from .inputs import InputError, get_field, read_json, reading
from .taxonomy import Taxonomy, taxonomy_from_spec

DEFAULT_RESIDUAL_REQUEST = "Location"
ACTIVITY_PREFIX = "activity:"  # + shared type: the member id of a group activity


class UnknownMember(LookupError):
    """Publication from a member id that was never registered."""


class MemberKind(Enum):
    PERSON = "person"
    GROUP_ACTIVITY = "group_activity"


class MatchType(Enum):
    NO_MATCH = "no_match"
    SERVICE = "service"
    MUTUALISTIC = "mutualistic"
    GROUP = "group"


@dataclass(frozen=True)
class MatchPolicy:
    """Knobs of the matching rule.

    allow_specialization lets a provider of a supertype satisfy a request
    for one of its subtypes (a Fitness offer serving a Walking request).
    """

    allow_specialization: bool = False
    require_time_overlap: bool = True


@dataclass(frozen=True)
class Match:
    """Outcome of matching two descriptions (argument order matters).

    For a SERVICE match ``first_provides`` tells which argument is the
    providing side.  For MUTUALISTIC, ``x_type`` is what the first
    description provides and ``y_type`` what the second one provides.
    """

    kind: MatchType
    first_provides: bool | None = None
    matched_type: str | None = None
    x_type: str | None = None
    y_type: str | None = None


NO_MATCH = Match(MatchType.NO_MATCH)


@dataclass
class Member:
    id: str
    kind: MemberKind = MemberKind.PERSON
    published: list[ServiceDescription] = field(default_factory=list)


@dataclass
class GroupActivity:
    """A promoted group match, acting as a member of the community."""

    activity_type: str
    member_id: str
    participants: set[str]
    residual_request: str
    description: ServiceDescription
    location_provider: str | None = None
    location_offer: ServiceDescription | None = None


@dataclass(frozen=True)
class MatchEvent:
    """One emitted match: which members matched, and on what."""

    kind: MatchType
    members: tuple[str, str]  # standing party first; activities always first
    matched_type: str | None = None
    provider: str | None = None
    requester: str | None = None
    x_type: str | None = None
    y_type: str | None = None

    def to_json_dict(self) -> dict:
        data: dict = {"kind": self.kind.value, "members": list(self.members)}
        if self.kind is MatchType.SERVICE:
            data.update(
                provider=self.provider,
                requester=self.requester,
                matched_type=self.matched_type,
            )
        elif self.kind is MatchType.GROUP:
            data["matched_type"] = self.matched_type
        elif self.kind is MatchType.MUTUALISTIC:
            data.update(x_type=self.x_type, y_type=self.y_type)
        return data


def _satisfies(provide: str, request: str, tax: Taxonomy, pol: MatchPolicy) -> str | None:
    """The type actually enacted when ``provide`` serves ``request``.

    That is the more specific of the two types; None when neither subsumes
    the other (or specialization is needed but not allowed).
    """
    if tax.is_subtype(provide, request):
        return provide
    if pol.allow_specialization and tax.is_subtype(request, provide):
        return request
    return None


def match_pair(
    d1: ServiceDescription,
    d2: ServiceDescription,
    tax: Taxonomy,
    pol: MatchPolicy = MatchPolicy(),
) -> Match:
    """Classify the relation between two published descriptions."""
    if pol.require_time_overlap and not d1.overlaps(d2):
        return NO_MATCH
    forward = None  # d1 provides for d2
    if d1.provide is not None and d2.request is not None:
        forward = _satisfies(d1.provide, d2.request, tax, pol)
    backward = None  # d2 provides for d1
    if d2.provide is not None and d1.request is not None:
        backward = _satisfies(d2.provide, d1.request, tax, pol)
    if forward is None and backward is None:
        return NO_MATCH
    if forward is not None and backward is not None:
        if forward == backward:
            return Match(MatchType.GROUP, matched_type=forward)
        return Match(MatchType.MUTUALISTIC, x_type=forward, y_type=backward)
    if forward is not None:
        return Match(MatchType.SERVICE, first_provides=True, matched_type=forward)
    return Match(MatchType.SERVICE, first_provides=False, matched_type=backward)


@dataclass
class _Entry:
    seq: int  # publication order
    owner: str
    description: ServiceDescription


class Community:
    """Member registry plus the publish-subscribe matching state."""

    def __init__(
        self,
        taxonomy: Taxonomy | None = None,
        policy: MatchPolicy = MatchPolicy(),
        auto_promote_groups: bool = True,
        residual_requests: dict[str, str] | None = None,
    ):
        self.taxonomy = taxonomy if taxonomy is not None else Taxonomy()
        self.policy = policy
        self.auto_promote_groups = auto_promote_groups
        self.residual_requests = dict(residual_requests or {})
        self.members: dict[str, Member] = {}
        self.activities: dict[str, GroupActivity] = {}  # activity type -> activity
        self._activity_of: dict[str, GroupActivity] = {}  # member id -> activity
        self._outstanding: dict[int, _Entry] = {}  # seq -> entry, in seq order
        self._by_provide: dict[str, dict[int, _Entry]] = {}
        self._by_request: dict[str, dict[int, _Entry]] = {}
        self._seq = count()

    # --- registry ---

    def register(self, member_id: str, kind: MemberKind = MemberKind.PERSON) -> Member:
        if member_id in self.members:
            raise InputError(f"member {member_id!r} already registered")
        if kind is MemberKind.PERSON and member_id.startswith(ACTIVITY_PREFIX):
            raise InputError(f"member id {member_id!r}: the prefix {ACTIVITY_PREFIX!r}"
                             " is reserved for group activities")
        member = Member(member_id, kind)
        self.members[member_id] = member
        return member

    # --- outstanding-record index ---

    def _buckets(self, description: ServiceDescription):
        if description.provide is not None:
            yield self._by_provide, description.provide
        if description.request is not None:
            yield self._by_request, description.request

    def _index(self, entry: _Entry):
        for buckets, key in self._buckets(entry.description):
            buckets.setdefault(key, {})[entry.seq] = entry

    def _unindex(self, entry: _Entry):
        for buckets, key in self._buckets(entry.description):
            bucket = buckets[key]
            del bucket[entry.seq]
            if not bucket:
                del buckets[key]

    def _store(self, owner: str, description: ServiceDescription) -> _Entry:
        entry = _Entry(next(self._seq), owner, description)
        self._outstanding[entry.seq] = entry
        self._index(entry)
        return entry

    def _consume(self, entry: _Entry):
        del self._outstanding[entry.seq]
        self._unindex(entry)

    def _candidates(self, description: ServiceDescription) -> list[_Entry]:
        """Outstanding entries whose types could match, oldest first.

        Provide-buckets of the types that could serve the request, and
        request-buckets of the types the offer could serve: a superset of
        the matches, left to ``match_pair`` to decide.
        """
        tax, special = self.taxonomy, self.policy.allow_specialization
        found: dict[int, _Entry] = {}
        for buckets, key, near, far in (
            (self._by_provide, description.request, tax.subtypes_of, tax.ancestors),
            (self._by_request, description.provide, tax.ancestors, tax.subtypes_of),
        ):
            if key is not None:
                for t in near(key) | far(key) if special else near(key):
                    found.update(buckets.get(t, {}))
        return [found[seq] for seq in sorted(found)]

    # --- publication ---

    def publish(
        self, member_id: str, description: ServiceDescription
    ) -> list[MatchEvent]:
        """Store a description and match it against outstanding ones.

        Returns the emitted events: at most one direct match, plus any
        follow-up events caused by group promotion.
        """
        if member_id not in self.members:
            raise UnknownMember(member_id)
        self.members[member_id].published.append(description)
        candidates = self._candidates(description)
        entry = self._store(member_id, description)
        events: list[MatchEvent] = []
        for candidate in candidates:
            if candidate.owner == member_id:
                continue
            activity = self._activity_of.get(candidate.owner)
            if activity is not None:
                if self._match_activity(activity, candidate, entry, events):
                    break
                continue
            match = match_pair(
                candidate.description, description, self.taxonomy, self.policy
            )
            if match.kind is MatchType.NO_MATCH:
                continue
            self._consume(candidate)
            self._consume(entry)
            event = self._event(candidate.owner, member_id, match)
            events.append(event)
            if match.kind is MatchType.GROUP and self.auto_promote_groups:
                _, follow_ups = self.form_group_activity(event)
                events.extend(follow_ups)
            break
        return events

    def _event(self, first_owner: str, second_owner: str, match: Match) -> MatchEvent:
        members = (first_owner, second_owner)
        if match.kind is MatchType.SERVICE:
            provider, requester = members if match.first_provides else members[::-1]
            return MatchEvent(match.kind, members, match.matched_type, provider, requester)
        # a group match carries only matched_type, a mutualistic one only x/y
        return MatchEvent(match.kind, members, match.matched_type,
                          x_type=match.x_type, y_type=match.y_type)

    def _match_activity(
        self,
        activity: GroupActivity,
        activity_entry: _Entry,
        entry: _Entry,
        events: list[MatchEvent],
    ) -> bool:
        """Match a fresh description against a standing group activity.

        Joining and venue-binding leave the activity's own record
        outstanding, so one activity serves any number of later matches.
        """
        match = match_pair(
            activity_entry.description, entry.description, self.taxonomy, self.policy
        )
        if match.kind is MatchType.NO_MATCH:
            return False
        joins = match.kind in (MatchType.MUTUALISTIC, MatchType.GROUP) or (
            match.kind is MatchType.SERVICE and match.first_provides
        )
        binds = match.kind in (MatchType.MUTUALISTIC, MatchType.GROUP) or (
            match.kind is MatchType.SERVICE and not match.first_provides
        )
        if joins:
            activity.participants.add(entry.owner)
        if binds:
            activity.location_provider = entry.owner
            activity.location_offer = entry.description
            # the venue request is now satisfied; keep offering the activity
            activity.description = replace(activity.description, request=None)
            self._unindex(activity_entry)
            activity_entry.description = activity.description
            self._index(activity_entry)
        self._consume(entry)
        events.append(self._event(activity.member_id, entry.owner, match))
        return True

    # --- group promotion ---

    def form_group_activity(
        self, event: MatchEvent
    ) -> tuple[GroupActivity, list[MatchEvent]]:
        """Promote a GROUP match event into a community member.

        One activity exists per shared type: a second group match on the
        same type merges its members into the standing activity.  The
        promoted record immediately sweeps the outstanding descriptions,
        so earlier-published requesters and venue offers attach to it.
        """
        if event.kind is not MatchType.GROUP:
            raise ValueError("only GROUP events can be promoted")
        shared_type = event.matched_type
        existing = self.activities.get(shared_type)
        if existing is not None:
            existing.participants.update(event.members)
            return existing, []
        member_id = ACTIVITY_PREFIX + shared_type
        founders = [
            d
            for m in event.members
            for d in self.members[m].published
            if d.provide == shared_type or d.request == shared_type
        ]
        if not founders:
            raise ValueError(
                f"group members {event.members} never published {shared_type!r}"
            )
        start = max(d.start_time for d in founders)
        end = min(d.end_time for d in founders)
        if start > end:  # disjoint founders (overlap not required): use the span
            start = min(d.start_time for d in founders)
            end = max(d.end_time for d in founders)
        derived = ServiceDescription(
            creation_time=max(d.creation_time for d in founders),
            start_time=start,
            end_time=end,
            creator=member_id,
            provide=shared_type,
            request=self.residual_requests.get(shared_type, DEFAULT_RESIDUAL_REQUEST),
        )
        self.register(member_id, MemberKind.GROUP_ACTIVITY)
        activity = GroupActivity(
            activity_type=shared_type,
            member_id=member_id,
            participants=set(event.members),
            residual_request=derived.request,
            description=derived,
        )
        self.activities[shared_type] = activity
        self._activity_of[member_id] = activity
        self.members[member_id].published.append(derived)
        activity_entry = self._store(member_id, derived)
        return activity, self._sweep(activity, activity_entry)

    def _sweep(
        self, activity: GroupActivity, activity_entry: _Entry
    ) -> list[MatchEvent]:
        """Attach all outstanding matching descriptions to a new activity."""
        events: list[MatchEvent] = []
        for candidate in list(self._outstanding.values()):
            if candidate.owner not in self._activity_of:
                self._match_activity(activity, activity_entry, candidate, events)
        return events

    # --- views ---

    def pending(self) -> list[ServiceDescription]:
        """Unconsumed descriptions, in publication order."""
        return [e.description for e in self._outstanding.values()]

    def pending_entries(self) -> list[tuple[str, ServiceDescription]]:
        return [(e.owner, e.description) for e in self._outstanding.values()]


# --- loading -----------------------------------------------------------


def load_community(path) -> tuple[Community, list[tuple[str, ServiceDescription]]]:
    """Build a community from a JSON document.

    Expected shape::

        {"taxonomy": "types.txt",              # optional path, or
         "taxonomy_edges": [["Walking", "Fitness"]],  # optional inline edges
         "policy": {"allow_specialization": true,
                    "require_time_overlap": true},
         "members": [{"id": "resident-1",
                      "descriptions": ["resident1.ttl"]}]}

    Relative paths resolve against the document's directory.  Returns the
    community plus the publication plan (member id, description) in member
    order, then file order, then record order.  Bad content raises
    InputError naming the file and the field or line.
    """
    path = Path(path)
    with reading(path):
        data = read_json(path)
        if type(data) is not dict:
            raise InputError(f"document must be a JSON object, got {type(data).__name__}")
        taxonomy = taxonomy_from_spec(data, path.parent)
        flags = get_field(data, "policy", dict, default={})
        for flag in flags:
            if flag not in ("allow_specialization", "require_time_overlap"):
                raise InputError(f"policy: unknown flag {flag!r}")
            get_field(flags, flag, bool, "policy")
        community = Community(taxonomy, MatchPolicy(**flags))
        plan: list[tuple[str, ServiceDescription]] = []
        for i, member in enumerate(get_field(data, "members", list, default=())):
            member_id = get_field(member, "id", str, "members", i)
            try:
                community.register(member_id)
            except InputError as exc:
                raise InputError(f"members[{i}].id: {exc}") from None
            for name in get_field(member, "descriptions", list, "members", i, (), str):
                plan.extend((member_id, d) for d in load_descriptions(path.parent / name))
    return community, plan
