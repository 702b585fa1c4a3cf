"""A single service-oriented community: members, publication, matching.

Members publish service descriptions.  Each new publication is matched
against the outstanding descriptions of other members, oldest first, and
the first hit consumes both records and emits an event.  Matching is
taxonomy-aware: a provided type satisfies a requested type when it is a
subtype of it, or, when the policy allows specialization, a supertype.

A record is stored only while it is outstanding, under a sequence number in
publication order, in two buckets, the one store of what is pending: by the
type it provides and by the type it requests.  A new record reads the
provide-buckets of the types that could serve its request and the
request-buckets of the types its offer could serve, as the taxonomy gives
them, and visits that union by ascending sequence number: the index alone
decides the candidates, and ``match_pair`` names each one's match.  Each
bucket keeps its entries sorted by start time, with the longest window
among them.  An entry that overlaps the window [s, e] starts no later than
e and no earlier than s minus that longest window, so one bisection bounds
the scan to the entries that start in [s - longest, e], and of those only
the ones that end at s or later are candidates.  A record never looks at an
entry whose window it misses.  When the policy does not require overlap,
the query window is the whole time line.

A match is the pair of types each side enacts for the other, the paper's
witness pair read as service types.  A match where both sides enact the
same type is a group activity.  The community can promote such a match to
a standing record of its own: the activity offers the shared type,
requests a venue for it, serves later requesters, and is bound by the
first member that offers the venue type.  It sweeps the outstanding records
first and is stored after that sweep.  It matches like a member through
that record, but it is not a member: nobody can publish as it.  Who joined
an activity and who bound its venue is read from the event stream: in an
event whose first member is the activity, a ``forward`` type means the
second member joined it and a ``backward`` type means it bound the venue.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections import defaultdict
from dataclasses import dataclass, replace
from datetime import datetime, timedelta
from enum import Enum
from itertools import count
from pathlib import Path

from .descriptions import ServiceDescription, load_descriptions
from .inputs import InputError, check_document, check_keys, get_field, read_json, reading
from .taxonomy import Taxonomy, taxonomy_from_spec

DEFAULT_RESIDUAL_REQUEST = "Location"
ACTIVITY_PREFIX = "activity:"  # + shared type: the member id of a group activity
_LAST = float("inf")  # after every sequence number


class UnknownMember(LookupError):
    """Publication from a member id that was never registered."""


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
    require_time_overlap matches two records only when their closed
    ``[start_time, end_time]`` windows intersect (a shared end is enough);
    off, the windows are not compared.
    """

    allow_specialization: bool = False
    require_time_overlap: bool = True


@dataclass(frozen=True)
class Match:
    """Outcome of matching two descriptions (argument order matters).

    ``forward`` is the type the first description enacts for the second
    and ``backward`` the type the second enacts for the first, each None
    where that side serves nothing: the ``mutualism.MutualisticWitness``
    of the two records.  The pair decides ``kind``: no side set is
    NO_MATCH, one SERVICE, two different types MUTUALISTIC, the same type
    twice GROUP.
    """

    forward: str | None = None
    backward: str | None = None

    @property
    def kind(self) -> MatchType:
        if self.forward is None:
            return MatchType.NO_MATCH if self.backward is None else MatchType.SERVICE
        if self.backward is None:
            return MatchType.SERVICE
        return MatchType.GROUP if self.forward == self.backward else MatchType.MUTUALISTIC


NO_MATCH = Match()


@dataclass(frozen=True)
class MatchEvent:
    """One emitted match: the two parties and the Match of their records.

    ``match`` reads from the first member's side, so its ``forward`` type
    is what the first member enacts for the second.
    """

    members: tuple[str, str]  # standing party first; activities always first
    match: Match

    @property
    def kind(self) -> MatchType:
        return self.match.kind

    def to_json_dict(self) -> dict:
        forward, backward, kind = self.match.forward, self.match.backward, self.kind
        data: dict = {"kind": kind.value, "members": list(self.members)}
        if kind is MatchType.SERVICE:
            provider, requester = self.members if forward is not None else self.members[::-1]
            data.update(provider=provider, requester=requester,
                        matched_type=forward if forward is not None else backward)
        elif kind is MatchType.GROUP:
            data["matched_type"] = forward
        else:  # MUTUALISTIC: an emitted event is never NO_MATCH
            data.update(x_type=forward, y_type=backward)
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
    return Match(forward, backward)


@dataclass
class _Entry:
    seq: int  # publication order
    owner: str
    description: ServiceDescription


class _Bucket:
    """The outstanding entries of one type, sorted by start time.

    Each item is ``(start, seq, end, entry)``: the sequence number breaks
    ties between equal starts and makes every item's prefix unique.
    ``longest`` is the longest window (end - start) among the items; it
    shrinks back when the entry that set it leaves.
    """

    __slots__ = ("items", "longest")

    def __init__(self):
        self.items: list[tuple[datetime, int, datetime, _Entry]] = []
        self.longest = timedelta(0)

    def add(self, entry: _Entry):
        d = entry.description
        insort(self.items, (d.start_time, entry.seq, d.end_time, entry))
        self.longest = max(self.longest, d.end_time - d.start_time)

    def remove(self, entry: _Entry):
        d = entry.description
        del self.items[bisect_left(self.items, (d.start_time, entry.seq))]
        if d.end_time - d.start_time == self.longest:
            self.longest = max((end - start for start, _, end, _ in self.items),
                               default=timedelta(0))

    def overlapping(self, start: datetime, end: datetime):
        """The entries whose window meets the closed window [start, end]."""
        items = self.items
        try:
            earliest = start - self.longest
        except OverflowError:  # the longest window reaches back past datetime.min
            earliest = datetime.min
        lo = bisect_left(items, (earliest,))
        if lo == len(items) or items[lo][0] > end:  # the common case: nothing starts in time
            return ()
        hi = bisect_right(items, (end, _LAST))
        return [entry for _, _, stop, entry in items[lo:hi] if stop >= start]


class Community:
    """Member registry plus the publish-subscribe matching state."""

    def __init__(self, taxonomy: Taxonomy, policy: MatchPolicy = MatchPolicy()):
        self.taxonomy = taxonomy
        self.policy = policy
        self.members: dict[str, list[ServiceDescription]] = {}  # id -> its records
        self.activities: set[str] = set()  # ids of the promoted group activities
        self._by_provide: defaultdict[str, _Bucket] = defaultdict(_Bucket)
        self._by_request: defaultdict[str, _Bucket] = defaultdict(_Bucket)
        self._seq = count()

    # --- registry ---

    def register(self, member_id: str) -> None:
        if member_id in self.members:
            raise InputError(f"member {member_id!r} already registered")
        if member_id.startswith(ACTIVITY_PREFIX):
            raise InputError(f"member id {member_id!r}: the prefix {ACTIVITY_PREFIX!r}"
                             " is reserved for group activities")
        self.members[member_id] = []

    # --- outstanding-record index ---

    def _buckets(self, description: ServiceDescription):
        if description.provide is not None:
            yield self._by_provide, description.provide
        if description.request is not None:
            yield self._by_request, description.request

    def _index(self, entry: _Entry):
        for buckets, key in self._buckets(entry.description):
            buckets[key].add(entry)

    def _unindex(self, entry: _Entry):
        for buckets, key in self._buckets(entry.description):
            bucket = buckets[key]
            bucket.remove(entry)
            if not bucket.items:
                del buckets[key]

    def _store(self, owner: str, description: ServiceDescription):
        self._index(_Entry(next(self._seq), owner, description))

    def _candidates(self, description: ServiceDescription) -> list[_Entry]:
        """Outstanding entries that match the description, oldest first.

        Provide-buckets of the types that could serve the request, and
        request-buckets of the types the offer could serve, each read only
        where its windows meet the description's (everywhere when the
        policy does not require overlap).  These are the types ``_satisfies``
        accepts and the windows ``overlaps`` accepts, so every entry returned
        matches: ``match_pair`` only names the match.
        """
        tax, special = self.taxonomy, self.policy.allow_specialization
        if self.policy.require_time_overlap:
            start, end = description.start_time, description.end_time
        else:
            start, end = datetime.min, datetime.max
        found: dict[int, _Entry] = {}
        for buckets, key, near, far in (
            (self._by_provide, description.request, tax.subtypes_of, tax.ancestors),
            (self._by_request, description.provide, tax.ancestors, tax.subtypes_of),
        ):
            if key is not None:
                types = near(key) | far(key) if special else near(key)
                for t in buckets.keys() & types:  # the types that have a bucket
                    for entry in buckets[t].overlapping(start, end):
                        found[entry.seq] = entry
        return [found[seq] for seq in sorted(found)]

    # --- publication ---

    def publish(self, member_id: str, description: ServiceDescription) -> list[MatchEvent]:
        """Match a description against the outstanding ones, oldest first.

        The first match consumes both records; a description that matches
        nothing is stored as outstanding.  Joining an activity or binding
        its venue leaves the activity's record outstanding, so one activity
        serves any number of later matches.  Returns the emitted events: at
        most one direct match, plus any follow-up events of group promotion.
        """
        if member_id not in self.members:
            raise UnknownMember(member_id)
        self.members[member_id].append(description)
        for candidate in self._candidates(description):
            if candidate.owner == member_id:
                continue
            match = match_pair(candidate.description, description, self.taxonomy, self.policy)
            event = MatchEvent((candidate.owner, member_id), match)
            if candidate.owner in self.activities:
                if match.backward is not None:  # the newcomer binds the venue
                    self._unindex(candidate)
                    candidate.description = replace(candidate.description, request=None)
                    self._index(candidate)
                return [event]
            self._unindex(candidate)
            if match.kind is MatchType.GROUP:
                return [event, *self._promote(event)]
            return [event]
        self._store(member_id, description)
        return []

    # --- group promotion ---

    def _promote(self, event: MatchEvent) -> list[MatchEvent]:
        """Promote a GROUP match event into a standing group activity.

        One activity exists per shared type: a second group match on the
        same type promotes nothing.  The promoted record first sweeps the
        outstanding records its types and window could match, oldest
        first, consuming each match, so earlier-published requesters join
        it and the first venue offer binds it (dropping its venue request).
        The activity is stored after the sweep.
        """
        shared_type = event.match.forward
        member_id = ACTIVITY_PREFIX + shared_type
        if member_id in self.activities:
            return []
        founders = [
            d
            for m in event.members
            for d in self.members[m]
            if d.provide == shared_type or d.request == shared_type
        ]
        start = max(d.start_time for d in founders)
        end = min(d.end_time for d in founders)
        # Disjoint windows: overlap not required, or an older founder record
        # was read along with the matched two.  Use the span.
        if start > end:
            start = min(d.start_time for d in founders)
            end = max(d.end_time for d in founders)
        derived = ServiceDescription(
            creation_time=max(d.creation_time for d in founders),
            start_time=start,
            end_time=end,
            creator=member_id,
            provide=shared_type,
            request=DEFAULT_RESIDUAL_REQUEST,
        )
        events: list[MatchEvent] = []
        for candidate in self._candidates(derived):  # before the venue request can drop
            if candidate.owner in self.activities:
                continue
            match = match_pair(derived, candidate.description, self.taxonomy, self.policy)
            # the candidates were read with the venue request: once a venue
            # binds, it is dropped, and a later venue offer no longer matches
            if match.kind is not MatchType.NO_MATCH:
                self._unindex(candidate)
                events.append(MatchEvent((member_id, candidate.owner), match))
                if match.backward is not None:  # the candidate binds the venue
                    derived = replace(derived, request=None)
        self.activities.add(member_id)
        self._store(member_id, derived)
        return events

    # --- views ---

    def pending(self) -> list[tuple[str, ServiceDescription]]:
        """(member id, record) of each unconsumed record, in publication order."""
        found = {entry.seq: entry
                 for buckets in (self._by_provide, self._by_request)
                 for bucket in buckets.values()
                 for *_, entry in bucket.items}
        return [(found[seq].owner, found[seq].description) for seq in sorted(found)]


# --- loading -----------------------------------------------------------


_DOCUMENT_KEYS = frozenset({"taxonomy", "taxonomy_edges", "policy", "members"})
_POLICY_KEYS = frozenset({"allow_specialization", "require_time_overlap"})
_MEMBER_KEYS = frozenset({"id", "descriptions"})


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
    with reading(path):
        data = read_json(path)  # before Path(): an empty name is not the directory "."
        path = Path(path)
        check_document(data, "document", _DOCUMENT_KEYS)
        taxonomy = taxonomy_from_spec(data, path.parent)
        flags = get_field(data, "policy", dict, default={})
        check_keys(flags, _POLICY_KEYS, "policy")
        for flag in flags:
            get_field(flags, flag, bool, "policy")
        community = Community(taxonomy, MatchPolicy(**flags))
        plan: list[tuple[str, ServiceDescription]] = []
        for i, member in enumerate(get_field(data, "members", list, default=())):
            check_keys(member, _MEMBER_KEYS, "members", i)
            member_id = get_field(member, "id", str, "members", i)
            try:
                community.register(member_id)
            except InputError as exc:
                raise InputError(f"members[{i}].id: {exc}") from None
            names = get_field(member, "descriptions", list, "members", i, (), str)
            for j, name in enumerate(names):
                if not name:  # path.parent / "" is a directory
                    raise InputError(f"members[{i}].descriptions[{j}]: the file name is empty")
                plan.extend((member_id, d) for d in load_descriptions(path.parent / name))
    return community, plan
