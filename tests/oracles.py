"""Independent oracles and generators shared across the test suite.

Everything here is deliberately written against the definitions, not
against the library code: closure via the Warshall bitset algorithm,
mutualism via exhaustive pair enumeration, knowledge diffusion via a
literal replay of the documented RNG discipline.  The diffusion section
also keeps the simulator as it was before its data layout was trimmed
(full meta-network, per-step edge sort, per-candidate degree scan,
three-pass aggregation) as the reference for differential tests, and the
community section keeps the publisher as it was before its index (a full
re-scan of every record ever published) for the same purpose, and the
fractal section keeps the resolver as it was before its tree index (a sort
and a subtree walk at every escalation level).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from datetime import datetime, timedelta
from itertools import combinations, permutations

from fso.community import (
    DEFAULT_RESIDUAL_REQUEST,
    GroupActivity,
    Match,
    MatchEvent,
    MatchPolicy,
    MatchType,
    Member,
    MemberKind,
    UnknownMember,
    match_pair,
)
from fso.descriptions import LocationSpec, ServiceDescription
from fso.diffusion import (
    DiffusionTrace,
    IsolationStrategy,
    NoAgentsLeft,
    ScenarioSpec,
)
from fso.fractal import (
    CommunityNode,
    ExceptionRecord,
    FractalOrganization,
    Resolution,
    SocialOverlayNetwork,
    TriggeringCondition,
)
from fso.inputs import InputError
from fso.taxonomy import Taxonomy

# --- transitive closure (taxonomy) --------------------------------------


def closure_matrix(names: list[str], edges) -> dict[str, set[str]]:
    """Reflexive-transitive closure by Warshall's algorithm on bitsets."""
    index = {name: i for i, name in enumerate(names)}
    reach = [1 << i for i in range(len(names))]
    for child, parent in edges:
        reach[index[child]] |= 1 << index[parent]
    for k in range(len(names)):
        bit = 1 << k
        for i in range(len(names)):
            if reach[i] & bit:
                reach[i] |= reach[k]
    return {
        name: {names[j] for j in range(len(names)) if reach[index[name]] >> j & 1}
        for name in names
    }


def random_dag(rng: random.Random, max_nodes: int = 50):
    """A random DAG as (names, edges); acyclic by construction."""
    n = rng.randint(2, max_nodes)
    names = [f"T{i}" for i in range(n)]
    rng.shuffle(names)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < min(0.15, 4.0 / n):
                edges.append((names[i], names[j]))
    return names, edges


# --- mutualism -----------------------------------------------------------


def brute_force_witness(d_evals, r_evals, pairs, extended=False):
    """Exhaustive double loop over all mapped action pairs.

    Returns the least (forward, backward) witness or None.
    """
    witnesses = []
    for a, fa in pairs:
        for b_src, b in pairs:
            forward_ok = r_evals[fa] > 0 and (extended or d_evals[a] >= 0)
            backward_ok = d_evals[b_src] > 0 and (extended or r_evals[b] >= 0)
            if forward_ok and backward_ok:
                witnesses.append((a, b))
    return min(witnesses) if witnesses else None


def all_partial_bijections(xs, ys):
    """Every injective partial map from xs to ys, as tuples of pairs."""
    for k in range(min(len(xs), len(ys)) + 1):
        for chosen in combinations(xs, k):
            for targets in permutations(ys, k):
                yield tuple(zip(chosen, targets))


def random_mutualism_instance(rng: random.Random, max_actions: int = 4):
    """Two random systems plus a random partial bijection between them."""
    n = rng.randint(0, max_actions)
    m = rng.randint(0, max_actions)
    d_evals = {f"a{i}": rng.choice((-1, 0, 1)) for i in range(n)}
    r_evals = {f"b{i}": rng.choice((-1, 0, 1)) for i in range(m)}
    k = rng.randint(0, min(n, m))
    sources = rng.sample(sorted(d_evals), k)
    targets = rng.sample(sorted(r_evals), k)
    pairs = tuple(zip(sources, targets))
    return d_evals, r_evals, pairs


# --- description records -------------------------------------------------

_TYPE_POOL = ("Walking", "Jogging", "Cycling", "Fitness", "Cooking", "Location",
              "Transport", "Care")


def random_type_name(rng: random.Random) -> str:
    if rng.random() < 0.25:
        return f"http://example.org/types#T{rng.randrange(50)}"
    if rng.random() < 0.5:
        return rng.choice(_TYPE_POOL)
    return f"Type_{rng.randrange(1000)}"


def random_description(rng: random.Random) -> ServiceDescription:
    created = datetime(2013, 1, 1) + timedelta(
        minutes=rng.randrange(500_000), seconds=rng.randrange(60)
    )
    if rng.random() < 0.2:
        created = created.replace(microsecond=rng.randrange(1_000_000))
    start = created + timedelta(minutes=rng.randrange(-5_000, 50_000))
    end = start + timedelta(minutes=rng.randrange(10_000))
    shape = rng.choice(("provide", "request", "both"))
    provide = random_type_name(rng) if shape in ("provide", "both") else None
    request = random_type_name(rng) if shape in ("request", "both") else None
    location = None
    if rng.random() < 0.5:
        location = LocationSpec(
            place_class=f"http://schema.org/Place{rng.randrange(20)}",
            located_in=(
                f"http://example.org/places/{rng.randrange(100)}"
                if rng.random() < 0.7
                else None
            ),
        )
    return ServiceDescription(
        creation_time=created,
        start_time=start,
        end_time=end,
        creator=f"http://example.org/user/{rng.randrange(100_000)}#this",
        provide=provide,
        request=request,
        location=location,
    )


# --- community publication (reference publisher) -------------------


@dataclass
class _ReferenceEntry:
    owner: str
    description: ServiceDescription
    consumed: bool = False


class ReferenceCommunity:
    """The community matcher as it was before its outstanding-record index.

    Every publication re-scans every record ever published, consumed or
    not, and finds a member's group activity by a linear search.
    """

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
        self._entries: list[_ReferenceEntry] = []

    # --- registry ---

    def register(self, member_id: str, kind: MemberKind = MemberKind.PERSON) -> Member:
        if member_id in self.members:
            raise ValueError(f"member {member_id!r} already registered")
        member = Member(member_id, kind)
        self.members[member_id] = member
        return member

    def _activity_of(self, member_id: str) -> GroupActivity | None:
        member = self.members.get(member_id)
        if member is None or member.kind is not MemberKind.GROUP_ACTIVITY:
            return None
        for activity in self.activities.values():
            if activity.member_id == member_id:
                return activity
        return None

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
        entry = _ReferenceEntry(member_id, description)
        events: list[MatchEvent] = []
        for candidate in self._entries:
            if candidate.consumed or candidate.owner == member_id:
                continue
            activity = self._activity_of(candidate.owner)
            if activity is not None:
                if self._match_activity(activity, candidate, entry, events):
                    break
                continue
            match = match_pair(
                candidate.description, description, self.taxonomy, self.policy
            )
            if match.kind is MatchType.NO_MATCH:
                continue
            candidate.consumed = True
            entry.consumed = True
            event = self._event(candidate.owner, member_id, match)
            events.append(event)
            if match.kind is MatchType.GROUP and self.auto_promote_groups:
                _, follow_ups = self.form_group_activity(event)
                events.extend(follow_ups)
            break
        self._entries.append(entry)
        return events

    def _event(self, first_owner: str, second_owner: str, match: Match) -> MatchEvent:
        if match.kind is MatchType.SERVICE:
            provider = first_owner if match.first_provides else second_owner
            requester = second_owner if match.first_provides else first_owner
            return MatchEvent(
                MatchType.SERVICE,
                members=(first_owner, second_owner),
                matched_type=match.matched_type,
                provider=provider,
                requester=requester,
            )
        if match.kind is MatchType.GROUP:
            return MatchEvent(
                MatchType.GROUP,
                members=(first_owner, second_owner),
                matched_type=match.matched_type,
            )
        return MatchEvent(
            MatchType.MUTUALISTIC,
            members=(first_owner, second_owner),
            x_type=match.x_type,
            y_type=match.y_type,
        )

    def _match_activity(
        self,
        activity: GroupActivity,
        activity_entry: _ReferenceEntry,
        entry: _ReferenceEntry,
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
            activity_entry.description = activity.description
        entry.consumed = True
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
        member_id = f"activity:{shared_type}"
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
        self.members[member_id].published.append(derived)
        activity_entry = _ReferenceEntry(member_id, derived)
        events = self._sweep(activity, activity_entry)
        self._entries.append(activity_entry)
        return activity, events

    def _sweep(
        self, activity: GroupActivity, activity_entry: _ReferenceEntry
    ) -> list[MatchEvent]:
        """Attach all outstanding matching descriptions to a new activity."""
        events: list[MatchEvent] = []
        for candidate in self._entries:
            if candidate.consumed or candidate.owner == activity.member_id:
                continue
            if self._activity_of(candidate.owner) is not None:
                continue
            self._match_activity(activity, activity_entry, candidate, events)
        return events

    # --- views ---

    def pending(self) -> list[ServiceDescription]:
        """Unconsumed descriptions, in publication order."""
        return [e.description for e in self._entries if not e.consumed]

    def pending_entries(self) -> list[tuple[str, ServiceDescription]]:
        return [(e.owner, e.description) for e in self._entries if not e.consumed]


# --- graphs --------------------------------------------------------------


def connected_after_removal(n: int, edges, removed=None) -> bool:
    """BFS connectivity of agents 0..n-1, optionally without one vertex."""
    nodes = [v for v in range(n) if v != removed]
    if not nodes:
        return True
    adjacency = {v: set() for v in nodes}
    for u, v in edges:
        if u != removed and v != removed:
            adjacency[u].add(v)
            adjacency[v].add(u)
    seen = {nodes[0]}
    frontier = [nodes[0]]
    while frontier:
        current = frontier.pop()
        for neighbor in adjacency[current]:
            if neighbor not in seen:
                seen.add(neighbor)
                frontier.append(neighbor)
    return len(seen) == len(nodes)


def has_cut_vertex(n: int, edges) -> bool:
    return any(not connected_after_removal(n, edges, removed=v) for v in range(n))


# --- fractal role resolution (reference resolver) ---------------------------


class ReferenceFractalOrganization(FractalOrganization):
    """Role resolution as it was before the tree was indexed once.

    Every escalation level re-sorts each community's members and walks the
    skipped-over subtrees again, and the home community of each assigned
    member is collected on the way.  ``exclusive_booking`` was a knob no
    caller ever turned off.
    """

    exclusive_booking = True

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
            homes[member_id] = self._preassign(member_id, cond.required_roles[slot], assignment)
            assignment[slot] = member_id
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
            trail.append(ExceptionRecord(node.id, missing))
            came_from = node
            node = node.parent

    def _preassign(self, member_id: str, role_type: str, assignment: dict[int, str]) -> str:
        """Check one preassigned member; returns its home community id."""
        member = self._members.get(member_id)
        if member is None:
            raise InputError(f"preassigned member {member_id!r} is not in the tree")
        if not member.provides(role_type, self.taxonomy):
            raise InputError(f"preassigned member {member_id!r} does not provide {role_type!r}")
        if member_id in assignment.values():
            raise InputError(f"member {member_id!r} preassigned to two roles")
        if self.exclusive_booking and member_id in self.booked:
            raise InputError(f"preassigned member {member_id!r} is already booked")
        return self._homes[member_id]


# --- knowledge diffusion (reference simulator) ----------------------------


@dataclass
class ReferenceMetaNetwork:
    """Agents x knowledge x tasks, with the agent layer carrying edges."""

    agents: tuple[int, ...]
    knowledge: tuple[int, ...]
    tasks: tuple[int, ...]
    edges: frozenset[tuple[int, int]]
    knows: dict[int, set[int]]
    assignment: dict[int, int]
    isolated: set[int] = field(default_factory=set)

    @classmethod
    def initial(cls, edges: frozenset[tuple[int, int]], n: int) -> "ReferenceMetaNetwork":
        """Fresh state: agent i knows exactly unit i and performs task i."""
        return cls(
            agents=tuple(range(n)),
            knowledge=tuple(range(n)),
            tasks=tuple(range(n)),
            edges=edges,
            knows={i: {i} for i in range(n)},
            assignment={i: i for i in range(n)},
        )

    def live_edges(self) -> list[tuple[int, int]]:
        return [
            (u, v)
            for u, v in sorted(self.edges)
            if u not in self.isolated and v not in self.isolated
        ]

    def live_degree(self, agent: int) -> int:
        if agent in self.isolated:
            return 0
        return sum(
            1
            for u, v in self.edges
            if (u == agent and v not in self.isolated)
            or (v == agent and u not in self.isolated)
        )


def reference_measure(net: ReferenceMetaNetwork) -> float:
    """Fraction of (agent, unit) pairs where the agent knows the unit."""
    total = sum(len(units) for units in net.knows.values())
    return total / (len(net.agents) * len(net.knowledge))


def reference_step(
    net: ReferenceMetaNetwork, rng: random.Random, p: float
) -> ReferenceMetaNetwork:
    """One synchronous exchange round; mutates and returns the network."""
    additions: dict[int, set[int]] = {}
    for u, v in net.live_edges():
        for sender, receiver in ((u, v), (v, u)):
            if rng.random() >= p:
                continue
            candidates = sorted(net.knows[sender] - net.knows[receiver])
            if not candidates:
                continue
            unit = candidates[rng.randrange(len(candidates))]
            additions.setdefault(receiver, set()).add(unit)
    for receiver, units in additions.items():
        net.knows[receiver] |= units
    return net


def reference_isolate(
    net: ReferenceMetaNetwork, strategy: IsolationStrategy, rng: random.Random
) -> tuple[ReferenceMetaNetwork, int]:
    """Cut one agent's edges; its knowledge is retained."""
    candidates = [a for a in net.agents if a not in net.isolated]
    if not candidates:
        raise NoAgentsLeft("all agents are already isolated")
    if strategy is IsolationStrategy.RANDOM:
        agent = candidates[rng.randrange(len(candidates))]
    else:
        agent = min(candidates, key=lambda a: (-net.live_degree(a), a))
    net.isolated.add(agent)
    return net, agent


def reference_run_scenario(spec: ScenarioSpec) -> DiffusionTrace:
    """Run one scenario to the horizon, deterministically for its seed."""
    net = ReferenceMetaNetwork.initial(spec.build_edges(), spec.agents)
    rng = random.Random(spec.seed)
    values = [reference_measure(net)]
    isolations: list[tuple[int, int]] = []
    for t in range(1, spec.horizon + 1):
        for time, strategy in spec.isolation_events:
            if time == t:
                net, agent = reference_isolate(net, strategy, rng)
                isolations.append((t, agent))
        reference_step(net, rng, spec.transmit_probability)
        values.append(reference_measure(net))
    return DiffusionTrace(tuple(values), tuple(isolations))


def reference_aggregate(traces) -> tuple[tuple[float, ...], ...]:
    """Per-step (mean, min, max) of replicate traces, one pass per statistic."""
    replicates = len(traces)
    steps = len(traces[0].values)
    mean = tuple(
        sum(trace.values[t] for trace in traces) / replicates for t in range(steps)
    )
    low = tuple(min(trace.values[t] for trace in traces) for t in range(steps))
    high = tuple(max(trace.values[t] for trace in traces) for t in range(steps))
    return mean, low, high
