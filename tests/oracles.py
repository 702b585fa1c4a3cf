"""Independent oracles and generators shared across the test suite.

Everything here is deliberately written against the definitions, not
against the library code: closure via the Warshall bitset algorithm,
mutualism via exhaustive pair enumeration, two descriptions translated
into action systems straight from the taxonomy, knowledge diffusion via a
literal replay of the documented RNG discipline.  The diffusion section
also keeps the simulator as it was before its data layout was trimmed
(full meta-network, per-step edge sort, per-candidate degree scan,
three-pass aggregation, the k-th-set-bit unit selection ``step`` now
writes inline) as the reference for differential tests, and the
community section keeps the publisher as it was before its index (a full
re-scan of every record ever published) for the same purpose and a match
event as the JSON value the report was once dumped from, and the
fractal section keeps the resolver as it was before its tree index (a sort
and a subtree walk at every escalation level), the posting lists as they
were built before equal offer sets shared one closure (one closure per
member) and a resolve result as the JSON value the report was once dumped
from, and the description section keeps the Turtle parser as it was before
tuple tokens.  The last section keeps the value types that validate their
fields as the dataclasses they were before they became ``Record``s.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from functools import reduce
from itertools import combinations, permutations
from operator import add
from typing import Mapping

from fso.community import (
    DEFAULT_RESIDUAL_REQUEST,
    MatchEvent,
    MatchPolicy,
    MatchType,
    UnknownMember,
    match_pair,
)
from fso.descriptions import (
    RECOGNIZED_PREDICATES,
    SERVICE_NS,
    XSD_NS,
    LocationSpec,
    ParseError,
    ServiceDescription,
    ValidationError,
)
from fso.diffusion import (
    DEFAULT_HORIZON,
    DEFAULT_TRANSMIT_PROBABILITY,
    MAX_AGENTS,
    MAX_EDGES,
    MAX_HORIZON,
    DiffusionTrace,
    IsolationStrategy,
    ScenarioSpec,
    Topology,
    gen_fractal,
    gen_hierarchy,
)
from fso.fractal import (
    AlreadyDissolved,
    CommunityNode,
    ExceptionRecord,
    Member,
    OverlayStatus,
    Resolution,
    SocialOverlayNetwork,
    TriggeringCondition,
)
from fso.inputs import InputError
from fso.mutualism import ALLOWED_EVALUATIONS, ActionCorrespondence, ActionSystem
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


def random_dag(rng: random.Random, max_nodes: int = 50, min_nodes: int = 2):
    """A random DAG as (names, edges); acyclic by construction."""
    n = rng.randint(min_nodes, max_nodes)
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


def inverted(corr: ActionCorrespondence) -> ActionCorrespondence:
    """The same links read from the other end: target to source."""
    return ActionCorrespondence(corr.target, corr.source, [(b, a) for a, b in corr.pairs])


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


def translate_pair(
    d1: ServiceDescription, d2: ServiceDescription, tax: Taxonomy, policy: MatchPolicy
) -> tuple[ActionSystem, ActionSystem, ActionCorrespondence]:
    """Two descriptions as action systems ``D1``, ``D2`` and their correspondence.

    A record's offer is an action worth 0 to its actor; receiving what it
    requests is worth +1.  One record's offer is linked to the other's
    request exactly when the offered type serves the requested type: it is
    a subtype of it or, when specialization is allowed, a supertype.
    """

    def serves(provide, request) -> bool:
        return provide is not None and request is not None and (
            tax.is_subtype(provide, request)
            or (policy.allow_specialization and tax.is_subtype(request, provide))
        )

    def system(name: str, d: ServiceDescription) -> ActionSystem:
        evaluations = {}
        if d.provide is not None:
            evaluations["offer"] = 0
        if d.request is not None:
            evaluations["receive"] = 1
        return ActionSystem(name, evaluations)

    pairs = []
    if serves(d1.provide, d2.request):
        pairs.append(("offer", "receive"))
    if serves(d2.provide, d1.request):
        pairs.append(("receive", "offer"))
    return system("D1", d1), system("D2", d2), ActionCorrespondence("D1", "D2", pairs)


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


# --- description parsing (reference parser) ------------------------------
#
# The parser as it was before tuple tokens: a frozen-dataclass token per
# match, a ``match`` loop that stops at the first character no alternative
# starts with, and a recursive-descent parser driven by ``_peek``/``_next``.
# One rule was added since: a dateTime literal must have the xsd:dateTime
# lexical form before ``fromisoformat``, which reads more, reads it.


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|\#[^\n]*)
  | (?P<prefix>@prefix\b)
  | (?P<iri><[^<>\s]*>)
  | (?P<literal>"(?:[^"\\]|\\.)*"(?:\^\^(?:<[^<>\s]*>|[A-Za-z_][\w.\-]*:[\w.\-]*))?)
  | (?P<pname>(?:[A-Za-z_][\w.\-]*)?:[\w.\-]*)
  | (?P<a>a\b)
  | (?P<punct>[;.\[\]])
    """,
    re.VERBOSE,
)

_LITERAL_RE = re.compile(r'^"((?:[^"\\]|\\.)*)"(?:\^\^(.+))?$', re.DOTALL)

# xsd:dateTime: -?YYYY-MM-DDThh:mm:ss(.s+)?(Z|(+|-)hh:mm)?, ASCII digits only.
_XSD_DATETIME_RE = re.compile(
    r"^(-?\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2})(?:\.(\d+))?(Z|[+-]\d{2}:\d{2})?\Z",
    re.ASCII,
)


@dataclass(frozen=True)
class _Token:
    kind: str  # prefix | iri | literal | pname | a | punct
    text: str
    offset: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = match.lastgroup
        if kind != "ws":
            tokens.append(_Token(kind, match.group(), pos))
        pos = match.end()
    return tokens


# --- parser ------------------------------------------------------------


class _Block:
    """A bracketed group: statements are token lists split on ';'."""

    kind = "block"  # never a valid object kind where a token is expected

    def __init__(self, statements: list[list], offset: int):
        self.statements = statements
        self.offset = offset


_DUPLICATE_PLACE = "duplicate located-in place in location block"


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.prefixes = {"service": SERVICE_NS, "xsd": XSD_NS}

    def _peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self, expected: str | None = None) -> _Token:
        tok = self._peek()
        if tok is None:
            offset = self.tokens[-1].offset if self.tokens else 0
            raise ParseError("unexpected end of input", offset)
        if expected is not None and tok.text != expected:
            raise ParseError(f"expected {expected!r}, got {tok.text!r}", tok.offset)
        self.pos += 1
        return tok

    def parse_document(self) -> list[ServiceDescription]:
        records = []
        while (tok := self._peek()) is not None:
            if tok.kind == "prefix":
                self._parse_prefix_decl()
            elif tok.text == "[":
                block = self._parse_block()
                self._next(".")
                try:
                    records.append(self._build_record(block))
                except ValidationError as exc:
                    raise ValidationError(f"offset {tok.offset}: {exc}") from None
            else:
                raise ParseError(
                    f"expected '@prefix' or '[', got {tok.text!r}", tok.offset
                )
        return records

    def _parse_prefix_decl(self):
        self._next()
        name_tok = self._next()
        if name_tok.kind != "pname" or not name_tok.text.endswith(":"):
            raise ParseError("expected a prefix name ending in ':'", name_tok.offset)
        iri_tok = self._next()
        if iri_tok.kind != "iri":
            raise ParseError("expected an IRI in angle brackets", iri_tok.offset)
        self._next(".")
        self.prefixes[name_tok.text[:-1]] = iri_tok.text[1:-1]

    def _parse_block(self) -> _Block:
        open_tok = self._next("[")
        statements: list[list] = [[]]
        while True:
            tok = self._peek()
            if tok is None:
                raise ParseError("unterminated '['", open_tok.offset)
            if tok.text == "]":
                self._next()
                break
            if tok.text == ";":
                self._next()
                statements.append([])
            elif tok.text == "[":
                statements[-1].append(self._parse_block())
            elif tok.kind in ("iri", "literal", "pname", "a"):
                statements[-1].append(self._next())
            else:
                raise ParseError(f"unexpected {tok.text!r} in block", tok.offset)
        statements = [s for s in statements if s]
        return _Block(statements, open_tok.offset)

    # --- statement interpretation ---

    def _expand(self, tok: _Token) -> str:
        """Resolve an IRI or prefixed-name token to a full IRI string."""
        if isinstance(tok, _Block):
            raise ParseError("expected an IRI, got a block", tok.offset)
        if tok.kind == "iri":
            return tok.text[1:-1]
        if tok.kind != "pname":
            raise ParseError(f"expected an IRI, got {tok.text!r}", tok.offset)
        prefix, _, local = tok.text.partition(":")
        namespace = self.prefixes.get(prefix)
        if namespace is None:
            raise ParseError(f"undeclared prefix {prefix!r}", tok.offset)
        return namespace + local

    def _type_name(self, tok: _Token) -> str:
        """A service-type object: local name inside the service namespace,
        full IRI otherwise."""
        if tok.kind not in ("iri", "pname"):
            raise ParseError("expected a type IRI or prefixed name", tok.offset)
        iri = self._expand(tok)
        if iri.startswith(SERVICE_NS) and len(iri) > len(SERVICE_NS):
            return iri[len(SERVICE_NS):]
        return iri

    def _datetime(self, tok: _Token) -> datetime:
        if tok.kind != "literal":
            raise ParseError("expected a dateTime literal", tok.offset)
        match = _LITERAL_RE.match(tok.text)
        lexical, datatype = match.group(1), match.group(2)
        if datatype is None:
            raise ParseError("literal is missing a ^^xsd:dateTime datatype", tok.offset)
        kind = "iri" if datatype.startswith("<") else "pname"
        datatype_iri = self._expand(_Token(kind, datatype, tok.offset))
        if datatype_iri != XSD_NS + "dateTime":
            raise ParseError(f"unsupported datatype {datatype_iri!r}", tok.offset)
        lexical = lexical.replace('\\"', '"').replace("\\\\", "\\")
        match = _XSD_DATETIME_RE.match(lexical)
        try:
            if match is None:
                raise ValueError("not the xsd:dateTime lexical form")
            # six fraction digits and a numeric zone: Python 3.10 reads them too
            stamp, fraction, zone = match.groups()
            micro = (fraction or "")[:6].ljust(6, "0")
            zone = "+00:00" if zone == "Z" else (zone or "")
            value = datetime.fromisoformat(f"{stamp}.{micro}{zone}")
        except ValueError:
            raise ParseError(f"invalid dateTime value {lexical!r}", tok.offset) from None
        return value

    @staticmethod
    def _normalize(statement: list) -> list:
        """Drop the dangling 'a' marker before a full predicate-object pair."""
        if (
            len(statement) == 3
            and isinstance(statement[0], _Token)
            and statement[0].kind == "a"
        ):
            return statement[1:]
        return statement

    def _build_location(self, block: _Block) -> LocationSpec:
        place_class = None
        located_in = None
        bare: list[str] = []
        for statement in block.statements:
            statement = self._normalize(statement)
            first = statement[0]
            if isinstance(first, _Block):
                raise ParseError("nested block inside a location block", first.offset)
            if first.kind == "a" and len(statement) == 2:
                if place_class is not None:  # one place class per block
                    raise ParseError("duplicate place class in location block", first.offset)
                place_class = self._expand(statement[1])
            elif len(statement) == 2:
                if located_in is not None or bare:  # one place, by a pair or by bare IRIs
                    raise ParseError(_DUPLICATE_PLACE, first.offset)
                located_in = self._expand(statement[1])
            elif len(statement) == 1:
                if located_in is not None:
                    raise ParseError(_DUPLICATE_PLACE, first.offset)
                bare.append(self._expand(first))
            else:
                raise ParseError("malformed location statement", first.offset)
        if bare:
            # A property IRI followed by a place IRI, or a single place IRI.
            if len(bare) == 1:
                located_in = bare[0]
            elif len(bare) == 2:
                located_in = bare[1]
            else:
                raise ParseError("too many bare IRIs in location block", block.offset)
        if place_class is None:
            raise ValidationError("location block has no place class")
        return LocationSpec(place_class=place_class, located_in=located_in)

    def _build_record(self, block: _Block) -> ServiceDescription:
        fields: dict[str, object] = {}
        for statement in block.statements:
            statement = self._normalize(statement)
            first = statement[0]
            if isinstance(first, _Block):
                raise ParseError("a block cannot start a statement", first.offset)
            if first.kind == "a" and len(statement) == 2:
                continue  # record-level type assertion, irrelevant here
            if len(statement) != 2:
                raise ParseError("expected a predicate-object pair", first.offset)
            pred_tok, obj = statement
            if pred_tok.kind not in ("iri", "pname"):
                raise ParseError("expected a predicate", pred_tok.offset)
            pred_iri = self._expand(pred_tok)
            if not pred_iri.startswith(SERVICE_NS):
                raise ParseError(f"unrecognized predicate {pred_iri!r}", pred_tok.offset)
            pred = pred_iri[len(SERVICE_NS):]
            if pred not in RECOGNIZED_PREDICATES:
                raise ParseError(f"unrecognized predicate {pred_iri!r}", pred_tok.offset)
            if pred in fields:
                raise ParseError(f"duplicate predicate {pred!r}", pred_tok.offset)
            if pred in ("creationTime", "startTime", "endTime"):
                fields[pred] = self._datetime(obj)
            elif pred == "hasCreator":
                if not isinstance(obj, _Token) or obj.kind not in ("iri", "pname"):
                    raise ParseError("creator must be an IRI", pred_tok.offset)
                fields[pred] = self._expand(obj)
            elif pred == "hasServiceLocation":
                if not isinstance(obj, _Block):
                    raise ParseError("location must be a bracket block", pred_tok.offset)
                fields[pred] = self._build_location(obj)
            else:  # provide | request
                fields[pred] = self._type_name(obj)
        missing = {"creationTime", "startTime", "endTime", "hasCreator"} - set(fields)
        if missing:
            raise ValidationError(f"record is missing {sorted(missing)}")
        return ServiceDescription(
            creation_time=fields["creationTime"],
            start_time=fields["startTime"],
            end_time=fields["endTime"],
            creator=fields["hasCreator"],
            provide=fields.get("provide"),
            request=fields.get("request"),
            location=fields.get("hasServiceLocation"),
        )


def reference_parse_descriptions(text: str) -> list[ServiceDescription]:
    """Parse every record in a description document, in document order."""
    return _Parser(text).parse_document()


# --- community publication (reference publisher) -------------------


@dataclass
class _ReferenceEntry:
    owner: str
    description: ServiceDescription
    consumed: bool = False


class ReferenceCommunity:
    """The community matcher as it was before its outstanding-record index.

    Every publication re-scans every record ever published, consumed or
    not.
    """

    def __init__(
        self,
        taxonomy: Taxonomy | None = None,
        policy: MatchPolicy = MatchPolicy(),
        auto_promote_groups: bool = True,
    ):
        self.taxonomy = taxonomy if taxonomy is not None else Taxonomy()
        self.policy = policy
        self.auto_promote_groups = auto_promote_groups
        self.members: dict[str, list[ServiceDescription]] = {}  # id -> its records
        self.activities: set[str] = set()  # ids of the promoted group activities
        self._entries: list[_ReferenceEntry] = []

    # --- registry ---

    def register(self, member_id: str) -> None:
        if member_id in self.members:
            raise ValueError(f"member {member_id!r} already registered")
        self.members[member_id] = []

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
        self.members[member_id].append(description)
        entry = _ReferenceEntry(member_id, description)
        events: list[MatchEvent] = []
        for candidate in self._entries:
            if candidate.consumed or candidate.owner == member_id:
                continue
            if candidate.owner in self.activities:
                if self._match_activity(candidate, entry, events):
                    break
                continue
            match = match_pair(
                candidate.description, description, self.taxonomy, self.policy
            )
            if match.kind is MatchType.NO_MATCH:
                continue
            candidate.consumed = True
            entry.consumed = True
            event = MatchEvent((candidate.owner, member_id), match)
            events.append(event)
            if match.kind is MatchType.GROUP and self.auto_promote_groups:
                events.extend(self._promote(event))
            break
        self._entries.append(entry)
        return events

    def _match_activity(
        self,
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
        if match.backward is not None:  # the newcomer serves the venue request
            # the venue request is now satisfied; keep offering the activity
            activity_entry.description = activity_entry.description._replace(request=None)
        entry.consumed = True
        events.append(MatchEvent((activity_entry.owner, entry.owner), match))
        return True

    # --- group promotion ---

    def _promote(self, event: MatchEvent) -> list[MatchEvent]:
        """Promote a GROUP match event into a standing group activity.

        One activity exists per shared type: a second group match on the
        same type promotes nothing.  The promoted record immediately sweeps the outstanding descriptions,
        so earlier-published requesters and venue offers attach to it.
        """
        shared_type = event.match.forward
        member_id = f"activity:{shared_type}"
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
        if start > end:  # disjoint founders (overlap not required): use the span
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
        self.activities.add(member_id)
        activity_entry = _ReferenceEntry(member_id, derived)
        events = self._sweep(activity_entry)
        self._entries.append(activity_entry)
        return events

    def _sweep(self, activity_entry: _ReferenceEntry) -> list[MatchEvent]:
        """Attach all outstanding matching descriptions to a new activity."""
        events: list[MatchEvent] = []
        for candidate in self._entries:
            if candidate.consumed or candidate.owner == activity_entry.owner:
                continue
            if candidate.owner in self.activities:
                continue
            self._match_activity(activity_entry, candidate, events)
        return events

    # --- views ---

    def pending(self) -> list[tuple[str, ServiceDescription]]:
        """(member id, record) of each unconsumed record, in publication order."""
        return [(e.owner, e.description) for e in self._entries if not e.consumed]


# --- graphs --------------------------------------------------------------


def event_json(event: MatchEvent) -> dict:
    """One event of the match report as a JSON value, the way it was built
    before the command line wrote each event straight to text."""
    forward, backward, kind = event.match.forward, event.match.backward, event.kind
    data: dict = {"kind": kind.value, "members": list(event.members)}
    if kind is MatchType.SERVICE:
        provider, requester = event.members if forward is not None else event.members[::-1]
        data.update(provider=provider, requester=requester,
                    matched_type=forward if forward is not None else backward)
    elif kind is MatchType.GROUP:
        data["matched_type"] = forward
    else:  # MUTUALISTIC: an emitted event is never NO_MATCH
        data.update(x_type=forward, y_type=backward)
    return data


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


def resolution_json(resolution: Resolution) -> dict:
    """One result of the resolve report as a JSON value, the way it was built
    before the command line rendered each result straight to text."""
    data: dict = {
        "condition": resolution.condition_id,
        "status": "complete" if resolution.complete else "incomplete",
        "missing_roles": list(resolution.missing_roles),
        "exceptions": [
            {
                "community": record.community_id,
                "missing_roles": list(record.missing_roles),
            }
            for record in resolution.exceptions
        ],
    }
    if resolution.overlay is not None:
        data["assignment"] = [
            {"role": role, "member": member}
            for role, member in resolution.overlay.assignments
        ]
        data["home_communities"] = dict(resolution.overlay.home_communities)
    else:
        data["assignment"] = []
    return data


def node_depths(root: CommunityNode) -> dict[str, int]:
    """Per community id, the edges from it up to ``root``: the most
    escalations a condition fired there can raise."""
    depths = {root.id: 0}
    for node in root.walk():
        for child in node.children:
            depths[child.id] = depths[node.id] + 1
    return depths


def member_by_member_postings(preorder: list[Member], taxonomy: Taxonomy) -> dict[str, list[int]]:
    """Per type, the ascending positions in ``preorder`` of the members that
    provide it, each member's closure derived on its own."""
    postings: dict[str, list[int]] = {}
    for pos, member in enumerate(preorder):
        for role_type in set().union(*map(taxonomy.ancestors, member.offers)):
            postings.setdefault(role_type, []).append(pos)
    return postings


class ReferenceFractalOrganization:
    """Role resolution as it was before the tree was indexed once.

    It reads only the public tree (``CommunityNode.walk`` and
    ``Member.provides``) and keeps its own lookups and bookings, so it
    shares no code with ``FractalOrganization``; it escalates through a
    child id -> parent map built from ``walk``.  Every escalation level
    re-sorts each community's members and walks the skipped-over subtrees
    again, every open slot tests each member of the scope with
    ``Member.provides`` (where the resolver reads per-type posting lists),
    and the home community of each assigned member is collected on the way.
    """

    def __init__(self, root: CommunityNode, taxonomy: Taxonomy):
        self.root = root
        self.taxonomy = taxonomy
        self.booked: dict[str, str] = {}  # member id -> condition id
        self._nodes = {node.id: node for node in root.walk()}
        self._parents = {child.id: node for node in root.walk() for child in node.children}
        self._members = {member.id: (member, node.id)  # member id -> member, home
                         for node in root.walk() for member in node.members}

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
        if cond.origin not in self._nodes:
            raise InputError(f"unknown community {cond.origin!r}")
        origin = self._nodes[cond.origin]
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
                    if member.id in self.booked:
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
            if node is self.root:
                return Resolution(cond.id, None, missing, tuple(trail))
            trail.append(ExceptionRecord(node.id, missing))
            came_from = node
            node = self._parents[node.id]

    def dissolve(self, overlay: SocialOverlayNetwork) -> SocialOverlayNetwork:
        """Release the members the overlay still holds and mark it dissolved."""
        if overlay.status is OverlayStatus.DISSOLVED:
            raise AlreadyDissolved(overlay.condition_id)
        overlay.status = OverlayStatus.DISSOLVED
        self.booked = {
            member_id: condition_id
            for member_id, condition_id in self.booked.items()
            if condition_id != overlay.condition_id or member_id not in overlay.member_ids
        }
        return overlay

    def _preassign(self, member_id: str, role_type: str, assignment: dict[int, str]) -> str:
        """Check one preassigned member; returns its home community id."""
        if member_id not in self._members:
            raise InputError(f"preassigned member {member_id!r} is not in the tree")
        member, home = self._members[member_id]
        if not member.provides(role_type, self.taxonomy):
            raise InputError(f"preassigned member {member_id!r} does not provide {role_type!r}")
        if member_id in assignment.values():
            raise InputError(f"member {member_id!r} preassigned to two roles")
        if member_id in self.booked:
            raise InputError(f"preassigned member {member_id!r} is already booked")
        return home


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


def reference_settled(net: ReferenceMetaNetwork) -> bool:
    """Whether every live edge joins two agents that know the same units."""
    return all(net.knows[u] == net.knows[v] for u, v in net.live_edges())


def kth_set_bit(mask: int, k: int) -> int:
    """The k-th lowest set bit of ``mask`` (k from 0), as a one-bit mask: the
    unit selection ``step`` writes inline."""
    for _ in range(k):
        mask &= mask - 1
    return mask & -mask


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
    # left to right: builtin sum() compensates float rounding from Python 3.12
    mean = tuple(
        reduce(add, [trace.values[t] for trace in traces]) / replicates for t in range(steps)
    )
    low = tuple(min(trace.values[t] for trace in traces) for t in range(steps))
    high = tuple(max(trace.values[t] for trace in traces) for t in range(steps))
    return mean, low, high


def reference_resilience_loss(baseline, disrupted) -> float:
    """Σₜ (bₜ − dₜ) / Σₜ bₜ over the values of two traces of one seed: the share
    of the undisrupted run's diffusion, summed over the horizon, that the
    disruption cost (the "resilience triangle" of Bruneau et al., 2003)."""
    return (math.fsum(b - d for b, d in zip(baseline, disrupted, strict=True))
            / math.fsum(baseline))


def reference_recovery_delay(baseline, disrupted, level: float) -> int | None:
    """T_L(d) − T_L(b): how many steps later than the undisrupted run of its
    seed the disrupted run first reaches diffusion ``level`` (the time side of
    the resilience triangle of Bruneau et al., 2003), or None when it never
    does.  Negative when the disrupted run gets there first."""
    reached = [next((t for t, value in enumerate(values) if value >= level), None)
               for values in (baseline, disrupted)]
    if reached[1] is None:
        return None
    if reached[0] is None:
        raise ValueError(f"the baseline never reaches {level}")
    return reached[1] - reached[0]


# --- validated value types as dataclasses ---------------------------------
# Each is its fso namesake's dataclass definition, named ``Reference...``.


@dataclass(frozen=True)
class ReferenceLocationSpec:
    """Where a service takes place: a place class and an optional place."""

    place_class: str
    located_in: str | None = None

    def __post_init__(self):
        if not self.place_class:
            raise ValidationError("location block requires a non-empty place class")


@dataclass(frozen=True)
class ReferenceServiceDescription:
    """One published record: who offers or looks for what, and when."""

    creation_time: datetime
    start_time: datetime
    end_time: datetime
    creator: str
    provide: str | None = None
    request: str | None = None
    location: LocationSpec | None = None

    def __post_init__(self):
        if self.provide is None and self.request is None:
            raise ValidationError("both 'provide' and 'request' missing")
        for name in ("creation_time", "start_time", "end_time"):
            value = getattr(self, name)
            if not isinstance(value, datetime):
                raise ValidationError(f"{name} must be a datetime")
            if value.tzinfo is not None:
                raise ValidationError(f"{name} must be timezone-naive")
        if self.start_time > self.end_time:
            raise ValidationError("start_time is after end_time")

    def overlaps(self, other: "ServiceDescription") -> bool:
        """True iff the [start, end] windows intersect."""
        return max(self.start_time, other.start_time) <= min(
            self.end_time, other.end_time
        )


@dataclass(frozen=True)
class ReferenceScenarioSpec:
    """Everything needed to reproduce one simulation run."""

    topology: Topology
    horizon: int = DEFAULT_HORIZON
    transmit_probability: float = DEFAULT_TRANSMIT_PROBABILITY
    isolation_events: tuple[tuple[int, IsolationStrategy], ...] = ()
    seed: int = 0
    agents: int = 15
    cell_size: int = 3
    branching: int = 2

    def __post_init__(self):
        for name in ("horizon", "seed", "agents", "cell_size", "branching"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise InputError(f"{name} must be an integer, got {value!r}")
        p = self.transmit_probability
        if isinstance(p, bool) or not isinstance(p, (int, float)):
            raise InputError(f"transmit_probability must be a number, got {p!r}")
        if not 0 < p <= 1:
            raise InputError("transmit_probability must be in (0, 1]")
        if self.horizon < 0:
            raise InputError("horizon must be non-negative")
        if self.horizon > MAX_HORIZON:
            raise InputError(f"horizon must be at most {MAX_HORIZON}, got {self.horizon}")
        if self.seed < 0:  # random.Random(-s) is random.Random(s): replicates would repeat
            raise InputError(f"seed must be non-negative, got {self.seed}")
        if self.agents < 1:
            raise InputError(f"agents must be at least 1, got {self.agents}")
        if self.agents > MAX_AGENTS:
            raise InputError(f"agents must be at most {MAX_AGENTS}, got {self.agents}")
        # counted before any edge is built; a hierarchy's agents - 1 edges fit anyway
        if self.topology is Topology.FRACTAL and self.cell_size >= 3:
            cells, size = self.agents // self.cell_size, self.cell_size
            edges = cells * size * (size - 1) // 2 + (2 * cells if cells > 1 else 0)
            if edges > MAX_EDGES:
                raise InputError(f"cell_size {size} with {self.agents} agents makes"
                                 f" {edges} edges, more than {MAX_EDGES}")
        for time, _ in self.isolation_events:
            if not 1 <= time <= self.horizon:
                raise InputError(f"isolation time {time} outside 1..{self.horizon}")
        if len(self.isolation_events) > self.agents:
            raise InputError(
                f"isolation_events: {len(self.isolation_events)} events"
                f" but only {self.agents} agents"
            )

    def build_edges(self) -> frozenset[tuple[int, int]]:
        if self.topology is Topology.FRACTAL:
            return gen_fractal(self.agents, self.cell_size)
        return gen_hierarchy(self.agents, self.branching)


@dataclass
class ReferenceTriggeringCondition:
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
class ReferenceActionSystem:
    """A named set of actions with a total evaluation map over them."""

    id: str
    evaluations: Mapping[str, int]

    def __post_init__(self):
        for action, value in self.evaluations.items():
            if value not in ALLOWED_EVALUATIONS:
                raise ValueError(
                    f"evaluation of {action!r} must be -1, 0 or 1, got {value!r}"
                )


@dataclass(frozen=True)
class ReferenceActionCorrespondence:
    """A partial bijection between the action sets of two systems."""

    source: str
    target: str
    pairs: frozenset[tuple[str, str]]

    def __post_init__(self):
        pairs = frozenset(tuple(p) for p in self.pairs)
        object.__setattr__(self, "pairs", pairs)
        if len({a for a, _ in pairs}) != len(pairs) or len({b for _, b in pairs}) != len(pairs):
            raise ValueError("correspondence must be injective in both coordinates")
