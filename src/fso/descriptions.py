"""Service descriptions: a constrained Turtle-subset parser and serializer.

A description document is a sequence of ``@prefix`` declarations and
top-level ``[ ... ] .`` blank-node records.  Each record carries creation,
start and end timestamps, a creator IRI, optionally a service location
block, and at most one ``provide`` and one ``request`` service type.  A
record missing both ``provide`` and ``request`` is invalid: it would
neither offer nor look for anything.

The grammar is deliberately closed: predicate-object pairs separated by
``;``, objects limited to IRIs, prefixed names, one nested bracket block
(the location), and ``"..."^^xsd:dateTime`` literals.  Within a bracket
block a lone ``a`` immediately followed by a predicate-object pair is
tolerated and skipped, and inside location blocks bare IRIs are accepted
(a property IRI followed by a place IRI); both forms occur in published
description snippets in the wild.

Tokens are plain strings from one ``findall`` pass, and a token's kind
follows from its text: ``<`` starts an IRI and ``"`` a literal, ``@prefix``,
``a`` and ``[];.`` stand for themselves, anything else is a prefixed name.
The parser walks the tokens by index and keeps no offsets: an error finds
its offset by scanning the text again up to the failing token.  Within a
document each prefixed name and predicate is resolved once, until a
``@prefix`` line may change what it means.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from datetime import datetime

from .inputs import InputError, read_text, reading

SERVICE_NS = "http://www.pats.ua.ac.be/AALService#"
XSD_NS = "http://www.w3.org/2001/XMLSchema#"
LOCATED_IN_IRI = "http://dbpedia.org/ontology/location"

RECOGNIZED_PREDICATES = frozenset(
    {
        "creationTime",
        "startTime",
        "endTime",
        "hasCreator",
        "hasServiceLocation",
        "provide",
        "request",
    }
)


class ParseError(InputError):
    """Input does not conform to the description grammar."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"offset {offset}: {message}")
        self.offset = offset


class ValidationError(InputError):
    """A parsed record violates a description invariant."""


@dataclass(frozen=True)
class LocationSpec:
    """Where a service takes place: a place class and an optional place."""

    place_class: str
    located_in: str | None = None

    def __post_init__(self):
        if not self.place_class:
            raise ValidationError("location block requires a non-empty place class")


@dataclass(frozen=True)
class ServiceDescription:
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


# --- tokenizer ---------------------------------------------------------

# One ``(token, bad)`` pair per match.  The lead absorbs whitespace and
# comments; ``bad`` takes the first character that starts no token, and the
# rest of the text; ``\Z`` takes trailing whitespace or a trailing comment.
# So every position matches, none is retried, and the pairs end in an empty
# one.  Only ``bad`` is DOTALL: globally, ``\\.`` would also swallow a
# backslash-newline.
_TOKEN_RE = re.compile(
    r"""
    \s*(?:\#[^\n]*\s*)*
    (?:
      ( @prefix\b
      | <[^<>\s]*>
      | "[^"\\]*(?:\\.[^"\\]*)*"(?:\^\^(?:<[^<>\s]*>|[A-Za-z_][\w.\-]*:[\w.\-]*))?
      | (?:[A-Za-z_][\w.\-]*)?:[\w.\-]*
      | a\b
      | [;.\[\]]
      )
    | (?s:(.).*)
    | \Z
    )
    """,
    re.VERBOSE,
)

_STRUCTURE = frozenset({"@prefix", ".", ";", "[", "]"})
# The xsd:dateTime lexical form.  Python 3.11's fromisoformat alone also
# reads bare dates, week dates and the basic format; 3.10's does not.
_DATETIME_RE = re.compile(
    r"(-?[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2})"
    r"(?:\.([0-9]+))?(Z|[+-][0-9]{2}:[0-9]{2})?"
)
_XSD_DATETIME = XSD_NS + "dateTime"
_TIMES = frozenset({"creationTime", "startTime", "endTime"})
_REQUIRED = _TIMES | {"hasCreator"}


# --- parser ------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.text = text
        found = _TOKEN_RE.findall(text)
        if len(found) > 1 and found[-2][1]:
            raise self._error(f"unexpected character {found[-2][1]!r}", len(found) - 2)
        self.tokens = [token for token, _ in found if token]
        self.prefixes = {"service": SERVICE_NS, "xsd": XSD_NS}
        self.blocks: dict[int, list[list[int]]] = {}  # '[' index -> statements
        self.names: dict[str, str] = {}  # IRI or prefixed-name token -> IRI
        self.preds: dict[str, str] = {}  # predicate token -> predicate name

    def _offset(self, i: int) -> int:
        """Where token ``i`` starts, found by scanning again up to it."""
        match = next(itertools.islice(_TOKEN_RE.finditer(self.text), i, None))
        return match.start(match.lastindex)

    def _error(self, message: str, i: int) -> ParseError:
        return ParseError(message, self._offset(i))

    def _at(self, i: int, expected: str | None = None) -> str:
        """Token ``i``, which must exist and, if given, read ``expected``."""
        if i >= len(self.tokens):
            raise self._error("unexpected end of input", len(self.tokens) - 1)
        if expected is not None and self.tokens[i] != expected:
            raise self._error(f"expected {expected!r}, got {self.tokens[i]!r}", i)
        return self.tokens[i]

    def parse_document(self) -> list[ServiceDescription]:
        tokens, records, i = self.tokens, [], 0
        while i < len(tokens):
            if tokens[i] == "@prefix":
                name = self._at(i + 1)
                if not name.endswith(":") or name[0] == '"':
                    raise self._error("expected a prefix name ending in ':'", i + 1)
                if self._at(i + 2)[0] != "<":
                    raise self._error("expected an IRI in angle brackets", i + 2)
                self._at(i + 3, ".")
                self.prefixes[name[:-1]] = tokens[i + 2][1:-1]
                self.names, self.preds = {}, {}  # memoized names may use it
                i += 4
            elif tokens[i] == "[":
                end = self._parse_block(i)
                self._at(end, ".")
                try:
                    records.append(self._build_record(i))
                except ValidationError as exc:  # name the record by its '['
                    raise ValidationError(f"offset {self._offset(i)}: {exc}") from None
                i = end + 1
            else:
                raise self._error(f"expected '@prefix' or '[', got {tokens[i]!r}", i)
        return records

    def _parse_block(self, i: int) -> int:
        """Read the block opened by token ``i``; return the index after its ``]``.

        Its statements, lists of token indices split on ``;``, go to
        ``self.blocks`` under the index of the ``[``, which stands for the
        block in its parent's statement.  Nested blocks are kept on an
        explicit stack, so no nesting depth exhausts the call stack.
        """
        tokens, open_blocks = self.tokens, []
        statements, opened = [[]], i
        for i in range(i + 1, len(tokens)):
            token = tokens[i]
            if token not in _STRUCTURE:
                statements[-1].append(i)
            elif token == ";":
                statements.append([])
            elif token == "]":  # a dangling 'a' before a full pair is dropped
                self.blocks[opened] = [s[1:] if len(s) == 3 and tokens[s[0]] == "a" else s
                                       for s in statements if s]
                if not open_blocks:
                    return i + 1
                statements, opened = open_blocks.pop()
            elif token == "[":
                statements[-1].append(i)
                open_blocks.append((statements, opened))
                statements, opened = [[]], i
            else:
                raise self._error(f"unexpected {token!r} in block", i)
        raise self._error("unterminated '['", opened)

    # --- statement interpretation ---

    def _expand(self, i: int, text: str | None = None) -> str:
        """The IRI of token ``i``, or of ``text`` read from it; memoized."""
        text = self.tokens[i] if text is None else text
        if text == "[":
            raise self._error("expected an IRI, got a block", i)
        if text[0] == '"' or text == "a":
            raise self._error(f"expected an IRI, got {text!r}", i)
        if text[0] == "<":
            iri = text[1:-1]
        else:
            prefix, _, local = text.partition(":")
            if prefix not in self.prefixes:
                raise self._error(f"undeclared prefix {prefix!r}", i)
            iri = self.prefixes[prefix] + local
        self.names[text] = iri
        return iri

    def _name(self, i: int, message: str, at: int) -> str:
        """The IRI of token ``i``, or ``message`` at token ``at`` if it names none."""
        token = self.tokens[i]
        if token[0] in '"[' or token == "a":
            raise self._error(message, at)
        return self._expand(i)

    def _predicate(self, i: int) -> str:
        """The recognized predicate that token ``i`` names; memoized."""
        iri = self._name(i, "expected a predicate", i)
        pred = iri[len(SERVICE_NS):]
        if not iri.startswith(SERVICE_NS) or pred not in RECOGNIZED_PREDICATES:
            raise self._error(f"unrecognized predicate {iri!r}", i)
        self.preds[self.tokens[i]] = pred
        return pred

    def _datetime(self, i: int) -> datetime:
        """The xsd:dateTime literal at token ``i``."""
        token = self.tokens[i]
        if token[0] != '"':
            raise self._error("expected a dateTime literal", i)
        if token[-1] == '"':
            raise self._error("literal is missing a ^^xsd:dateTime datatype", i)
        lexical, _, datatype = token[1:].rpartition('"^^')
        datatype_iri = self.names.get(datatype) or self._expand(i, datatype)
        if datatype_iri != _XSD_DATETIME:
            raise self._error(f"unsupported datatype {datatype_iri!r}", i)
        match = _DATETIME_RE.fullmatch(lexical)  # escaped or not: no escape passes
        try:
            if match is None:
                raise ValueError(lexical)
            iso = lexical
            if match.lastindex > 1:  # six fraction digits and ±hh:mm, as 3.10 reads
                head, fraction, zone = match.groups()
                zone = "+00:00" if zone == "Z" else zone or ""
                iso = f"{head}.{(fraction or '').ljust(6, '0')[:6]}{zone}"
            return datetime.fromisoformat(iso)
        except ValueError:
            lexical = lexical.replace('\\"', '"').replace("\\\\", "\\")
            raise self._error(f"invalid dateTime value {lexical!r}", i) from None

    def _build_location(self, i: int) -> LocationSpec:
        """The place class and the place, each stated once; one or two bare
        IRIs together state the place."""
        tokens, place_class, located_in, bare = self.tokens, None, None, []
        for statement in self.blocks[i]:
            first = statement[0]
            if tokens[first] == "[":
                raise self._error("nested block inside a location block", first)
            if tokens[first] == "a" and len(statement) == 2:
                if place_class is not None:
                    raise self._error("duplicate place class in location block", first)
                place_class = self._expand(statement[1])
            elif len(statement) > 2:
                raise self._error("malformed location statement", first)
            elif located_in is not None or bare and len(statement) == 2:
                raise self._error("duplicate located-in place in location block", first)
            elif len(statement) == 2:
                located_in = self._expand(statement[1])
            else:
                bare.append(self._expand(first))
        if len(bare) > 2:
            raise self._error("too many bare IRIs in location block", i)
        if bare:  # a property IRI then a place IRI, or a single place IRI
            located_in = bare[-1]
        if place_class is None:
            raise ValidationError("location block has no place class")
        return LocationSpec(place_class=place_class, located_in=located_in)

    def _build_record(self, i: int) -> ServiceDescription:
        tokens, names, preds, fields = self.tokens, self.names, self.preds, {}
        for statement in self.blocks[i]:
            first = tokens[statement[0]]
            if first == "[":
                raise self._error("a block cannot start a statement", statement[0])
            if len(statement) != 2:
                raise self._error("expected a predicate-object pair", statement[0])
            if first == "a":
                continue  # record-level type assertion, irrelevant here
            p, o = statement
            pred, obj = preds.get(first) or self._predicate(p), tokens[o]
            if pred in fields:
                raise self._error(f"duplicate predicate {pred!r}", p)
            if pred in _TIMES:
                fields[pred] = self._datetime(o)
            elif pred == "hasCreator":
                fields[pred] = names.get(obj) or self._name(o, "creator must be an IRI", p)
            elif pred == "hasServiceLocation":
                if obj != "[":
                    raise self._error("location must be a bracket block", p)
                fields[pred] = self._build_location(o)
            else:  # provide | request: a service-namespace IRI by its local name
                iri = names.get(obj) or self._name(o, "expected a type IRI or prefixed name", o)
                local = iri[len(SERVICE_NS):]
                fields[pred] = local if local and iri.startswith(SERVICE_NS) else iri
        missing = _REQUIRED - fields.keys()
        if missing:
            raise ValidationError(f"record is missing {sorted(missing)}")
        return ServiceDescription(  # in field order
            fields["creationTime"], fields["startTime"], fields["endTime"], fields["hasCreator"],
            fields.get("provide"), fields.get("request"), fields.get("hasServiceLocation"))


def parse_descriptions(text: str) -> list[ServiceDescription]:
    """Parse every record in a description document, in document order."""
    return _Parser(text).parse_document()


def load_descriptions(path) -> list[ServiceDescription]:
    """Parse a description file; bad content names the file."""
    with reading(path):
        return parse_descriptions(read_text(path))


# --- serializer --------------------------------------------------------

_BARE_NAME_RE = re.compile(r"[A-Za-z_][\w.\-]*$")


def _render_type(name: str) -> str:
    if _BARE_NAME_RE.match(name):
        return f"service:{name}"
    return f"<{name}>"


def serialize_description(d: ServiceDescription) -> str:
    """Canonical text for one record.

    Fixed prefix block, predicates in lexicographic order, two-space
    indentation, one predicate-object pair per line.  Field-equal records
    serialize to byte-identical text.
    """
    location = ""
    if d.location is not None:
        place, within = d.location.place_class, d.location.located_in
        within = "" if within is None else f" ;\n    <{LOCATED_IN_IRI}> <{within}>"
        location = f"  service:hasServiceLocation [\n    a <{place}>{within}\n  ] ;\n"
    provide = "" if d.provide is None else f"  service:provide {_render_type(d.provide)} ;\n"
    request = "" if d.request is None else f"  service:request {_render_type(d.request)} ;\n"
    return (f"@prefix service: <{SERVICE_NS}> .\n"
            f"@prefix xsd: <{XSD_NS}> .\n"
            "\n"
            "[\n"
            f'  service:creationTime "{d.creation_time.isoformat()}"^^xsd:dateTime ;\n'
            f'  service:endTime "{d.end_time.isoformat()}"^^xsd:dateTime ;\n'
            f"  service:hasCreator <{d.creator}> ;\n"
            f"{location}{provide}{request}"
            f'  service:startTime "{d.start_time.isoformat()}"^^xsd:dateTime\n'
            "] .\n")
