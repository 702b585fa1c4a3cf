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

Tokens are the strings of one single-group ``findall``, and a token's kind
follows from its text: ``<`` starts an IRI and ``"`` a literal, ``@prefix``,
``a`` and ``[];.`` stand for themselves, anything else is a prefixed name.
The parser walks the tokens by index and keeps no offsets.  A block's walk
steps from one structure token to the next and checks the block's structure
before its statements are read; an error finds its offset by scanning the
text again up to the failing token.  Within a document each prefixed name
and predicate is resolved once, until a ``@prefix`` line may change what it
means.
"""

from __future__ import annotations

import itertools
import re
from bisect import bisect_left
from datetime import datetime

from .inputs import InputError, Record, read_text, reading

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


class LocationSpec(Record):
    """Where a service takes place: a place class and an optional place."""

    __slots__ = ("place_class", "located_in")

    def __init__(self, place_class: str, located_in: str | None = None):
        self.place_class, self.located_in = place_class, located_in
        if not self.place_class:
            raise ValidationError("location block requires a non-empty place class")


class ServiceDescription(Record):
    """One published record: who offers or looks for what, and when."""

    __slots__ = ("creation_time", "start_time", "end_time", "creator", "provide", "request",
                 "location")

    def __init__(self, creation_time: datetime, start_time: datetime, end_time: datetime,
                 creator: str, provide: str | None = None, request: str | None = None,
                 location: LocationSpec | None = None):
        self.creation_time, self.start_time, self.end_time = creation_time, start_time, end_time
        self.creator, self.provide, self.request = creator, provide, request
        self.location = location
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

# One token; its text tells its kind.  The most frequent alternatives come first.
_TOKEN_RE = re.compile(r"""
      [;.\[\]]
    | (?:[A-Za-z_][\w.\-]*)?:[\w.\-]*
    | a\b
    | "[^"\\]*(?:\\.[^"\\]*)*"(?:\^\^(?:<[^<>\s]*>|[A-Za-z_][\w.\-]*:[\w.\-]*))?
    | <[^<>\s]*>
    | @prefix\b
""", re.VERBOSE)
# The scanner's one group makes ``findall`` return the token strings.  The
# lead absorbs whitespace and comments.  The catch-all takes the first
# character that starts no token, and the rest of the text, so only the last
# string can hold such a character, and it does iff it is no token.  The empty
# alternative takes trailing whitespace or a trailing comment.  So every
# position matches and none is retried.  Only the catch-all is DOTALL:
# globally, ``\\.`` would also swallow a backslash-newline.
_SCAN_RE = re.compile(rf"\s*(?:\#[^\n]*\s*)*({_TOKEN_RE.pattern}|(?s:.+)|)", re.VERBOSE)

_STRUCTURE = frozenset({"@prefix", ".", ";", "[", "]"})
# A literal in the xsd:dateTime lexical form, which no escape fits, and its
# datatype.  Python 3.11's fromisoformat alone also reads bare dates, week
# dates and the basic format; 3.10's does not.
_LITERAL_RE = re.compile(
    r'"(-?[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2})'
    r'(?:\.([0-9]+))?(Z|[+-][0-9]{2}:[0-9]{2})?"\^\^(.*)'
)
_DATETIME = XSD_NS + "dateTime"
_TIMES = frozenset({"creationTime", "startTime", "endTime"})
_REQUIRED = _TIMES | {"hasCreator"}


# --- parser ------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.text = text
        # an empty string is a match that ends the text
        self.tokens = tokens = list(filter(None, _SCAN_RE.findall(text)))
        if tokens and not _TOKEN_RE.fullmatch(tokens[-1]):
            raise self._error(f"unexpected character {tokens[-1][0]!r}", len(tokens) - 1)
        # the indices of the structure tokens, where a block walk has something to decide
        self.marks = list(itertools.compress(itertools.count(), map(_STRUCTURE.__contains__, tokens)))
        self.prefixes = {"service": SERVICE_NS, "xsd": XSD_NS}
        self.blocks: dict[int, list[tuple[int, int]]] = {}  # '[' index -> statements
        self.names: dict[str, str] = {}  # IRI or prefixed-name token -> IRI
        self.preds: dict[str, str] = {}  # predicate token -> predicate name

    def _offset(self, i: int) -> int:
        """Where token ``i`` starts, found by scanning again up to it."""
        return next(itertools.islice(_SCAN_RE.finditer(self.text), i, None)).start(1)

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

        Its statements, split on ``;``, go to ``self.blocks`` under the index
        of the ``[``, which stands for the block in its parent's statement.
        A statement is the index of its first token and its number of tokens,
        a nested block counting as one, so a pair's object is the token after
        its predicate.  The walk steps from one structure token to the next.
        Nested blocks are kept on an explicit stack, so no nesting depth
        exhausts the call stack.
        """
        tokens, marks, open_blocks = self.tokens, self.marks, []
        # ``first``: where the statement starts; ``hidden``: its tokens inside nested blocks
        statements, opened, first, hidden = [], i, i + 1, 0
        for k in range(bisect_left(marks, i) + 1, len(marks)):
            i = marks[k]
            token = tokens[i]
            if token == "[":
                open_blocks.append((statements, opened, first, hidden - i))  # + ']' index at the end
                statements, opened, first, hidden = [], i, i + 1, 0
                continue
            if token != ";" and token != "]":
                raise self._error(f"unexpected {token!r} in block", i)
            size = i - first - hidden
            if size:  # a dangling 'a' before a full pair is dropped
                statements.append((first + 1, 2) if size == 3 and tokens[first] == "a"
                                  else (first, size))
            first, hidden = i + 1, 0
            if token == "]":
                self.blocks[opened] = statements
                if not open_blocks:
                    return i + 1
                statements, opened, first, hidden = open_blocks.pop()
                hidden += i  # the nested block's tokens after its '['
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

    def _literal_error(self, i: int) -> ParseError:
        """Why token ``i`` is no xsd:dateTime literal, checked in reading order."""
        token = self.tokens[i]
        lexical, _, datatype = token[1:].rpartition('"^^')
        if token[0] != '"':
            return self._error("expected a dateTime literal", i)
        if token[-1] == '"':
            return self._error("literal is missing a ^^xsd:dateTime datatype", i)
        datatype_iri = self.names.get(datatype) or self._expand(i, datatype)
        if datatype_iri != _DATETIME:
            return self._error(f"unsupported datatype {datatype_iri!r}", i)
        lexical = lexical.replace('\\"', '"').replace("\\\\", "\\")
        return self._error(f"invalid dateTime value {lexical!r}", i)

    def _build_location(self, i: int) -> LocationSpec:
        """The place class and the place, each stated once; one or two bare
        IRIs together state the place."""
        tokens, place_class, located_in, bare = self.tokens, None, None, []
        for first, size in self.blocks[i]:
            if tokens[first] == "[":
                raise self._error("nested block inside a location block", first)
            if tokens[first] == "a" and size == 2:
                if place_class is not None:
                    raise self._error("duplicate place class in location block", first)
                place_class = self._expand(first + 1)
            elif size > 2:
                raise self._error("malformed location statement", first)
            elif located_in is not None or bare and size == 2:
                raise self._error("duplicate located-in place in location block", first)
            elif size == 2:
                located_in = self._expand(first + 1)
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
        for p, size in self.blocks[i]:
            first = tokens[p]
            if first == "[":
                raise self._error("a block cannot start a statement", p)
            if size != 2:
                raise self._error("expected a predicate-object pair", p)
            if first == "a":
                continue  # record-level type assertion, irrelevant here
            pred, obj = preds.get(first) or self._predicate(p), tokens[p + 1]
            if pred in fields:
                raise self._error(f"duplicate predicate {pred!r}", p)
            if pred in _TIMES:
                lit = _LITERAL_RE.fullmatch(obj)
                if not lit or (names.get(lit[4]) or self._expand(p + 1, lit[4])) != _DATETIME:
                    raise self._literal_error(p + 1)
                stamp, fraction, zone, _ = lit.groups()
                if fraction or zone:  # six fraction digits and ±hh:mm, as 3.10 reads
                    stamp += f".{(fraction or '')[:6]:0<6}{(zone or '').replace('Z', '+00:00')}"
                try:
                    fields[pred] = datetime.fromisoformat(stamp)
                except ValueError:
                    raise self._literal_error(p + 1) from None
            elif pred == "hasCreator":
                fields[pred] = names.get(obj) or self._name(p + 1, "creator must be an IRI", p)
            elif pred == "hasServiceLocation":
                if obj != "[":
                    raise self._error("location must be a bracket block", p)
                fields[pred] = self._build_location(p + 1)
            else:  # provide | request: a service-namespace IRI by its local name
                iri = names.get(obj) or self._name(p + 1, "expected a type IRI or prefixed name",
                                                   p + 1)
                local = iri[len(SERVICE_NS):]
                fields[pred] = local if local and iri.startswith(SERVICE_NS) else iri
        if not fields.keys() >= _REQUIRED:
            raise ValidationError(f"record is missing {sorted(_REQUIRED - fields.keys())}")
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

_BARE_NAME_RE = re.compile(r"[A-Za-z_][\w.\-]*")


def _iri(name: str) -> str:
    if not _TOKEN_RE.fullmatch(f"<{name}>"):
        raise ValueError(f"no IRI token can carry {name!r}")
    return f"<{name}>"


def _render_type(name: str) -> str:
    if name.startswith(SERVICE_NS) and name != SERVICE_NS:
        raise ValueError(f"type {name!r} would read back as its local name")
    return f"service:{name}" if _BARE_NAME_RE.fullmatch(name) else _iri(name)


def serialize_description(d: ServiceDescription) -> str:
    """Canonical text for one record, which parses back to it.

    Fixed prefix block, predicates in lexicographic order, two-space
    indentation, one predicate-object pair per line.  Field-equal records
    serialize to byte-identical text.  A name that no token carries back,
    such as one holding whitespace, ``<`` or ``>``, raises ValueError.
    """
    location = ""
    if d.location is not None:
        place, within = d.location.place_class, d.location.located_in
        within = "" if within is None else f" ;\n    <{LOCATED_IN_IRI}> {_iri(within)}"
        location = f"  service:hasServiceLocation [\n    a {_iri(place)}{within}\n  ] ;\n"
    provide = "" if d.provide is None else f"  service:provide {_render_type(d.provide)} ;\n"
    request = "" if d.request is None else f"  service:request {_render_type(d.request)} ;\n"
    return (f"@prefix service: <{SERVICE_NS}> .\n"
            f"@prefix xsd: <{XSD_NS}> .\n"
            "\n"
            "[\n"
            f'  service:creationTime "{d.creation_time.isoformat()}"^^xsd:dateTime ;\n'
            f'  service:endTime "{d.end_time.isoformat()}"^^xsd:dateTime ;\n'
            f"  service:hasCreator {_iri(d.creator)} ;\n"
            f"{location}{provide}{request}"
            f'  service:startTime "{d.start_time.isoformat()}"^^xsd:dateTime\n'
            "] .\n")
