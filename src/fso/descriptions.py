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
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from datetime import datetime
from enum import Enum

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


class Role(Enum):
    PROVIDER_ONLY = "provider_only"
    REQUESTER_ONLY = "requester_only"
    MUTUALISTIC = "mutualistic"


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


def classify(d: ServiceDescription) -> Role:
    """Which side of an exchange the record is on, from field presence."""
    if d.provide is None:
        return Role.REQUESTER_ONLY
    if d.request is None:
        return Role.PROVIDER_ONLY
    return Role.MUTUALISTIC


# --- tokenizer ---------------------------------------------------------

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
                records.append(self._build_record(block))
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
        try:
            value = datetime.fromisoformat(lexical)
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
                place_class = self._expand(statement[1])
            elif len(statement) == 2:
                located_in = self._expand(statement[1])
            elif len(statement) == 1:
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
    lines = [
        f"@prefix service: <{SERVICE_NS}> .",
        f"@prefix xsd: <{XSD_NS}> .",
        "",
        "[",
    ]
    pairs: list[tuple[str, str]] = [
        ("creationTime", f'"{d.creation_time.isoformat()}"^^xsd:dateTime'),
        ("endTime", f'"{d.end_time.isoformat()}"^^xsd:dateTime'),
        ("hasCreator", f"<{d.creator}>"),
    ]
    if d.location is not None:
        block = ["service:hasServiceLocation [", f"    a <{d.location.place_class}>"]
        if d.location.located_in is not None:
            block[-1] += " ;"
            block.append(f"    <{LOCATED_IN_IRI}> <{d.location.located_in}>")
        block.append("  ]")
        pairs.append(("hasServiceLocation", "\n".join(block)))
    if d.provide is not None:
        pairs.append(("provide", _render_type(d.provide)))
    if d.request is not None:
        pairs.append(("request", _render_type(d.request)))
    pairs.append(("startTime", f'"{d.start_time.isoformat()}"^^xsd:dateTime'))
    pairs.sort(key=lambda pair: pair[0])
    rendered = []
    for pred, obj in pairs:
        if pred == "hasServiceLocation":
            rendered.append(f"  {obj}")
        else:
            rendered.append(f"  service:{pred} {obj}")
    lines.append(" ;\n".join(rendered))
    lines.append("] .")
    return "\n".join(lines) + "\n"
