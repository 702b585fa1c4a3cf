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

Tokens are plain ``(kind, text, offset)`` tuples from one ``finditer`` pass
over an ordered alternation, and the parser walks the token list by index.
The alternation ends in ``bad``, which matches any single character, so
every position matches some alternative (none matches the empty string)
and the pass never skips input: the first ``bad`` match is the exact
offset where no token starts, and it becomes the ``ParseError``.
"""

from __future__ import annotations

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

# Only ``bad`` is DOTALL: globally, the literal's ``\\.`` would also
# swallow a backslash-newline.
_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|\#[^\n]*)
  | (?P<prefix>@prefix\b)
  | (?P<iri><[^<>\s]*>)
  | (?P<literal>"(?:[^"\\]|\\.)*"(?:\^\^(?:<[^<>\s]*>|[A-Za-z_][\w.\-]*:[\w.\-]*))?)
  | (?P<pname>(?:[A-Za-z_][\w.\-]*)?:[\w.\-]*)
  | (?P<a>a\b)
  | (?P<punct>[;.\[\]])
  | (?P<bad>(?s:.))
    """,
    re.VERBOSE,
)

_LITERAL_RE = re.compile(r'^"((?:[^"\\]|\\.)*)"(?:\^\^(.+))?$', re.DOTALL)

_OBJECT_KINDS = frozenset({"iri", "literal", "pname", "a"})


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """``(kind, text, offset)`` per token; whitespace and comments are dropped.

    ``kind`` is prefix, iri, literal, pname, a or punct.  A bracket block
    built by the parser is ``("block", statements, offset)``, so every kind
    test also rejects a block where a token is expected.
    """
    tokens = []
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {match.group()!r}", match.start())
        if kind != "ws":
            tokens.append((kind, match.group(), match.start()))
    return tokens


# --- parser ------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.prefixes = {"service": SERVICE_NS, "xsd": XSD_NS}

    def _at(self, i: int, expected: str | None = None) -> tuple[str, str, int]:
        """Token ``i``, which must exist and, if given, read ``expected``."""
        if i >= len(self.tokens):
            raise ParseError("unexpected end of input", self.tokens[-1][2])
        tok = self.tokens[i]
        if expected is not None and tok[1] != expected:
            raise ParseError(f"expected {expected!r}, got {tok[1]!r}", tok[2])
        return tok

    def parse_document(self) -> list[ServiceDescription]:
        tokens, records, i = self.tokens, [], 0
        while i < len(tokens):
            kind, text, offset = tokens[i]
            if kind == "prefix":
                name = self._at(i + 1)
                if name[0] != "pname" or not name[1].endswith(":"):
                    raise ParseError("expected a prefix name ending in ':'", name[2])
                iri = self._at(i + 2)
                if iri[0] != "iri":
                    raise ParseError("expected an IRI in angle brackets", iri[2])
                self._at(i + 3, ".")
                self.prefixes[name[1][:-1]] = iri[1][1:-1]
                i += 4
            elif text == "[":
                block, i = self._parse_block(i)
                self._at(i, ".")
                try:
                    records.append(self._build_record(block))
                except ValidationError as exc:  # name the record by its '['
                    raise ValidationError(f"offset {offset}: {exc}") from None
                i += 1
            else:
                raise ParseError(f"expected '@prefix' or '[', got {text!r}", offset)
        return records

    def _parse_block(self, i: int) -> tuple[tuple, int]:
        """The block opened by token ``i`` and the index after its ``]``.

        Statements are token lists split on ``;``.  Nested blocks are kept
        on an explicit stack, so no nesting depth exhausts the call stack.
        """
        tokens, open_blocks = self.tokens, []
        statements, open_offset = [[]], tokens[i][2]
        for i in range(i + 1, len(tokens)):
            tok = tokens[i]
            kind, text, offset = tok
            if text == "]":
                block = ("block", [s for s in statements if s], open_offset)
                if not open_blocks:
                    return block, i + 1
                statements, open_offset = open_blocks.pop()
                statements[-1].append(block)
            elif text == ";":
                statements.append([])
            elif text == "[":
                open_blocks.append((statements, open_offset))
                statements, open_offset = [[]], offset
            elif kind in _OBJECT_KINDS:
                statements[-1].append(tok)
            else:
                raise ParseError(f"unexpected {text!r} in block", offset)
        raise ParseError("unterminated '['", open_offset)

    # --- statement interpretation ---

    def _resolve(self, pname: str, offset: int) -> str:
        prefix, _, local = pname.partition(":")
        namespace = self.prefixes.get(prefix)
        if namespace is None:
            raise ParseError(f"undeclared prefix {prefix!r}", offset)
        return namespace + local

    def _expand(self, tok: tuple) -> str:
        """Resolve an IRI or prefixed-name token to a full IRI string."""
        kind, text, offset = tok
        if kind == "iri":
            return text[1:-1]
        if kind == "pname":
            return self._resolve(text, offset)
        if kind == "block":
            raise ParseError("expected an IRI, got a block", offset)
        raise ParseError(f"expected an IRI, got {text!r}", offset)

    def _type_name(self, tok: tuple) -> str:
        """A service-type object: local name inside the service namespace,
        full IRI otherwise."""
        if tok[0] not in ("iri", "pname"):
            raise ParseError("expected a type IRI or prefixed name", tok[2])
        iri = self._expand(tok)
        if iri.startswith(SERVICE_NS) and len(iri) > len(SERVICE_NS):
            return iri[len(SERVICE_NS):]
        return iri

    def _datetime(self, tok: tuple) -> datetime:
        kind, text, offset = tok
        if kind != "literal":
            raise ParseError("expected a dateTime literal", offset)
        lexical, datatype = _LITERAL_RE.match(text).groups()
        if datatype is None:
            raise ParseError("literal is missing a ^^xsd:dateTime datatype", offset)
        if datatype.startswith("<"):
            datatype_iri = datatype[1:-1]
        else:
            datatype_iri = self._resolve(datatype, offset)
        if datatype_iri != XSD_NS + "dateTime":
            raise ParseError(f"unsupported datatype {datatype_iri!r}", offset)
        lexical = lexical.replace('\\"', '"').replace("\\\\", "\\")
        try:
            return datetime.fromisoformat(lexical)
        except ValueError:
            raise ParseError(f"invalid dateTime value {lexical!r}", offset) from None

    @staticmethod
    def _normalize(statement: list) -> list:
        """Drop the dangling 'a' marker before a full predicate-object pair."""
        if len(statement) == 3 and statement[0][0] == "a":
            return statement[1:]
        return statement

    def _build_location(self, block: tuple) -> LocationSpec:
        place_class = None
        located_in = None
        bare: list[str] = []
        for statement in block[1]:
            statement = self._normalize(statement)
            first = statement[0]
            if first[0] == "block":
                raise ParseError("nested block inside a location block", first[2])
            if first[0] == "a" and len(statement) == 2:
                place_class = self._expand(statement[1])
            elif len(statement) == 2:
                located_in = self._expand(statement[1])
            elif len(statement) == 1:
                bare.append(self._expand(first))
            else:
                raise ParseError("malformed location statement", first[2])
        if bare:
            # A property IRI followed by a place IRI, or a single place IRI.
            if len(bare) == 1:
                located_in = bare[0]
            elif len(bare) == 2:
                located_in = bare[1]
            else:
                raise ParseError("too many bare IRIs in location block", block[2])
        if place_class is None:
            raise ValidationError("location block has no place class")
        return LocationSpec(place_class=place_class, located_in=located_in)

    def _build_record(self, block: tuple) -> ServiceDescription:
        fields: dict[str, object] = {}
        for statement in block[1]:
            statement = self._normalize(statement)
            first = statement[0]
            if first[0] == "block":
                raise ParseError("a block cannot start a statement", first[2])
            if first[0] == "a" and len(statement) == 2:
                continue  # record-level type assertion, irrelevant here
            if len(statement) != 2:
                raise ParseError("expected a predicate-object pair", first[2])
            pred_tok, obj = statement
            offset = pred_tok[2]
            if pred_tok[0] not in ("iri", "pname"):
                raise ParseError("expected a predicate", offset)
            pred_iri = self._expand(pred_tok)
            pred = pred_iri[len(SERVICE_NS):]
            if not pred_iri.startswith(SERVICE_NS) or pred not in RECOGNIZED_PREDICATES:
                raise ParseError(f"unrecognized predicate {pred_iri!r}", offset)
            if pred in fields:
                raise ParseError(f"duplicate predicate {pred!r}", offset)
            if pred in ("creationTime", "startTime", "endTime"):
                fields[pred] = self._datetime(obj)
            elif pred == "hasCreator":
                if obj[0] not in ("iri", "pname"):
                    raise ParseError("creator must be an IRI", offset)
                fields[pred] = self._expand(obj)
            elif pred == "hasServiceLocation":
                if obj[0] != "block":
                    raise ParseError("location must be a bracket block", offset)
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
