"""Corpus data model: talks, text units, tokens, and their file formats.

A talk is a pair of documents: source sentences and target chunks, both
pre-tokenized and POS-tagged upstream. Units arrive one per line; token
annotations arrive in blank-line-separated TSV blocks.

This module is also the input codec of the whole program: every file is
read through `read_lines`, `read_jsonl`, `read_json` or `read_file`, and
every JSON Lines artifact is framed by `jsonl_text`.
"""

from __future__ import annotations

import hashlib
import io
import json
import logging
import math
import unicodedata
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

log = logging.getLogger(__name__)


class _LocatedError(ValueError):
    """An input error naming the file and line it was found at, when known:
    printed as `message [path:line]`. Built from `(message, path, line)`
    alone, so it pickles as it is, from a `--jobs` worker too."""

    def __init__(self, message: str, path=None, line: int | None = None):
        super().__init__(message, None if path is None else str(path), line)
        self.message, self.path, self.line = self.args

    def __str__(self) -> str:
        if self.path is None:
            return self.message
        line = "" if self.line is None else f":{self.line}"
        return f"{self.message} [{self.path}{line}]"


class ParseError(_LocatedError):
    """An input file does not match its declared format or lacks a row (exit 2)."""


class ValidationError(_LocatedError):
    """A structural invariant does not hold (exit 1)."""


# bytes read from a file at a time: more than one line of a dim-768 vector
# file (about 7 KB), so a line is not pieced together from several reads
READ_BUFFER = 64 << 10


def read_lines(path, data: bytes | None = None):
    """Yield (line number, text) of a UTF-8 file, one line at a time, each
    without its `\n` or `\r\n` ending. Given `data`, the file's bytes
    already read, those are split and `path` only names the file in errors."""
    with open(path, "rb", buffering=READ_BUFFER) if data is None else io.BytesIO(data) as handle:
        for lineno, raw in enumerate(handle, start=1):
            try:
                text = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ParseError(f"not UTF-8: {exc}", path=path, line=lineno) from exc
            yield lineno, text.removesuffix("\n").removesuffix("\r")


def read_jsonl(path, parse_row, check=None, data: bytes | None = None):
    """Yield `parse_row(row)` for each JSON object row of a JSON Lines file,
    skipping blank lines. A row that is not a JSON object (or is nested too
    deeply to decode), or whose fields `parse_row` rejects with KeyError,
    TypeError or ValueError, is a ParseError naming the line. A
    ValidationError from `check(value)`, run on each parsed row, is raised
    naming the line too. `data` is as for `read_lines`."""
    for lineno, line in read_lines(path, data):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            if not isinstance(obj, dict):
                raise TypeError(f"expected a JSON object, got {type(obj).__name__}")
            value = parse_row(obj)
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            raise ParseError(f"bad row: {exc}", path=path, line=lineno) from exc
        if check is not None:
            try:
                check(value)
            except ValidationError as exc:
                raise ValidationError(exc.message, path=path, line=lineno) from exc
        yield value


def read_file(path) -> bytes:
    """The bytes of a whole file."""
    with open(path, "rb") as handle:
        return handle.read()


def read_json(path):
    """The JSON value of a whole UTF-8 document."""
    data = read_file(path)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"not UTF-8: {exc}", path=path, line=line) from exc
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deeply
        raise ParseError(f"invalid JSON: {exc}", path=path) from exc


def jsonl_text(rows) -> str:
    """JSON Lines: one object per line, keys sorted, non-ASCII kept."""
    return "".join(json.dumps(row, ensure_ascii=False, sort_keys=True) + "\n" for row in rows)


class Pos(str, Enum):
    NOUN = "NOUN"
    PROPN = "PROPN"
    PRON = "PRON"
    VERB = "VERB"
    NUM = "NUM"
    OTHER = "OTHER"


POS_BY_NAME = {pos.value: pos for pos in Pos}


def pos_named(tag) -> Pos:
    """The POS tag named `tag`, looked up in `POS_BY_NAME`."""
    pos = POS_BY_NAME.get(tag)
    if pos is None:
        raise ValueError(f"POS tag {tag!r} outside the tag enumeration")
    return pos


class Rank(str, Enum):
    S = "S"
    A = "A"
    B = "B"
    UNKNOWN = "UNKNOWN"


def normalize_text(raw: str) -> str:
    """Canonicalize text: NFKC, strip, collapse whitespace runs to one space.

    NFKC folds full-width/half-width variants (digits included) and composes
    combining diacritics. Total and idempotent.
    """
    return " ".join(unicodedata.normalize("NFKC", raw).split())


@dataclass(frozen=True)
class Token:
    surface: str
    pos: Pos


class TokenTable(dict):
    """(surface, tag name) as read -> its Token, built on the first lookup of
    a key: the surface NFKC-normalized by `normalize_text`, the tag resolved by
    `pos_named`. A surface that is not a string or normalizes to empty, or
    an unknown tag, is a TypeError or ValueError and the key is not stored,
    so each bad row raises where it stands. One table per process, `TOKENS`,
    serves every tag and reference file read; it is cleared before it would
    hold more than MAX_TOKENS keys. Token is frozen, so rows share them."""

    def __missing__(self, key):
        surface, tag = key
        if not isinstance(surface, str):
            raise TypeError(f"token surface must be a string, got {surface!r}")
        normalized = normalize_text(surface)
        if not normalized:
            raise ValueError("empty token surface")
        token = Token(normalized, pos_named(tag))
        if len(self) >= MAX_TOKENS:
            self.clear()
        self[key] = token
        return token


MAX_TOKENS = 1 << 16
TOKENS = TokenTable()


def spelled_by(text: str, tokens) -> bool:
    """Whether the normalized token surfaces, concatenated, spell `text` but for spaces."""
    return "".join(tok.surface for tok in tokens).replace(" ", "") == text.replace(" ", "")


@dataclass(frozen=True)
class TextUnit:
    """A text and its tagged tokens: one source sentence, one target chunk,
    or the reference translation of a source span. The text is normalized:
    NFKC, non-empty, words separated by single spaces, none at either end."""

    text: str
    tokens: tuple[Token, ...]

    def __post_init__(self):
        if not self.text or self.text != " ".join(self.text.split()):
            raise ValidationError(f"unit text {self.text!r} is empty or not single-spaced")
        if not unicodedata.is_normalized("NFKC", self.text):
            raise ValidationError(f"unit text {self.text!r} is not NFKC-normalized")


@dataclass(frozen=True)
class AlignedPair:
    """A monotone link between a source span and a target span.

    Spans are half-open unit-index ranges encoded as (start, length). A zero
    length encodes a deletion/insertion; at most one side may be empty.
    `drop_reason` is set by pruning, never by the aligner itself; a link is
    `dropped` exactly when it has one.
    """

    src_start: int
    src_len: int
    tgt_start: int
    tgt_len: int
    cost: float
    drop_reason: str | None = None

    def __post_init__(self):
        if not all(type(v) is int for v in self.key()):
            raise ValidationError(f"span fields must be ints: {self.key()}")
        if min(self.key()) < 0:
            raise ValidationError(f"negative span field in {self.key()}")
        if self.src_len == 0 and self.tgt_len == 0:
            raise ValidationError("both spans empty")
        if isinstance(self.cost, bool) or not 0 <= self.cost < math.inf:
            raise ValidationError(f"cost {self.cost!r} is not finite and non-negative")

    def key(self) -> tuple[int, int, int, int]:
        return (self.src_start, self.src_len, self.tgt_start, self.tgt_len)

    def span_row(self) -> dict[str, int]:
        """The span's four fields as every artifact row writes them."""
        return {"src_start": self.src_start, "src_len": self.src_len,
                "tgt_start": self.tgt_start, "tgt_len": self.tgt_len}

    @property
    def dropped(self) -> bool:
        return self.drop_reason is not None

    @property
    def src_empty(self) -> bool:
        return self.src_len == 0

    @property
    def tgt_empty(self) -> bool:
        return self.tgt_len == 0


@dataclass(frozen=True)
class DocumentPair:
    talk_id: str
    interpreter_rank: Rank
    source_units: tuple[TextUnit, ...]
    target_units: tuple[TextUnit, ...]
    # SHA-256 of the four talk files as read (see `load_document_pair`);
    # empty for a talk built in memory
    files_sha256: str = field(default="", compare=False, repr=False)

    def src_text(self, start: int, length: int) -> str:
        return " ".join(u.text for u in self.source_units[start : start + length])

    def tgt_text(self, start: int, length: int) -> str:
        return " ".join(u.text for u in self.target_units[start : start + length])


def check_span(doc: DocumentPair, span, path=None, line: int | None = None) -> None:
    """A (src_start, src_len, tgt_start, tgt_len) span lies within `doc`'s M
    source and N target units; a span beyond them, made for another talk or
    corpus, is a ValidationError."""
    m, n = len(doc.source_units), len(doc.target_units)
    if span[0] + span[1] > m or span[2] + span[3] > n:
        raise ValidationError(f"span {span} lies outside talk {doc.talk_id} (M={m}, N={n})",
                              path=path, line=line)


@dataclass(frozen=True)
class TalkManifest:
    """Pointers to the four files that make up one talk."""

    talk_id: str
    interpreter_rank: Rank
    source_units_path: Path
    target_units_path: Path
    source_tags_path: Path
    target_tags_path: Path


TALK_FILES = {
    "source_units_path": "source_units.txt",
    "target_units_path": "target_units.txt",
    "source_tags_path": "source_tags.tsv",
    "target_tags_path": "target_tags.tsv",
}
MANIFEST_NAME = "manifest.json"


def read_manifest(path) -> TalkManifest:
    path = Path(path)
    obj = read_json(path)
    if not isinstance(obj, dict):
        raise ParseError("manifest must be a JSON object", path=path)
    missing = [k for k in ("talk_id", "interpreter_rank", *TALK_FILES) if k not in obj]
    if missing:
        raise ParseError(f"manifest missing keys: {', '.join(missing)}", path=path)
    not_str = [k for k in ("talk_id", *TALK_FILES) if not isinstance(obj[k], str) or not obj[k]]
    if not_str:
        raise ParseError(f"manifest keys must be non-empty strings: {', '.join(not_str)}",
                         path=path)
    # the talk id names the talk's files in every output and input directory
    if obj["talk_id"] in (".", "..") or any(c in obj["talk_id"] for c in "/\\\0"):
        raise ParseError(f"talk_id {obj['talk_id']!r} must be a file name: not '.' or '..', "
                         "and without '/', '\\' or NUL", path=path)
    try:
        rank = Rank(obj["interpreter_rank"])
    except ValueError:
        raise ParseError(f"unknown interpreter_rank {obj['interpreter_rank']!r}", path=path)
    return TalkManifest(talk_id=obj["talk_id"], interpreter_rank=rank,
                        **{key: path.parent / obj[key] for key in TALK_FILES})


def _read_unit_lines(path: Path, data: bytes) -> list[str]:
    texts = []
    for lineno, line in read_lines(path, data):
        text = normalize_text(line)
        if not text:
            raise ParseError("empty unit line", path=path, line=lineno)
        texts.append(text)
    return texts


def _read_tag_blocks(path: Path, data: bytes) -> list[tuple[int, list[Token]]]:
    """Blank-line-separated blocks of `surface<TAB>pos` rows of the file's
    bytes `data`.

    Returns (first line number, tokens) per block so later consistency errors
    can name the offending location.
    """
    blocks: list[tuple[int, list[Token]]] = []
    current: list[Token] = []
    block_start = None
    for lineno, line in read_lines(path, data):
        if not line.strip():
            if current:
                blocks.append((block_start, current))
                current, block_start = [], None
            continue
        cols = line.split("\t")
        if len(cols) != 2:
            raise ParseError(f"expected 2 tab-separated columns, got {len(cols)}",
                             path=path, line=lineno)
        try:
            token = TOKENS[cols[0], cols[1].strip()]
        except ValueError as exc:
            raise ParseError(str(exc), path=path, line=lineno) from None
        if block_start is None:
            block_start = lineno
        current.append(token)
    if current:
        blocks.append((block_start, current))
    return blocks


def _build_units(texts: list[str], blocks, units_path, tags_path) -> tuple[TextUnit, ...]:
    if len(texts) != len(blocks):
        raise ParseError(
            f"{len(texts)} units in {units_path} but {len(blocks)} tag blocks",
            path=tags_path,
        )
    units = []
    for i, (text, (lineno, tokens)) in enumerate(zip(texts, blocks)):
        if not spelled_by(text, tokens):
            raise ParseError(
                f"token surfaces do not re-concatenate to unit {i} text of {units_path}",
                path=tags_path, line=lineno,
            )
        units.append(TextUnit(text=text, tokens=tuple(tokens)))
    return tuple(units)


def load_document_pair(manifest: TalkManifest) -> DocumentPair:
    """Load, normalize, and validate one talk. Each file is read once, and
    its bytes are both parsed and hashed: `files_sha256` is the SHA-256 of
    the four files' own SHA-256 digests, source units first, then source
    tags, target units and target tags."""
    sides, digests = [], []
    for units_path, tags_path in ((manifest.source_units_path, manifest.source_tags_path),
                                  (manifest.target_units_path, manifest.target_tags_path)):
        units_data = read_file(units_path)
        texts = _read_unit_lines(units_path, units_data)
        tags_data = read_file(tags_path)
        units = _build_units(texts, _read_tag_blocks(tags_path, tags_data), units_path, tags_path)
        digests += [hashlib.sha256(units_data).digest(), hashlib.sha256(tags_data).digest()]
        if not units:
            raise ValidationError(f"{manifest.talk_id}: both sides must have at least one unit",
                                  path=units_path)
        sides.append(units)
    doc = DocumentPair(talk_id=manifest.talk_id, interpreter_rank=manifest.interpreter_rank,
                       source_units=sides[0], target_units=sides[1],
                       files_sha256=hashlib.sha256(b"".join(digests)).hexdigest())
    log.debug("loaded %s: M=%d N=%d", doc.talk_id, len(doc.source_units), len(doc.target_units))
    return doc


def talk_texts(doc: DocumentPair) -> dict[str, str]:
    """File name -> contents of the four talk files plus the talk manifest."""
    texts = {}
    for side, units in (("source", doc.source_units), ("target", doc.target_units)):
        texts[TALK_FILES[f"{side}_units_path"]] = "".join(u.text + "\n" for u in units)
        texts[TALK_FILES[f"{side}_tags_path"]] = "\n".join(
            "".join(f"{tok.surface}\t{tok.pos.value}\n" for tok in u.tokens) for u in units
        )
    obj = {"talk_id": doc.talk_id, "interpreter_rank": doc.interpreter_rank.value, **TALK_FILES}
    texts[MANIFEST_NAME] = json.dumps(obj, ensure_ascii=False, sort_keys=True, indent=2) + "\n"
    return texts


def corpus_text(manifest_paths) -> str:
    """Corpus file listing talk manifests by path relative to it."""
    return json.dumps({"talks": list(manifest_paths)}, indent=2, sort_keys=True) + "\n"


def read_corpus(path) -> list[Path]:
    """Talk manifest paths of a corpus file `{"talks": [...]}`."""
    path = Path(path)
    obj = read_json(path)
    talks = obj.get("talks") if isinstance(obj, dict) else None
    if not (isinstance(talks, list) and talks and all(isinstance(t, str) for t in talks)):
        raise ParseError('corpus needs "talks": a non-empty list of manifest paths', path=path)
    return [path.parent / rel for rel in talks]
