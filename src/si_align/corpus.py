"""Corpus data model: talks, text units, tokens, and their file formats.

A talk is a pair of documents: source sentences and target chunks, both
pre-tokenized and POS-tagged upstream. Units arrive one per line; token
annotations arrive in blank-line-separated TSV blocks.
"""

from __future__ import annotations

import json
import logging
import unicodedata
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

log = logging.getLogger(__name__)


class ParseError(ValueError):
    """An input file does not match its declared format."""

    def __init__(self, message: str, path=None, line: int | None = None):
        loc = ""
        if path is not None:
            loc = f" [{path}" + (f":{line}" if line is not None else "") + "]"
        super().__init__(message + loc)
        self.path = str(path) if path is not None else None
        self.line = line


class ValidationError(ValueError):
    """A structural invariant does not hold."""


class Pos(str, Enum):
    NOUN = "NOUN"
    PROPN = "PROPN"
    PRON = "PRON"
    VERB = "VERB"
    NUM = "NUM"
    OTHER = "OTHER"


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


def char_len(text: str) -> int:
    """Character count excluding all whitespace."""
    return len("".join(text.split()))


@dataclass(frozen=True)
class Token:
    surface: str
    pos: Pos


@dataclass(frozen=True)
class TextUnit:
    """One source sentence or one target chunk."""

    index: int
    text: str
    tokens: tuple[Token, ...]


@dataclass(frozen=True)
class AlignedPair:
    """A monotone link between a source span and a target span.

    Spans are half-open unit-index ranges encoded as (start, length). A zero
    length encodes a deletion/insertion; at most one side may be empty.
    `dropped`/`drop_reason` are set by pruning, never by the aligner itself.
    """

    src_start: int
    src_len: int
    tgt_start: int
    tgt_len: int
    cost: float
    dropped: bool = False
    drop_reason: str | None = None

    def __post_init__(self):
        if self.src_len < 0 or self.tgt_len < 0 or self.src_start < 0 or self.tgt_start < 0:
            raise ValidationError(f"negative span field in {self.key()}")
        if self.src_len == 0 and self.tgt_len == 0:
            raise ValidationError("both spans empty")
        if self.cost < 0:
            raise ValidationError(f"negative cost {self.cost}")

    def key(self) -> tuple[int, int, int, int]:
        return (self.src_start, self.src_len, self.tgt_start, self.tgt_len)

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

    def validate(self) -> None:
        """Check load-time invariants. Degenerate (empty-side) documents are
        constructible for algorithmic edge cases but never loadable."""
        if not self.talk_id:
            raise ValidationError("empty talk_id")
        if not self.source_units or not self.target_units:
            raise ValidationError(f"{self.talk_id}: both sides must have at least one unit")
        for name, units in (("source", self.source_units), ("target", self.target_units)):
            for i, unit in enumerate(units):
                if unit.index != i:
                    raise ValidationError(
                        f"{self.talk_id}: {name} unit index {unit.index} at position {i}"
                    )
                _check_unit(unit, name, self.talk_id)

    def src_text(self, start: int, length: int) -> str:
        return " ".join(u.text for u in self.source_units[start : start + length])

    def tgt_text(self, start: int, length: int) -> str:
        return " ".join(u.text for u in self.target_units[start : start + length])


def _check_unit(unit: TextUnit, side: str, talk_id: str) -> None:
    if not unit.text:
        raise ValidationError(f"{talk_id}: empty {side} unit {unit.index}")
    joined = "".join(tok.surface for tok in unit.tokens)
    if "".join(joined.split()) != "".join(unit.text.split()):
        raise ValidationError(
            f"{talk_id}: {side} unit {unit.index}: token surfaces do not re-concatenate to text"
        )
    for tok in unit.tokens:
        if not tok.surface:
            raise ValidationError(f"{talk_id}: {side} unit {unit.index}: empty token surface")


@dataclass(frozen=True)
class TalkManifest:
    """Pointers to the four files that make up one talk."""

    talk_id: str
    interpreter_rank: Rank
    source_units_path: Path
    target_units_path: Path
    source_tags_path: Path
    target_tags_path: Path


def read_manifest(path) -> TalkManifest:
    path = Path(path)
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid manifest JSON: {exc}", path=path) from exc
    required = (
        "talk_id",
        "interpreter_rank",
        "source_units_path",
        "target_units_path",
        "source_tags_path",
        "target_tags_path",
    )
    missing = [k for k in required if k not in obj]
    if missing:
        raise ParseError(f"manifest missing keys: {', '.join(missing)}", path=path)
    try:
        rank = Rank(obj["interpreter_rank"])
    except ValueError:
        raise ParseError(f"unknown interpreter_rank {obj['interpreter_rank']!r}", path=path)
    base = path.parent
    return TalkManifest(
        talk_id=str(obj["talk_id"]),
        interpreter_rank=rank,
        source_units_path=base / obj["source_units_path"],
        target_units_path=base / obj["target_units_path"],
        source_tags_path=base / obj["source_tags_path"],
        target_tags_path=base / obj["target_tags_path"],
    )


def _read_unit_lines(path: Path) -> list[str]:
    texts = []
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            text = normalize_text(raw)
            if not text:
                raise ParseError("empty unit line", path=path, line=lineno)
            texts.append(text)
    return texts


def _read_tag_blocks(path: Path) -> list[tuple[int, list[Token]]]:
    """Blank-line-separated blocks of `surface<TAB>pos` rows.

    Returns (first line number, tokens) per block so later consistency errors
    can name the offending location.
    """
    blocks: list[tuple[int, list[Token]]] = []
    current: list[Token] = []
    block_start = None
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                if current:
                    blocks.append((block_start, current))
                    current, block_start = [], None
                continue
            cols = line.split("\t")
            if len(cols) != 2:
                raise ParseError(f"expected 2 tab-separated columns, got {len(cols)}",
                                 path=path, line=lineno)
            surface = normalize_text(cols[0])
            if not surface:
                raise ParseError("empty token surface", path=path, line=lineno)
            try:
                pos = Pos(cols[1].strip())
            except ValueError:
                raise ParseError(f"POS tag {cols[1].strip()!r} outside the tag enumeration",
                                 path=path, line=lineno)
            if block_start is None:
                block_start = lineno
            current.append(Token(surface, pos))
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
        joined = "".join(tok.surface for tok in tokens)
        if "".join(joined.split()) != "".join(text.split()):
            raise ParseError(
                f"token surfaces do not re-concatenate to unit {i} text",
                path=tags_path, line=lineno,
            )
        units.append(TextUnit(index=i, text=text, tokens=tuple(tokens)))
    return tuple(units)


def load_document_pair(manifest: TalkManifest) -> DocumentPair:
    """Load, normalize, and validate one talk."""
    src_texts = _read_unit_lines(manifest.source_units_path)
    tgt_texts = _read_unit_lines(manifest.target_units_path)
    src_blocks = _read_tag_blocks(manifest.source_tags_path)
    tgt_blocks = _read_tag_blocks(manifest.target_tags_path)
    doc = DocumentPair(
        talk_id=manifest.talk_id,
        interpreter_rank=manifest.interpreter_rank,
        source_units=_build_units(src_texts, src_blocks,
                                  manifest.source_units_path, manifest.source_tags_path),
        target_units=_build_units(tgt_texts, tgt_blocks,
                                  manifest.target_units_path, manifest.target_tags_path),
    )
    doc.validate()
    log.debug("loaded %s: M=%d N=%d", doc.talk_id, len(doc.source_units), len(doc.target_units))
    return doc


TALK_FILES = {
    "source_units_path": "source_units.txt",
    "target_units_path": "target_units.txt",
    "source_tags_path": "source_tags.tsv",
    "target_tags_path": "target_tags.tsv",
}
MANIFEST_NAME = "manifest.json"


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
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid corpus JSON: {exc}", path=path) from exc
    talks = obj.get("talks") if isinstance(obj, dict) else None
    if not isinstance(talks, list) or not all(isinstance(t, str) for t in talks):
        raise ParseError('corpus needs "talks": a list of manifest paths', path=path)
    return [path.parent / rel for rel in talks]
