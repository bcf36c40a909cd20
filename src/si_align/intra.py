"""Stage-2a filtering: trim content-free boundary chunks off aligned pairs.

Interpreters open and close sentences with fillers that carry no content
words; those chunks get absorbed into coarse links and should be stripped.
Trimming never drops a pair and never touches the source span.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace

from .corpus import (AlignedPair, DocumentPair, Pos, TextUnit, ValidationError, jsonl_text,
                     read_jsonl)

CONTENT_POS_DEFAULT = frozenset({Pos.NOUN, Pos.PROPN, Pos.PRON, Pos.VERB, Pos.NUM})


@dataclass(frozen=True)
class IntraFilterParams:
    content_pos: frozenset[Pos] = CONTENT_POS_DEFAULT
    max_trims_per_side: int = 1

    def __post_init__(self):
        if not self.content_pos:
            raise ValidationError("content_pos must be non-empty")
        if self.max_trims_per_side < 0:
            raise ValidationError("max_trims_per_side must be >= 0")


def has_content_word(unit: TextUnit, content_pos) -> bool:
    return any(tok.pos in content_pos for tok in unit.tokens)


@dataclass(frozen=True)
class TrimResult:
    pair: AlignedPair
    trims: tuple[str, ...]    # e.g. ("begin:1", "end:1")
    flagged: bool             # a content-free boundary chunk survived


def _boundary_run(units, content_pos, from_end: bool) -> int:
    count = 0
    for unit in (reversed(units) if from_end else units):
        if has_content_word(unit, content_pos):
            break
        count += 1
    return count


def trim_boundaries(pair: AlignedPair, doc: DocumentPair,
                    params: IntraFilterParams) -> TrimResult:
    """Strip content-free boundary runs from the target span.

    A boundary run is removed only when it fits within max_trims_per_side
    and leaves the span non-empty; longer runs are left intact and flagged.
    Removing whole runs (rather than partial prefixes) makes the operation
    idempotent. The end-side run is measured on the already-trimmed span.
    """
    if pair.tgt_empty:
        raise ValidationError("intra filter needs a non-empty target span")
    start, length = pair.tgt_start, pair.tgt_len
    units = doc.target_units[start : start + length]
    trims = []

    lead = _boundary_run(units, params.content_pos, from_end=False)
    if 0 < lead <= params.max_trims_per_side and lead < length:
        start += lead
        length -= lead
        units = units[lead:]
        trims.append(f"begin:{lead}")

    trail = _boundary_run(units, params.content_pos, from_end=True)
    if 0 < trail <= params.max_trims_per_side and trail < length:
        length -= trail
        units = units[:length]
        trims.append(f"end:{trail}")

    flagged = (not has_content_word(units[0], params.content_pos)
               or not has_content_word(units[-1], params.content_pos))
    trimmed = pair if not trims else replace(pair, tgt_start=start, tgt_len=length)
    return TrimResult(pair=trimmed, trims=tuple(trims), flagged=flagged)


def apply_intra_filter(pairs, doc: DocumentPair,
                       params: IntraFilterParams) -> list[TrimResult]:
    """Trim every pair; pairs with an empty side pass through untouched."""
    results = []
    for pair in pairs:
        if pair.src_empty or pair.tgt_empty:
            results.append(TrimResult(pair=pair, trims=(), flagged=False))
        else:
            results.append(trim_boundaries(pair, doc, params))
    return results


def trims_text(talk_id: str, originals, results) -> str:
    """*.trims.jsonl: each input pair's spans before and after trimming."""
    return jsonl_text({
        "talk_id": talk_id, **original.span_row(),
        "new_tgt_start": r.pair.tgt_start, "new_tgt_len": r.pair.tgt_len,
        "trims": list(r.trims), "flagged": r.flagged,
    } for original, r in zip(originals, results))


def _trims_row(obj) -> tuple[tuple[int, int, int, int], tuple[str, ...]]:
    trimmed = AlignedPair(obj["src_start"], obj["src_len"],
                          obj["new_tgt_start"], obj["new_tgt_len"], 0.0)
    trims = obj["trims"]
    if not (isinstance(trims, list)
            and all(isinstance(t, str) and re.fullmatch("(begin|end):[0-9]+", t) for t in trims)):
        raise TypeError(f"trims must be a list of 'begin:N' and 'end:N', got {trims!r}")
    return trimmed.key(), tuple(trims)


def read_trims(path, data: bytes | None = None) -> dict[tuple[int, int, int, int],
                                                       tuple[str, ...]]:
    """Trims keyed by the trimmed pair's key; `data` is as for
    `corpus.read_lines`."""
    return dict(read_jsonl(path, _trims_row, data=data))
