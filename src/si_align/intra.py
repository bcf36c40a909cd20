"""Stage-2a filtering: trim content-free boundary chunks off aligned pairs.

Interpreters open and close sentences with fillers that carry no content
words; those chunks get absorbed into coarse links and should be stripped.
Trimming never drops a pair and never touches the source span.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .corpus import AlignedPair, DocumentPair, Pos, TextUnit, ValidationError

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
    trims: tuple[str, ...]    # e.g. ("begin:1", "end:1"); perfbench/traced_cli.py counts them
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
    A pair with an empty side is a ValidationError.
    """
    if pair.src_empty or pair.tgt_empty:
        raise ValidationError("intra filter needs two non-empty spans")
    start, length = pair.tgt_start, pair.tgt_len
    units = doc.target_units[start : start + length]

    lead = _boundary_run(units, params.content_pos, from_end=False)
    if 0 < lead <= params.max_trims_per_side and lead < length:
        start += lead
        length -= lead
        units = units[lead:]

    trail = _boundary_run(units, params.content_pos, from_end=True)
    if 0 < trail <= params.max_trims_per_side and trail < length:
        length -= trail
        units = units[:length]

    flagged = (not has_content_word(units[0], params.content_pos)
               or not has_content_word(units[-1], params.content_pos))
    trimmed = pair if length == pair.tgt_len else replace(pair, tgt_start=start, tgt_len=length)
    return TrimResult(pair=trimmed, trims=trims_between(pair, trimmed), flagged=flagged)


def trims_between(original: AlignedPair, trimmed: AlignedPair) -> tuple[str, ...]:
    """The trims that narrow `original`'s target span to `trimmed`'s:
    `begin:N` and then `end:N`, each only when its N units are > 0. A
    `trimmed` of another source span, or whose target span is not inside
    `original`'s, is a ValueError."""
    begin = trimmed.tgt_start - original.tgt_start
    end = original.tgt_start + original.tgt_len - trimmed.tgt_start - trimmed.tgt_len
    if trimmed.key()[:2] != original.key()[:2] or begin < 0 or end < 0:
        raise ValueError(f"{trimmed.key()} does not narrow {original.key()}")
    return tuple(f"{side}:{n}" for side, n in (("begin", begin), ("end", end)) if n)


def apply_intra_filter(pairs, doc: DocumentPair,
                       params: IntraFilterParams) -> list[TrimResult]:
    """Trim every pair, in order. `pairs` are those a stage passes on
    (`AlignmentSet.kept`), so each has two non-empty spans."""
    return [trim_boundaries(pair, doc, params) for pair in pairs]
