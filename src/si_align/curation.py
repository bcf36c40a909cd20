"""Round-trip file format for manual curation of dev/test candidate pairs.

Pairs are exported to a TSV that annotators label (good_align, good_mt) and
optionally post-edit; importing keeps only pairs marked good on both labels,
with edits applied. Labels are tri-state so a half-annotated file fails
loudly instead of silently defaulting.
"""

from __future__ import annotations

import json
import logging
from collections import Counter
from dataclasses import dataclass

from .corpus import (AlignedPair, DocumentPair, ParseError, ValidationError, check_span,
                     jsonl_text, normalize_text, read_lines)

log = logging.getLogger(__name__)

HEADER = (
    "talk_id", "src_start", "src_len", "tgt_start", "tgt_len",
    "source_text", "target_text", "good_align", "good_mt", "edited_target",
)

_BOOL = {"true": True, "false": False, "": None}


@dataclass(frozen=True)
class AnnotationRecord:
    talk_id: str
    src_start: int
    src_len: int
    tgt_start: int
    tgt_len: int
    source_text: str
    target_text: str
    good_align: bool | None = None
    good_mt: bool | None = None
    edited_target: str | None = None

    def validate(self, path=None, line: int | None = None) -> None:
        """A span that no link may have (as `AlignedPair` checks it), labels
        that contradict each other, or an edit that normalizes to nothing,
        are a ValidationError naming the record's `path` and `line`."""
        problem = None
        try:
            AlignedPair(self.src_start, self.src_len, self.tgt_start, self.tgt_len, 0.0)
        except ValidationError as exc:
            problem = exc.message
        else:
            if self.good_mt is not None and self.good_align is None:
                problem = "good_mt is set but good_align is not"
            elif self.good_mt is True and self.good_align is not True:
                problem = "good_mt=true requires good_align=true"
            elif self.edited_target is not None and not normalize_text(self.edited_target):
                problem = "edited_target is set but empty after normalization"
        if problem is not None:
            raise ValidationError(f"{self.talk_id} ({self.src_start},{self.src_len}): {problem}",
                                  path=path, line=line)


@dataclass(frozen=True)
class CuratedPair:
    talk_id: str
    pair: AlignedPair
    source_text: str
    target_text: str


def export_annotations(pairs_by_talk: dict[str, tuple[list[AlignedPair], DocumentPair]]
                       ) -> list[AnnotationRecord]:
    """One unlabeled record per pair, ordered by (talk_id, src_start)."""
    records = []
    for talk_id in sorted(pairs_by_talk):
        pairs, doc = pairs_by_talk[talk_id]
        for pair in sorted(pairs, key=lambda p: (p.src_start, p.tgt_start)):
            records.append(AnnotationRecord(
                talk_id=talk_id,
                src_start=pair.src_start, src_len=pair.src_len,
                tgt_start=pair.tgt_start, tgt_len=pair.tgt_len,
                source_text=doc.src_text(pair.src_start, pair.src_len),
                target_text=doc.tgt_text(pair.tgt_start, pair.tgt_len),
            ))
    return records


def annotations_text(records) -> str:
    # normalized text cannot contain tabs or newlines, so plain TSV is safe
    lines = ["\t".join(HEADER)]
    for r in records:
        lines.append("\t".join((
            r.talk_id, str(r.src_start), str(r.src_len),
            str(r.tgt_start), str(r.tgt_len),
            r.source_text, r.target_text,
            _bool_str(r.good_align), _bool_str(r.good_mt),
            r.edited_target if r.edited_target is not None else "",
        )))
    return "\n".join(lines) + "\n"


def _bool_str(value: bool | None) -> str:
    return "" if value is None else ("true" if value else "false")


def read_annotations_tsv(path, docs: dict[str, DocumentPair] | None = None,
                         ) -> list[AnnotationRecord]:
    """Records of an annotation file, each validated: spans and labels
    always, its talk and span bounds against `docs` when supplied
    (annotators may re-chunk by editing tgt span fields). A record that
    fails is a ValidationError naming the file and its line."""
    records = []
    lines = read_lines(path)
    _, header = next(lines, (1, ""))
    if tuple(header.split("\t")) != HEADER:
        raise ParseError(f"missing or wrong header, expected {','.join(HEADER)}", path=path, line=1)
    for lineno, line in lines:
        if not line.strip():
            continue
        cols = line.split("\t")
        if len(cols) != len(HEADER):
            raise ParseError(f"expected {len(HEADER)} columns, got {len(cols)}",
                             path=path, line=lineno)
        try:
            src_start, src_len, tgt_start, tgt_len = (int(c) for c in cols[1:5])
        except ValueError as exc:
            raise ParseError(f"bad span field: {exc}", path=path, line=lineno) from exc
        for col, name in ((cols[7], "good_align"), (cols[8], "good_mt")):
            if col not in _BOOL:
                raise ParseError(f"{name} must be true/false/empty, got {col!r}",
                                 path=path, line=lineno)
        record = AnnotationRecord(
            talk_id=cols[0],
            src_start=src_start, src_len=src_len, tgt_start=tgt_start, tgt_len=tgt_len,
            source_text=cols[5], target_text=cols[6],
            good_align=_BOOL[cols[7]], good_mt=_BOOL[cols[8]],
            edited_target=cols[9] if cols[9] != "" else None,
        )
        record.validate(path, lineno)
        if docs is not None:
            if record.talk_id not in docs:
                raise ValidationError(f"{record.talk_id}: no talk of that id in the corpus",
                                      path=path, line=lineno)
            check_span(docs[record.talk_id], (src_start, src_len, tgt_start, tgt_len),
                       path=path, line=lineno)
        records.append(record)
    return records


def import_annotations(path, docs: dict[str, DocumentPair] | None = None,
                       ) -> tuple[list[CuratedPair], Counter]:
    """Build the curated pair list from an annotated file.

    Keeps records labeled good_align=true and good_mt=true, applying
    edited_target when present; every record is validated as
    `read_annotations_tsv` does. Returns (kept pairs, counts of each
    (good_align, good_mt) label combination).
    """
    records = read_annotations_tsv(path, docs)
    label_counts: Counter = Counter()
    kept = []
    for record in records:
        label_counts[(_bool_str(record.good_align), _bool_str(record.good_mt))] += 1
        if record.good_align is True and record.good_mt is True:
            target = record.target_text
            if record.edited_target is not None:
                target = normalize_text(record.edited_target)
            kept.append(CuratedPair(
                talk_id=record.talk_id,
                pair=AlignedPair(
                    src_start=record.src_start, src_len=record.src_len,
                    tgt_start=record.tgt_start, tgt_len=record.tgt_len, cost=0.0,
                ),
                source_text=record.source_text,
                target_text=target,
            ))
    log.info("imported %d of %d records", len(kept), len(records))
    return kept, label_counts


def curated_text(kept) -> str:
    """curated.jsonl: one row per kept pair, in the given order."""
    return jsonl_text({
        "talk_id": c.talk_id,
        "src_start": c.pair.src_start, "src_len": c.pair.src_len,
        "tgt_start": c.pair.tgt_start, "tgt_len": c.pair.tgt_len,
        "source_text": c.source_text, "target_text": c.target_text,
    } for c in kept)


def counts_text(label_counts: Counter) -> str:
    """curation_counts.json: records per `good_align/good_mt` label pair."""
    obj = {f"{a or 'unset'}/{m or 'unset'}": n for (a, m), n in sorted(label_counts.items())}
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
