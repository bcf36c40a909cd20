"""Quantitative validation: how much of a gold alignment the aligner recovers.

Per gold link, the automatically aligned target text is compared to the
manually aligned one via longest-common-substring similarity, and accuracy
is reported at a range of similarity thresholds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from difflib import SequenceMatcher

from .align import AlignmentSet
from .corpus import DocumentPair, ValidationError, normalize_text


def lcs_substring_len(a: str, b: str) -> int:
    """Length in characters of the longest contiguous common substring.

    No common substring is longer than the shorter string, so when that
    string occurs in the other its length is exact; only a partial overlap
    needs the matcher."""
    if not a or not b:
        return 0
    shorter, longer = (a, b) if len(a) <= len(b) else (b, a)
    if shorter in longer:
        return len(shorter)
    matcher = SequenceMatcher(None, a, b, autojunk=False)
    return matcher.find_longest_match(0, len(a), 0, len(b)).size


def similarity(f_auto: str, f_manual: str) -> float:
    """LCS(F_auto, F_manual) / |F_manual|, character lengths of normalized text."""
    auto = normalize_text(f_auto)
    manual = normalize_text(f_manual)
    if not manual:
        raise ValidationError("similarity undefined for empty manual text")
    return lcs_substring_len(auto, manual) / len(manual)


@dataclass(frozen=True)
class RecoveryReport:
    talk_id: str
    per_sentence: tuple[tuple[int, float], ...]
    accuracy_at: dict[float, float]


def recovery_accuracy(auto: AlignmentSet, gold: AlignmentSet, pair: DocumentPair,
                      epsilons: list[float]) -> RecoveryReport:
    """Fraction of gold links recovered at each threshold.

    A gold link counts as recovered at epsilon when the kept auto link with
    the identical source span has target-text similarity strictly above
    epsilon; a missing or differently-spanned auto link scores 0. Gold links
    with an empty side carry no measurable target text and are skipped.
    """
    if auto.talk_id != gold.talk_id:
        raise ValidationError(f"talk mismatch: {auto.talk_id!r} vs {gold.talk_id!r}")
    if pair.talk_id != gold.talk_id:
        raise ValidationError(f"document {pair.talk_id!r} does not match {gold.talk_id!r}")
    auto_by_src = {(l.src_start, l.src_len): l for l in auto.kept()
                   if not l.src_empty and not l.tgt_empty}
    per_sentence = []
    for g in gold.kept():
        if g.src_empty or g.tgt_empty:
            continue
        manual_text = pair.tgt_text(g.tgt_start, g.tgt_len)
        match = auto_by_src.get((g.src_start, g.src_len))
        if match is None:
            s = 0.0
        else:
            s = similarity(pair.tgt_text(match.tgt_start, match.tgt_len), manual_text)
        per_sentence.append((g.src_start, s))
    scores = [s for _, s in per_sentence]
    accuracy_at = {
        eps: (sum(1 for s in scores if s > eps) / len(scores)) if scores else 0.0
        for eps in epsilons
    }
    return RecoveryReport(
        talk_id=gold.talk_id,
        per_sentence=tuple(per_sentence),
        accuracy_at=accuracy_at,
    )


def report_text(report: RecoveryReport) -> str:
    """One talk's per-sentence similarities and accuracy curve as JSON."""
    obj = {
        "talk_id": report.talk_id,
        "per_sentence": [[i, s] for i, s in report.per_sentence],
        "accuracy_at": {repr(eps): acc for eps, acc in sorted(report.accuracy_at.items())},
    }
    return json.dumps(obj, ensure_ascii=False, sort_keys=True, indent=2) + "\n"


def summary_tsv_text(reports: list[RecoveryReport]) -> str:
    """One row per talk, one column per epsilon, for spreadsheet use."""
    epsilons = sorted({eps for r in reports for eps in r.accuracy_at})
    lines = ["talk_id\tn_links\t" + "\t".join(f"acc@{eps:g}" for eps in epsilons)]
    for r in reports:
        cells = [f"{r.accuracy_at.get(eps, 0.0):.4f}" for eps in epsilons]
        lines.append(f"{r.talk_id}\t{len(r.per_sentence)}\t" + "\t".join(cells))
    return "\n".join(lines) + "\n"
