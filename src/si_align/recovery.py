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
from .corpus import DocumentPair, ValidationError


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
    """LCS(F_auto, F_manual) / |F_manual|, in characters of the texts as given."""
    if not f_manual:
        raise ValidationError("similarity undefined for empty manual text")
    return lcs_substring_len(f_auto, f_manual) / len(f_manual)


@dataclass(frozen=True)
class RecoveryReport:
    """One talk's similarity per scored gold link, as (source start, similarity)."""

    talk_id: str
    per_sentence: tuple[tuple[int, float], ...]

    def accuracy(self, eps: float) -> float:
        """The share of scored gold links recovered at `eps`: similarity above it."""
        return sum(1 for _, s in self.per_sentence if s > eps) / len(self.per_sentence)


def recovery_accuracy(pairs, gold: AlignmentSet, doc: DocumentPair) -> RecoveryReport:
    """Score the kept gold links of `doc` against `pairs`, the pairs a stage
    passes on for it.

    A gold link is scored by the target-text similarity of the pair with
    its source span; with no such pair, it scores 0. Gold links with an
    empty side carry no measurable target text and are not scored.
    """
    auto_by_src = {(p.src_start, p.src_len): p for p in pairs}
    per_sentence = []
    for g in gold.kept():
        if g.src_empty or g.tgt_empty:
            continue
        match = auto_by_src.get((g.src_start, g.src_len))
        s = 0.0 if match is None else similarity(doc.tgt_text(match.tgt_start, match.tgt_len),
                                                 doc.tgt_text(g.tgt_start, g.tgt_len))
        per_sentence.append((g.src_start, s))
    return RecoveryReport(doc.talk_id, tuple(per_sentence))


def report_text(report: RecoveryReport, epsilons) -> str:
    """One talk's per-sentence similarities and accuracy curve as JSON."""
    obj = {
        "talk_id": report.talk_id,
        "per_sentence": [[i, s] for i, s in report.per_sentence],
        "accuracy_at": {repr(eps): report.accuracy(eps) for eps in dict.fromkeys(epsilons)},
    }
    return json.dumps(obj, ensure_ascii=False, sort_keys=True, indent=2) + "\n"


def summary_tsv_text(reports: list[RecoveryReport], epsilons) -> str:
    """One row per talk, one column per epsilon, for spreadsheet use."""
    epsilons = sorted(set(epsilons))
    lines = ["talk_id\tn_links\t" + "\t".join(f"acc@{eps:g}" for eps in epsilons)]
    for r in reports:
        cells = [f"{r.accuracy(eps):.4f}" for eps in epsilons]
        lines.append(f"{r.talk_id}\t{len(r.per_sentence)}\t" + "\t".join(cells))
    return "\n".join(lines) + "\n"
