"""Stage-2b filtering: drop pairs against an offline reference translation.

Three signals per pair <E, F>, all computed against the reference T of the
pair's source span: content-word coverage (alpha), character length ratio
(gamma), and semantic similarity (eta). The thresholds are engineering
defaults and can be overridden per talk; only the signal definitions and
directions are fixed.
"""

from __future__ import annotations

import json
import math
import logging
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from .corpus import (AlignedPair, DocumentPair, ParseError, Pos, Token,
                     ValidationError, char_len, normalize_text)

log = logging.getLogger(__name__)

COVERAGE_POS_DEFAULT = frozenset({Pos.NOUN, Pos.PROPN, Pos.NUM})

REASON_ALPHA = "alpha"
REASON_GAMMA_LOW = "gamma_low"
REASON_GAMMA_HIGH = "gamma_high"
REASON_ETA = "eta"

CHRF_MAX_ORDER = 6
CHRF_BETA = 2.0


class MissingReferenceError(KeyError):
    def __init__(self, talk_id: str, src_start: int, src_len: int):
        super().__init__(
            f"no reference translation for {talk_id} span (start={src_start}, len={src_len})"
        )
        self.span = (talk_id, src_start, src_len)


@dataclass(frozen=True)
class InterFilterParams:
    alpha_min: float = 0.5
    gamma_min: float = 0.4
    gamma_max: float = 1.6
    eta_min: float = 0.35
    coverage_pos: frozenset[Pos] = COVERAGE_POS_DEFAULT

    def __post_init__(self):
        if not 0.0 <= self.alpha_min <= 1.0:
            raise ValidationError(f"alpha_min outside [0,1]: {self.alpha_min}")
        if self.gamma_min <= 0 or self.gamma_min >= self.gamma_max:
            raise ValidationError(
                f"need 0 < gamma_min < gamma_max, got ({self.gamma_min}, {self.gamma_max})"
            )
        if not self.coverage_pos:
            raise ValidationError("coverage_pos must be non-empty")


@dataclass(frozen=True)
class RefEntry:
    text: str
    tokens: tuple[Token, ...]


@dataclass(frozen=True)
class ReferenceTranslation:
    """Offline translations T keyed by source span (start, len)."""

    talk_id: str
    entries: dict[tuple[int, int], RefEntry]

    def entry(self, src_start: int, src_len: int) -> RefEntry:
        try:
            return self.entries[(src_start, src_len)]
        except KeyError:
            raise MissingReferenceError(self.talk_id, src_start, src_len) from None


@dataclass(frozen=True)
class FilterDecision:
    talk_id: str
    src_start: int
    src_len: int
    tgt_start: int
    tgt_len: int
    alpha: float
    gamma: float
    eta: float
    trims: tuple[str, ...]
    verdict: str                 # "keep" | "drop"
    reasons: tuple[str, ...]


def content_coverage(pair: AlignedPair, doc: DocumentPair, ref: ReferenceTranslation,
                     coverage_pos) -> float:
    """Fraction of T's content tokens whose surface occurs in F's text.

    T stands in for E here: it is the reference translation of E in the
    target language, so coverage becomes a same-language substring test.
    Returns 1.0 when T has no content tokens at all.
    """
    entry = ref.entry(pair.src_start, pair.src_len)
    f_text = doc.tgt_text(pair.tgt_start, pair.tgt_len)
    content = [tok.surface for tok in entry.tokens if tok.pos in coverage_pos]
    if not content:
        return 1.0
    covered = sum(1 for surface in content if surface in f_text)
    return covered / len(content)


def length_ratio(pair: AlignedPair, doc: DocumentPair, ref: ReferenceTranslation) -> float:
    """char_len(F) / char_len(T), whitespace excluded on both sides."""
    entry = ref.entry(pair.src_start, pair.src_len)
    t_len = char_len(entry.text)
    if t_len == 0:
        raise ValidationError(
            f"{ref.talk_id}: empty reference text for span "
            f"({pair.src_start}, {pair.src_len})"
        )
    return char_len(doc.tgt_text(pair.tgt_start, pair.tgt_len)) / t_len


def _char_ngrams(text: str, n: int) -> Counter:
    return Counter(text[i : i + n] for i in range(len(text) - n + 1))


def chrf_score(f_text: str, t_text: str, max_order: int = CHRF_MAX_ORDER,
               beta: float = CHRF_BETA) -> float:
    """Character n-gram F-measure of F against reference T.

    Whitespace is removed before n-gram extraction (the usual convention,
    and the right one for unsegmented scripts). Precision and recall are
    averaged uniformly over orders 1..max_order, skipping orders where
    neither side has any n-gram; F is the beta-weighted harmonic mean.
    """
    hyp = "".join(normalize_text(f_text).split())
    ref = "".join(normalize_text(t_text).split())
    if not hyp and not ref:
        return 1.0
    precisions, recalls = [], []
    for n in range(1, max_order + 1):
        hyp_grams = _char_ngrams(hyp, n)
        ref_grams = _char_ngrams(ref, n)
        hyp_total = sum(hyp_grams.values())
        ref_total = sum(ref_grams.values())
        if hyp_total == 0 and ref_total == 0:
            continue
        matched = sum(min(count, ref_grams[g]) for g, count in hyp_grams.items())
        precisions.append(matched / hyp_total if hyp_total else 0.0)
        recalls.append(matched / ref_total if ref_total else 0.0)
    if not precisions:
        return 0.0
    p = sum(precisions) / len(precisions)
    r = sum(recalls) / len(recalls)
    if p == 0.0 and r == 0.0:
        return 0.0
    b2 = beta * beta
    return (1 + b2) * p * r / (b2 * p + r)


class BuiltinScorer:
    """Deterministic chrF-style scorer; the hermetic default."""

    def score(self, talk_id: str, src_span: tuple[int, int], f_text: str, t_text: str) -> float:
        return chrf_score(f_text, t_text)


class ExternalScorer:
    """Scores precomputed by a learned metric, keyed by source span."""

    def __init__(self, scores: dict[tuple[str, int, int], float]):
        self._scores = scores

    def score(self, talk_id: str, src_span: tuple[int, int], f_text: str, t_text: str) -> float:
        key = (talk_id, src_span[0], src_span[1])
        if key not in self._scores:
            raise MissingReferenceError(talk_id, src_span[0], src_span[1])
        return self._scores[key]


def apply_inter_filter(pairs, doc: DocumentPair, ref: ReferenceTranslation,
                       params: InterFilterParams, scorer=None,
                       trims_by_pair: dict | None = None,
                       ) -> tuple[list[AlignedPair], list[FilterDecision]]:
    """Keep pairs passing all three thresholds; record a decision for each."""
    if scorer is None:
        scorer = BuiltinScorer()
    trims_by_pair = trims_by_pair or {}
    kept, decisions = [], []
    for pair in pairs:
        alpha = content_coverage(pair, doc, ref, params.coverage_pos)
        gamma = length_ratio(pair, doc, ref)
        entry = ref.entry(pair.src_start, pair.src_len)
        f_text = doc.tgt_text(pair.tgt_start, pair.tgt_len)
        eta = scorer.score(doc.talk_id, (pair.src_start, pair.src_len), f_text, entry.text)
        reasons = []
        if alpha < params.alpha_min:
            reasons.append(REASON_ALPHA)
        if gamma < params.gamma_min:
            reasons.append(REASON_GAMMA_LOW)
        elif gamma > params.gamma_max:
            reasons.append(REASON_GAMMA_HIGH)
        if eta < params.eta_min:
            reasons.append(REASON_ETA)
        verdict = "drop" if reasons else "keep"
        if not reasons:
            kept.append(pair)
        decisions.append(FilterDecision(
            talk_id=doc.talk_id,
            src_start=pair.src_start, src_len=pair.src_len,
            tgt_start=pair.tgt_start, tgt_len=pair.tgt_len,
            alpha=alpha, gamma=gamma, eta=eta,
            trims=tuple(trims_by_pair.get(pair.key(), ())),
            verdict=verdict, reasons=tuple(reasons),
        ))
    return kept, decisions


def references_text(ref: ReferenceTranslation) -> str:
    """JSON Lines, one reference entry per row, ordered by source span."""
    return "".join(json.dumps({
        "talk_id": ref.talk_id, "src_start": start, "src_len": length,
        "text": entry.text,
        "tokens": [[t.surface, t.pos.value] for t in entry.tokens],
    }, ensure_ascii=False, sort_keys=True) + "\n"
        for (start, length), entry in sorted(ref.entries.items()))


def read_reference_jsonl(path, talk_id: str | None = None) -> ReferenceTranslation:
    path = Path(path)
    entries: dict[tuple[int, int], RefEntry] = {}
    seen_talk = talk_id
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            if not raw.strip():
                continue
            try:
                obj = json.loads(raw)
                tokens = tuple(Token(s, Pos(p)) for s, p in obj["tokens"])
                entry = RefEntry(text=normalize_text(obj["text"]), tokens=tokens)
                key = (int(obj["src_start"]), int(obj["src_len"]))
                row_talk = str(obj["talk_id"])
            except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
                raise ParseError(f"bad reference row: {exc}", path=path, line=lineno) from exc
            if seen_talk is None:
                seen_talk = row_talk
            if row_talk != seen_talk:
                continue
            entries[key] = entry
    return ReferenceTranslation(talk_id=seen_talk or "", entries=entries)


def read_external_scores(path) -> ExternalScorer:
    """TSV `talk_id<TAB>src_start<TAB>src_len<TAB>score`."""
    path = Path(path)
    scores: dict[tuple[str, int, int], float] = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            cols = line.split("\t")
            if len(cols) != 4:
                raise ParseError(f"expected 4 columns, got {len(cols)}", path=path, line=lineno)
            try:
                key, score = (cols[0], int(cols[1]), int(cols[2])), float(cols[3])
            except ValueError as exc:
                raise ParseError(f"bad numeric field: {exc}", path=path, line=lineno) from exc
            if not math.isfinite(score):
                raise ParseError(f"non-finite score {cols[3]!r}", path=path, line=lineno)
            scores[key] = score
    return ExternalScorer(scores)


def decisions_text(decisions) -> str:
    """JSON Lines, one filter decision per row, in the given order."""
    return "".join(json.dumps({
        "talk_id": d.talk_id,
        "src_start": d.src_start, "src_len": d.src_len,
        "tgt_start": d.tgt_start, "tgt_len": d.tgt_len,
        "alpha": d.alpha, "gamma": d.gamma, "eta": d.eta,
        "trims": list(d.trims),
        "verdict": d.verdict, "reasons": list(d.reasons),
    }, ensure_ascii=False, sort_keys=True) + "\n" for d in decisions)
