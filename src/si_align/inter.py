"""Stage-2b filtering: drop pairs against an offline reference translation.

Three signals per pair <E, F>, all computed against the reference T of the
pair's source span: content-word coverage (alpha), character length ratio
(gamma), and semantic similarity (eta). The thresholds are engineering
defaults and can be overridden per talk; only the signal definitions and
directions are fixed.
"""

from __future__ import annotations

import math
import logging
from dataclasses import dataclass

from .corpus import (TOKENS, AlignedPair, DocumentPair, ParseError, Pos, TextUnit,
                     ValidationError, jsonl_text, normalize_text, read_jsonl, read_lines,
                     spelled_by)

log = logging.getLogger(__name__)

COVERAGE_POS_DEFAULT = frozenset({Pos.NOUN, Pos.PROPN, Pos.NUM})

REASON_ALPHA = "alpha"
REASON_GAMMA_LOW = "gamma_low"
REASON_GAMMA_HIGH = "gamma_high"
REASON_ETA = "eta"

CHRF_MAX_ORDER = 6
CHRF_BETA = 2.0


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


REFERENCE = "reference translation"
SCORE = "external score"


class SpanTable(dict):
    """One talk's values keyed by source span (start, len): its reference
    translations, each a TextUnit (`noun` REFERENCE), or its external
    scores (SCORE), read from `path` (None when built in memory). A
    missing span is a ParseError naming the file."""

    def __init__(self, noun: str, talk_id: str, entries=(), path: str | None = None):
        super().__init__(entries)
        self.noun, self.talk_id, self.path = noun, talk_id, path

    def __missing__(self, span):
        raise ParseError(f"no {self.noun} for {self.talk_id} span "
                         f"(start={span[0]}, len={span[1]})", path=self.path)


@dataclass(frozen=True)
class FilterDecision:
    """The filter's judgement of one pair: kept exactly when `reasons` is empty."""

    pair: AlignedPair
    alpha: float
    gamma: float
    eta: float
    reasons: tuple[str, ...]


def _coverage(entry: TextUnit, f_text: str, coverage_pos) -> float:
    """Alpha: the fraction of T's content tokens whose surface occurs in F's
    text, 1.0 when T has none. T is the reference translation of E in the
    target language, so coverage is a same-language substring test."""
    content = [tok.surface for tok in entry.tokens if tok.pos in coverage_pos]
    if not content:
        return 1.0
    covered = sum(1 for surface in content if surface in f_text)
    return covered / len(content)


def chrf_scores(text_pairs) -> list[float]:
    """Character n-gram F-measure of each F against its reference T, for
    (F, T) pairs of normalized texts with their whitespace removed (the
    usual convention, and the right one for unsegmented scripts), as
    `apply_inter_filter` passes them. Precision and recall are averaged
    uniformly over orders 1..CHRF_MAX_ORDER, skipping orders where neither
    side has any n-gram; F is the CHRF_BETA-weighted harmonic mean.
    """
    texts = [text for pair in text_pairs for text in pair]
    matched = _matched_ngrams(texts)
    scores = []
    for k in range(len(texts) // 2):
        hyp_len, ref_len = len(texts[2 * k]), len(texts[2 * k + 1])
        if not hyp_len and not ref_len:
            scores.append(1.0)
            continue
        precisions, recalls = [], []
        for n in range(1, CHRF_MAX_ORDER + 1):
            hyp_total = max(hyp_len - n + 1, 0)
            ref_total = max(ref_len - n + 1, 0)
            if hyp_total == 0 and ref_total == 0:
                continue
            precisions.append(matched[n - 1][k] / hyp_total if hyp_total else 0.0)
            recalls.append(matched[n - 1][k] / ref_total if ref_total else 0.0)
        scores.append(_f_score(precisions, recalls))
    return scores


def _f_score(precisions: list[float], recalls: list[float]) -> float:
    if not precisions:
        return 0.0
    p = sum(precisions) / len(precisions)
    r = sum(recalls) / len(recalls)
    if p == 0.0 and r == 0.0:
        return 0.0
    b2 = CHRF_BETA * CHRF_BETA
    return (1 + b2) * p * r / (b2 * p + r)


def _matched_ngrams(texts: list[str]) -> list[list[int]]:
    """`matched[n - 1][k]`: the n-grams that texts 2k and 2k+1 share, each
    counted min(count in 2k, count in 2k+1) times.

    All texts are one code-point array. The id of the n-gram at a position
    is the rank of (id of its (n-1)-gram, its last code point) among those
    of the order, so ids stay dense and exact at any length. N-grams that
    run from one text into the next get ids too, but are not counted.
    """
    import numpy as np

    codes = np.frombuffer("".join(texts).encode("utf-32-le", "surrogatepass"), dtype="<u4")
    lengths = np.fromiter(map(len, texts), dtype=np.int64, count=len(texts))
    text_of = np.repeat(np.arange(len(texts)), lengths)
    room = np.cumsum(lengths)[text_of] - np.arange(len(codes))  # code points to the text's end
    symbols, first = np.unique(codes, return_inverse=True)
    ids = first
    matched = []
    for n in range(1, CHRF_MAX_ORDER + 1):
        if n > 1:
            ids = np.unique(ids[:-1] * len(symbols) + first[n - 1:], return_inverse=True)[1]
        within = room[:len(ids)] >= n
        keys, counts = np.unique((ids * len(texts) + text_of[:len(ids)])[within],
                                 return_counts=True)
        # an n-gram of both texts of a pair is two adjacent keys, the first even
        shared = (np.diff(keys) == 1) & (keys[:-1] % 2 == 0)
        pair_of = keys[:-1][shared] % len(texts) // 2
        mins = np.minimum(counts[:-1], counts[1:])[shared]
        matched.append(np.bincount(pair_of, weights=mins, minlength=len(texts) // 2)
                       .astype(np.int64).tolist())
    return matched


def apply_inter_filter(pairs, doc: DocumentPair, refs: SpanTable,
                       params: InterFilterParams, scores: SpanTable | None = None,
                       ) -> tuple[list[AlignedPair], list[FilterDecision]]:
    """Keep pairs passing all three thresholds; record a decision for each.

    Each pair's reference, and its external score when `scores` is given,
    is looked up in pair order, so a broken pair's error is that of the
    first one, with a missing reference found before a missing score.
    Without `scores`, eta is `chrf_scores` of all the pairs' (F, T) texts
    at once.
    """
    judged, texts, etas = [], [], []
    for pair in pairs:
        span = (pair.src_start, pair.src_len)
        entry, f_text = refs[span], doc.tgt_text(pair.tgt_start, pair.tgt_len)
        # F and T without whitespace, as unit texts are single-spaced: gamma is their length ratio
        f_bare, t_bare = f_text.replace(" ", ""), entry.text.replace(" ", "")
        judged.append((pair, _coverage(entry, f_text, params.coverage_pos),
                       len(f_bare) / len(t_bare)))
        if scores is None:
            texts.append((f_bare, t_bare))
        else:
            etas.append(scores[span])
    if scores is None:
        etas = chrf_scores(texts)
    kept, decisions = [], []
    for (pair, alpha, gamma), eta in zip(judged, etas):
        reasons = []
        if alpha < params.alpha_min:
            reasons.append(REASON_ALPHA)
        if gamma < params.gamma_min:
            reasons.append(REASON_GAMMA_LOW)
        elif gamma > params.gamma_max:
            reasons.append(REASON_GAMMA_HIGH)
        if eta < params.eta_min:
            reasons.append(REASON_ETA)
        if not reasons:
            kept.append(pair)
        decisions.append(FilterDecision(pair, alpha, gamma, eta, tuple(reasons)))
    return kept, decisions


def references_text(refs: SpanTable) -> str:
    """JSON Lines, one reference entry per row, ordered by source span."""
    return jsonl_text({
        "talk_id": refs.talk_id, "src_start": start, "src_len": length,
        "text": entry.text,
        "tokens": [[t.surface, t.pos.value] for t in entry.tokens],
    } for (start, length), entry in sorted(refs.items()))


def read_reference_jsonl(path, talk_id: str) -> SpanTable:
    """The entries of talk `talk_id` from its reference JSON Lines file; a
    row of another talk is a ValidationError naming its line, and a
    repeated span keeps its last row."""
    def row(obj) -> tuple[str, tuple[int, int], TextUnit]:
        if not isinstance(obj["talk_id"], str):
            raise TypeError(f"talk_id must be a string, got {obj['talk_id']!r}")
        span = (obj["src_start"], obj["src_len"])
        if not all(type(v) is int for v in span):
            raise TypeError(f"span fields must be ints: {span}")
        text = normalize_text(obj["text"])
        if not text:
            raise ValueError(f"empty reference text for span {span}")
        # a token row is a JSON list, made a tuple to serve as its own key
        tokens = tuple(map(TOKENS.__getitem__, map(tuple, obj["tokens"])))
        if not spelled_by(text, tokens):
            raise ValueError(f"token surfaces do not re-concatenate to the text of span {span}")
        return obj["talk_id"], span, TextUnit(text=text, tokens=tokens)

    def check(value) -> None:
        if value[0] != talk_id:
            raise ValidationError(f"reference of talk {value[0]!r} where {talk_id!r} was expected")

    return SpanTable(REFERENCE, talk_id,
                     {span: entry for _, span, entry in read_jsonl(path, row, check)},
                     path=str(path))


def read_external_scores(path) -> dict[str, SpanTable]:
    """TSV `talk_id<TAB>src_start<TAB>src_len<TAB>score`, one table per
    talk; a repeated span keeps its last row."""
    scores: dict[str, SpanTable] = {}
    for lineno, line in read_lines(path):
        if not line.strip():
            continue
        cols = line.split("\t")
        if len(cols) != 4:
            raise ParseError(f"expected 4 columns, got {len(cols)}", path=path, line=lineno)
        try:
            span, score = (int(cols[1]), int(cols[2])), float(cols[3])
        except ValueError as exc:
            raise ParseError(f"bad numeric field: {exc}", path=path, line=lineno) from exc
        if not math.isfinite(score):
            raise ParseError(f"non-finite score {cols[3]!r}", path=path, line=lineno)
        if cols[0] not in scores:
            scores[cols[0]] = SpanTable(SCORE, cols[0], path=str(path))
        scores[cols[0]][span] = score
    return scores


def decisions_text(talk_id: str, decisions, trims) -> str:
    """JSON Lines, one filter decision per row, in the given order, each
    with its pair's intra trims, given one tuple per decision in `trims`."""
    return jsonl_text({
        "talk_id": talk_id, **d.pair.span_row(),
        "alpha": d.alpha, "gamma": d.gamma, "eta": d.eta, "trims": list(t),
        "verdict": "drop" if d.reasons else "keep", "reasons": list(d.reasons),
    } for d, t in zip(decisions, trims))
