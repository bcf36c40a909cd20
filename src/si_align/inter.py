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

import numpy as np

from .corpus import (AlignedPair, DocumentPair, ParseError, Pos, Token, ValidationError,
                     char_len, jsonl_text, normalize_text, pos_named, read_jsonl, read_lines)

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

    def __reduce__(self):
        # rebuilt from the constructor's arguments, so a `--jobs` worker can send it back
        return type(self), self.span


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


def _coverage(entry: RefEntry, f_text: str, coverage_pos) -> float:
    """Alpha: the fraction of T's content tokens whose surface occurs in F's
    text, 1.0 when T has none. T is the reference translation of E in the
    target language, so coverage is a same-language substring test."""
    content = [tok.surface for tok in entry.tokens if tok.pos in coverage_pos]
    if not content:
        return 1.0
    covered = sum(1 for surface in content if surface in f_text)
    return covered / len(content)


def _length_ratio(pair: AlignedPair, entry: RefEntry, f_text: str, talk_id: str) -> float:
    """Gamma: char_len(F) / char_len(T), whitespace excluded on both sides."""
    t_len = char_len(entry.text)
    if t_len == 0:
        raise ValidationError(
            f"{talk_id}: empty reference text for span ({pair.src_start}, {pair.src_len})")
    return char_len(f_text) / t_len


def chrf_scores(text_pairs) -> list[float]:
    """Character n-gram F-measure of each F against its reference T, for
    (F, T) pairs.

    Whitespace is removed before n-gram extraction (the usual convention,
    and the right one for unsegmented scripts). Precision and recall are
    averaged uniformly over orders 1..CHRF_MAX_ORDER, skipping orders where
    neither side has any n-gram; F is the CHRF_BETA-weighted harmonic mean.
    """
    texts = ["".join(normalize_text(text).split()) for pair in text_pairs for text in pair]
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


class BuiltinScorer:
    """Deterministic chrF-style scorer; the hermetic default."""

    def scores(self, talk_id: str, spans, text_pairs) -> list[float]:
        return chrf_scores(text_pairs)


class ExternalScorer:
    """Scores precomputed by a learned metric, keyed by source span."""

    def __init__(self, scores: dict[tuple[str, int, int], float]):
        self._scores = scores

    def scores(self, talk_id: str, spans, text_pairs) -> list[float]:
        out = []
        for start, length in spans:
            key = (talk_id, start, length)
            if key not in self._scores:
                raise MissingReferenceError(talk_id, start, length)
            out.append(self._scores[key])
        return out


def apply_inter_filter(pairs, doc: DocumentPair, ref: ReferenceTranslation,
                       params: InterFilterParams, scorer=None,
                       trims_by_pair: dict | None = None,
                       ) -> tuple[list[AlignedPair], list[FilterDecision]]:
    """Keep pairs passing all three thresholds; record a decision for each.

    A scorer scores all pairs of the talk at once: `scores(talk_id, spans,
    text_pairs)` with each pair's source span and (F, T) texts. When pairs
    are broken, the error is that of the first one in pair order, with a
    missing or empty reference found before a missing score.
    """
    if scorer is None:
        scorer = BuiltinScorer()
    trims_by_pair = trims_by_pair or {}
    resolved, broken = [], None
    for pair in pairs:
        try:
            entry = ref.entry(pair.src_start, pair.src_len)
            f_text = doc.tgt_text(pair.tgt_start, pair.tgt_len)
            resolved.append((pair, entry, f_text,
                             _coverage(entry, f_text, params.coverage_pos),
                             _length_ratio(pair, entry, f_text, ref.talk_id)))
        except (MissingReferenceError, ValidationError) as exc:
            broken = exc
            break
    etas = scorer.scores(doc.talk_id, [(pair.src_start, pair.src_len) for pair, *_ in resolved],
                         [(f_text, entry.text) for _, entry, f_text, *_ in resolved])
    if broken is not None:
        raise broken
    kept, decisions = [], []
    for (pair, _, _, alpha, gamma), eta in zip(resolved, etas):
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
    return jsonl_text({
        "talk_id": ref.talk_id, "src_start": start, "src_len": length,
        "text": entry.text,
        "tokens": [[t.surface, t.pos.value] for t in entry.tokens],
    } for (start, length), entry in sorted(ref.entries.items()))


class _TokenTable(dict):
    """(surface, tag) -> Token, each built on first use; Token is frozen."""

    def __missing__(self, key):
        surface, tag = key
        if not isinstance(surface, str):
            raise TypeError(f"token surface must be a string, got {surface!r}")
        token = self[key] = Token(surface, pos_named(tag))
        return token


def read_reference_jsonl(path, talk_id: str | None = None) -> ReferenceTranslation:
    """Entries of `talk_id` (by default the first row's talk) from reference JSON Lines."""
    tokens = _TokenTable()

    def row(obj) -> tuple[str, tuple[int, int], RefEntry]:
        span = (obj["src_start"], obj["src_len"])
        if not all(type(v) is int for v in span):
            raise TypeError(f"span fields must be ints: {span}")
        # a token row is a JSON list, made a tuple to serve as its own key
        entry = RefEntry(text=normalize_text(obj["text"]),
                         tokens=tuple(map(tokens.__getitem__, map(tuple, obj["tokens"]))))
        return str(obj["talk_id"]), span, entry

    entries: dict[tuple[int, int], RefEntry] = {}
    for row_talk, span, entry in read_jsonl(path, row):
        if talk_id is None:
            talk_id = row_talk
        if row_talk == talk_id:
            entries[span] = entry
    return ReferenceTranslation(talk_id=talk_id or "", entries=entries)


def read_external_scores(path) -> ExternalScorer:
    """TSV `talk_id<TAB>src_start<TAB>src_len<TAB>score`."""
    scores: dict[tuple[str, int, int], float] = {}
    for lineno, line in read_lines(path):
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
    return jsonl_text({
        "talk_id": d.talk_id,
        "src_start": d.src_start, "src_len": d.src_len,
        "tgt_start": d.tgt_start, "tgt_len": d.tgt_len,
        "alpha": d.alpha, "gamma": d.gamma, "eta": d.eta,
        "trims": list(d.trims),
        "verdict": d.verdict, "reasons": list(d.reasons),
    } for d in decisions)
