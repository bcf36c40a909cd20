"""Synthetic bilingual talks with gold alignments and controllable SI noise.

The source language is random token babble with POS tags; the target
language is a deterministic token-wise transliteration (content stems kept,
function words and the sentence marker mapped through a disjoint lexicon)
so a character-n-gram embedder sees real cross-lingual signal without any
neural model. Noise processes mirror the phenomena that make SI corpora
hard to align: omission, mistranslation, sentence splitting, sentence
merging, and content-free boundary fillers.
"""

from __future__ import annotations

import json
import logging
import math
import random
from dataclasses import dataclass

from .align import AlignmentSet, validate_alignment
from .corpus import AlignedPair, DocumentPair, Pos, Rank, TextUnit, Token, ValidationError
from .embeddings import EmbeddingProviderSpec
from .inter import REFERENCE, SpanTable

log = logging.getLogger(__name__)

# Letter inventories. Content tokens draw from a 16-letter set so the
# n-gram type space is large enough that unrelated sentences share little
# by chance; mistranslations, fillers, and target-side function words use a
# disjoint set so they share almost no n-grams with anything the source
# could produce.
_CONTENT_LETTERS = "abcdegikmnoprstu"
_NOISE_LETTERS = "fhjlvwxyz"

# Function scaffolding. Every sentence carries interleaved function words
# plus a constant sentence-final marker, and the target renders them through
# a lexicon sharing no surface with the source (as in a real language pair).
# That gives neighboring same-side sentences substantial shared n-gram mass
# while cross-language similarity stays content-driven, which is what keeps
# a DP aligner from treating one merged window as cheaper than two singleton
# links. Content words keep their stems under transliteration.
FUNCTION_WORDS = ("nota", "warim", "gazu", "tokin", "nimos", "dekor", "moru", "kana")
FUNCTION_MAP = dict(zip(FUNCTION_WORDS,
                        ("vxhf", "zjlwy", "wfyv", "jvwzh", "lzhxw", "fwxjl", "hjvl", "wlzf")))
MARKER_WORD = "munostabeki"
MARKER_MAP = "fwzhjlvxjwf"
FILLER_WORDS = ("fjyl", "wzxh", "vlfj", "hjzw", "xvfw")

FUNCTION_RATE = 0.30

_POS_CYCLE = (Pos.NOUN, Pos.VERB, Pos.NOUN, Pos.PROPN, Pos.NOUN, Pos.VERB, Pos.NUM, Pos.PRON)

PROV_CLEAN = "clean"
PROV_OMITTED = "omitted"
PROV_MISTRANSLATED = "mistranslated"
PROV_SPLIT = "split_part"
PROV_MERGED = "merged"
PROV_FILLER = "filler"


@dataclass(frozen=True)
class NoiseParams:
    omission_rate: float = 0.0
    mistranslation_rate: float = 0.0
    split_rate: float = 0.0
    merge_rate: float = 0.0
    filler_rate: float = 0.0
    rng_seed: int = 0

    def __post_init__(self):
        rates = (self.omission_rate, self.mistranslation_rate, self.split_rate,
                 self.merge_rate, self.filler_rate)
        if any(r < 0 or r > 1 for r in rates):
            raise ValidationError(f"noise rates must lie in [0,1]: {rates}")
        if math.fsum(rates) > 1:  # summed exactly, so rates that sum to 1 pass
            raise ValidationError("noise rates must sum to at most 1 (one transformation per sentence)")


MIN_VOCAB_SIZE = 50
# make_vocabulary draws distinct 5-7 letter words over the 16 _CONTENT_LETTERS
# until it has vocab_size, anew for each talk: past 16**5 + 16**6 + 16**7 it
# would never end, and long before that each talk would wait on it
MAX_VOCAB_SIZE = 1 << 16


@dataclass(frozen=True)
class SynthParams:
    """The `synth` config object: the corpus that `synth` writes and each
    `bench` setting generates."""

    talks: int = 5
    sentences: int = 40
    vocab_size: int = 200
    seed: int = 7

    def __post_init__(self):
        for key, least in (("talks", 1), ("sentences", 1), ("vocab_size", MIN_VOCAB_SIZE)):
            if getattr(self, key) < least:
                raise ValidationError(f"{key}: must be >= {least}, got {getattr(self, key)}")
        if self.vocab_size > MAX_VOCAB_SIZE:
            raise ValidationError(f"vocab_size: must be <= {MAX_VOCAB_SIZE}, got {self.vocab_size}")


@dataclass(frozen=True)
class GoldTalk:
    doc: DocumentPair
    gold: AlignmentSet
    provenance: tuple[str, ...]     # one tag per target unit


def _word(rng: random.Random, letters: str) -> str:
    return "".join(rng.choice(letters) for _ in range(rng.randint(5, 7)))


def make_vocabulary(vocab_size: int) -> tuple[Token, ...]:
    """Deterministic content vocabulary; depends only on vocab_size."""
    rng = random.Random(f"vocab:{vocab_size}")
    seen, vocab = set(), []
    while len(vocab) < vocab_size:
        surface = _word(rng, _CONTENT_LETTERS)
        if surface in seen or surface in FUNCTION_WORDS or surface == MARKER_WORD:
            continue
        seen.add(surface)
        vocab.append(Token(surface, _POS_CYCLE[len(vocab) % len(_POS_CYCLE)]))
    return tuple(vocab)


def transliterate(token: Token) -> Token:
    if token.surface == MARKER_WORD:
        return Token(MARKER_MAP, token.pos)
    mapped = FUNCTION_MAP.get(token.surface)
    if mapped is not None:
        return Token(mapped, token.pos)
    return Token(token.surface, token.pos)


def render_sentence(tokens) -> list[Token]:
    """Clean target rendering: transliterate every token, order preserved.

    Order is kept so cross-token n-grams stay shared; with reordering, the
    junction n-grams (about half the mass at orders 3..4) would all go
    unmatched and halve the embedder's usable signal.
    """
    return [transliterate(t) for t in tokens]


def _source_sentence(rng: random.Random, vocab) -> list[Token]:
    tokens = []
    for _ in range(rng.randint(7, 9)):
        tokens.append(vocab[rng.randrange(len(vocab))])
        if rng.random() < FUNCTION_RATE:
            tokens.append(Token(rng.choice(FUNCTION_WORDS), Pos.OTHER))
    tokens.append(Token(MARKER_WORD, Pos.OTHER))
    return tokens


def _noise_tokens(rng: random.Random, count: int) -> list[Token]:
    return [Token(_word(rng, _NOISE_LETTERS), _POS_CYCLE[i % len(_POS_CYCLE)])
            for i in range(count)]


def sample_transformations(m: int, noise: NoiseParams, seed) -> list[str]:
    """The per-sentence transformation stream.

    One uniform draw per sentence not consumed by a preceding merge, checked
    against cumulative rate intervals in a fixed order. A merge drawn at the
    final sentence falls back to clean. Kept standalone so tests can replay
    the sampling independently of text generation. The stream is keyed by
    both the talk seed and the NoiseParams rng_seed.
    """
    rng = random.Random(f"{seed}:{noise.rng_seed}:transform")
    tags: list[str | None] = [None] * m
    i = 0
    while i < m:
        u = rng.random()
        edges = (
            (noise.omission_rate, PROV_OMITTED),
            (noise.mistranslation_rate, PROV_MISTRANSLATED),
            (noise.split_rate, PROV_SPLIT),
            (noise.merge_rate, PROV_MERGED),
            (noise.filler_rate, PROV_FILLER),
        )
        tag = PROV_CLEAN
        cum = 0.0
        for rate, name in edges:
            cum += rate
            if u < cum:
                tag = name
                break
        if tag == PROV_MERGED and i == m - 1:
            tag = PROV_CLEAN
        tags[i] = tag
        if tag == PROV_MERGED:
            tags[i + 1] = "consumed"
            i += 2
        else:
            i += 1
    return tags


def _unit(tokens) -> TextUnit:
    return TextUnit(text=" ".join(t.surface for t in tokens), tokens=tuple(tokens))


def generate_talk(seed, m: int, noise: NoiseParams, vocab_size: int = 200,
                  talk_id: str | None = None) -> GoldTalk:
    """One synthetic talk with its gold alignment and per-chunk provenance."""
    vocab = make_vocabulary(vocab_size)
    rng_content = random.Random(f"{seed}:{noise.rng_seed}:content")
    rng_render = random.Random(f"{seed}:{noise.rng_seed}:render")
    rng_meta = random.Random(f"{seed}:{noise.rng_seed}:meta")
    sentences = [_source_sentence(rng_content, vocab) for _ in range(m)]
    tags = sample_transformations(m, noise, seed)

    src_units = [_unit(toks) for toks in sentences]
    tgt_units: list[TextUnit] = []
    provenance: list[str] = []
    links: list[AlignedPair] = []

    def emit(tokens, tag) -> None:
        tgt_units.append(_unit(tokens))
        provenance.append(tag)

    i = 0
    while i < m:
        tag, used = tags[i], 1
        t0 = len(tgt_units)
        if tag == PROV_MISTRANSLATED:
            emit(_noise_tokens(rng_render, rng_render.randint(5, 9)), PROV_MISTRANSLATED)
        elif tag == PROV_SPLIT:
            rendering = render_sentence(sentences[i])
            k = rng_render.randint(2, 3)
            cuts = sorted(rng_render.sample(range(1, len(rendering)), k - 1))
            for a, b in zip([0] + cuts, cuts + [len(rendering)]):
                emit(rendering[a:b], PROV_SPLIT)
        elif tag == PROV_MERGED:
            emit(render_sentence(sentences[i]) + render_sentence(sentences[i + 1]), PROV_MERGED)
            used = 2
        elif tag == PROV_FILLER:
            # the sentence trails off: the two tokens before its closing
            # marker spill into a trailing chunk opened by a filler word,
            # all tagged non-content like any disfluency
            rendering = render_sentence(sentences[i])
            spill = rendering[-3:-1]
            emit(rendering[:-3] + rendering[-1:], PROV_CLEAN)
            filler = [Token(rng_render.choice(FILLER_WORDS), Pos.OTHER)]
            filler += [Token(t.surface, Pos.OTHER) for t in spill]
            emit(filler, PROV_FILLER)
        elif tag != PROV_OMITTED:
            emit(render_sentence(sentences[i]), PROV_CLEAN)
        # an omitted sentence links to the empty target span at t0
        links.append(AlignedPair(i, used, t0, len(tgt_units) - t0, 0.0))
        i += used

    rank = rng_meta.choice((Rank.S, Rank.A, Rank.B))
    doc = DocumentPair(
        talk_id=talk_id or f"synth{seed}",
        interpreter_rank=rank,
        source_units=tuple(src_units),
        target_units=tuple(tgt_units),
    )
    gold = AlignmentSet(talk_id=doc.talk_id, links=tuple(links), total_cost=0.0)
    validate_alignment(gold, m, len(tgt_units))
    return GoldTalk(doc=doc, gold=gold, provenance=tuple(provenance))


def corpus_talk(base_seed: int, index: int, m: int, noise: NoiseParams,
                vocab_size: int = 200) -> GoldTalk:
    """Talk `index` of the corpus generated from `base_seed`."""
    return generate_talk(base_seed * 1_000_003 + index, m, noise, vocab_size,
                         talk_id=f"talk{index:04d}")


def generate_corpus(base_seed: int, n_talks: int, m: int, noise: NoiseParams,
                    vocab_size: int = 200) -> list[GoldTalk]:
    return [corpus_talk(base_seed, index, m, noise, vocab_size) for index in range(n_talks)]


def build_reference(doc: DocumentPair, max_src_len: int):
    """Perfect offline translations for every source window up to max_src_len.

    The reference for a span is the clean rendering of its sentences, which
    is what an ideal translation service would return for this language; it
    covers any span a coarse aligner might produce within its span limits.
    """
    per_sentence = [render_sentence(unit.tokens) for unit in doc.source_units]
    entries = {}
    m = len(doc.source_units)
    for length in range(1, max_src_len + 1):
        for start in range(0, m - length + 1):
            tokens = [t for k in range(start, start + length) for t in per_sentence[k]]
            entries[(start, length)] = _unit(tokens)
    return SpanTable(REFERENCE, doc.talk_id, entries)


def provenance_text(talk: GoldTalk) -> str:
    """One JSON list of per-target-unit provenance tags."""
    return json.dumps(list(talk.provenance), ensure_ascii=False) + "\n"


@dataclass(frozen=True)
class ScoreTriple:
    precision: float
    recall: float
    f1: float


def score_alignment(pred: AlignmentSet, gold: AlignmentSet) -> ScoreTriple:
    """Precision/recall/F1 of kept links over gold links, exact-span matching.

    Only links with both spans non-empty count on either side; degenerate
    denominators report 0.
    """
    if pred.talk_id != gold.talk_id:
        raise ValidationError(f"talk mismatch: {pred.talk_id!r} vs {gold.talk_id!r}")
    pred_keys = {l.key() for l in pred.kept() if not l.src_empty and not l.tgt_empty}
    gold_keys = {l.key() for l in gold.kept() if not l.src_empty and not l.tgt_empty}
    hits = len(pred_keys & gold_keys)
    precision = hits / len(pred_keys) if pred_keys else 0.0
    recall = hits / len(gold_keys) if gold_keys else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return ScoreTriple(precision, recall, f1)


# Benchmark profile: wider vectors and longer n-grams than the module
# defaults keep hash-collision noise and chance bigram overlap out of the
# DP margins on babble text.
BENCH_EMBED = EmbeddingProviderSpec(dim=2048, orders=(3, 4), seed=17)


def mean_score(scores) -> ScoreTriple:
    """Mean link precision/recall/F1 over the talks of one setting."""
    n = len(scores)
    return ScoreTriple(
        precision=sum(s.precision for s in scores) / n,
        recall=sum(s.recall for s in scores) / n,
        f1=sum(s.f1 for s in scores) / n,
    )


def bench_text(rows) -> str:
    """bench.tsv from (noise, talk count, mean scores) rows, one per setting."""
    lines = ["omission_rate\tmistranslation_rate\tsplit_rate\tmerge_rate\tfiller_rate"
             "\ttalks\tprecision\trecall\tf1"]
    for noise, n_talks, triple in rows:
        lines.append("\t".join((
            f"{noise.omission_rate:g}", f"{noise.mistranslation_rate:g}",
            f"{noise.split_rate:g}", f"{noise.merge_rate:g}", f"{noise.filler_rate:g}",
            str(n_talks),
            f"{triple.precision:.4f}", f"{triple.recall:.4f}", f"{triple.f1:.4f}",
        )))
    return "\n".join(lines) + "\n"
