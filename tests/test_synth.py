import random
from collections import Counter

import pytest

from si_align.align import AlignmentSet, links_text, validate_alignment
from si_align.corpus import (MANIFEST_NAME, AlignedPair, ValidationError,
                             load_document_pair, read_manifest, talk_texts)
from si_align.inter import InterFilterParams, apply_inter_filter
from si_align.intra import has_content_word, CONTENT_POS_DEFAULT
from si_align.synth import (NoiseParams, build_reference,
                            generate_corpus, generate_talk,
                            sample_transformations, score_alignment)

from oracles import run_bench_setting


def test_noise_params_validation():
    with pytest.raises(ValidationError):
        NoiseParams(omission_rate=-0.1)
    with pytest.raises(ValidationError):
        NoiseParams(split_rate=0.6, merge_rate=0.6)
    with pytest.raises(ValidationError):
        NoiseParams(omission_rate=0.4, mistranslation_rate=0.4, filler_rate=0.4)
    NoiseParams(omission_rate=0.1, split_rate=0.2)


def test_noise_rates_summing_to_one_accepted():
    """The rates are summed exactly: a set that sums to 1 loads although its
    float sum is above 1, and a set that sums to 1.05 is still refused."""
    rates = {"omission_rate": 0.2, "mistranslation_rate": 0.4, "split_rate": 0.3,
             "merge_rate": 0.1}
    assert sum(rates.values()) > 1
    noise = NoiseParams(**rates)
    assert len(generate_talk(5, m=12, noise=noise, vocab_size=100).doc.source_units) == 12
    with pytest.raises(ValidationError, match="sum to at most 1"):
        NoiseParams(**rates, filler_rate=0.05)


def test_all_rates_zero_clean_one_to_one():
    talk = generate_talk(3, m=12, noise=NoiseParams(), vocab_size=100)
    assert len(talk.doc.target_units) == 12
    assert all(l.key() == (i, 1, i, 1) for i, l in enumerate(talk.gold.links))
    assert all(tag == "clean" for tag in talk.provenance)


def test_omission_rate_one_no_gold_links():
    talk = generate_talk(4, m=10, noise=NoiseParams(omission_rate=1.0), vocab_size=100)
    assert len(talk.doc.target_units) == 0
    assert all(l.tgt_empty for l in talk.gold.links)
    assert talk.provenance == ()


def sampler_oracle(m, noise, seed):
    """Independent replay of the documented transformation protocol: one
    uniform draw per non-consumed sentence, cumulative intervals in order
    omission, mistranslation, split, merge, filler; merge at the last
    sentence falls back to clean and consumes the next sentence otherwise.
    The stream is keyed by the talk seed and the NoiseParams rng_seed."""
    rng = random.Random(f"{seed}:{noise.rng_seed}:transform")
    tags = []
    i = 0
    while i < m:
        u = rng.random()
        cum = 0.0
        tag = "clean"
        for rate, name in ((noise.omission_rate, "omitted"),
                           (noise.mistranslation_rate, "mistranslated"),
                           (noise.split_rate, "split_part"),
                           (noise.merge_rate, "merged"),
                           (noise.filler_rate, "filler")):
            cum += rate
            if u < cum:
                tag = name
                break
        if tag == "merged" and i == m - 1:
            tag = "clean"
        tags.append(tag)
        if tag == "merged":
            tags.append("consumed")
            i += 2
        else:
            i += 1
    return tags


def test_transformation_histogram_matches_replay():
    noise = NoiseParams(omission_rate=0.1, mistranslation_rate=0.1, split_rate=0.2,
                        merge_rate=0.1, filler_rate=0.2)
    got = sample_transformations(40, noise, 42)
    assert got == sampler_oracle(40, noise, 42)
    talk = generate_talk(42, m=40, noise=noise, vocab_size=200)
    histogram = Counter(talk.provenance)
    oracle_tags = Counter(sampler_oracle(40, noise, 42))
    # each tag implies a known number of target chunks
    assert histogram["mistranslated"] == oracle_tags["mistranslated"]
    assert histogram["merged"] == oracle_tags["merged"]
    assert histogram["filler"] == oracle_tags["filler"]
    split_links = [l for l in talk.gold.links
                   if not l.tgt_empty and l.tgt_len > 1 and l.src_len == 1]
    # filler hosts are 1-2 links too; identify splits via provenance
    n_split_chunks = histogram["split_part"]
    assert oracle_tags["split_part"] * 2 <= n_split_chunks <= oracle_tags["split_part"] * 3
    deletions = sum(1 for l in talk.gold.links if l.tgt_empty)
    assert deletions == oracle_tags["omitted"]


def test_gold_alignment_always_valid(tmp_path):
    rng = random.Random(1)
    for i in range(20):
        noise = NoiseParams(
            omission_rate=rng.uniform(0, 0.2), mistranslation_rate=rng.uniform(0, 0.2),
            split_rate=rng.uniform(0, 0.3), merge_rate=rng.uniform(0, 0.2),
            filler_rate=rng.uniform(0, 0.2))
        talk = generate_talk(rng.randrange(10_000), m=rng.randint(1, 30),
                             noise=noise, vocab_size=80)
        validate_alignment(talk.gold, len(talk.doc.source_units),
                           len(talk.doc.target_units))
        assert len(talk.provenance) == len(talk.doc.target_units)
        if talk.doc.target_units:  # the loader rejects an empty side
            talk_dir = tmp_path / f"talk{i}"
            talk_dir.mkdir()
            for name, text in talk_texts(talk.doc).items():
                (talk_dir / name).write_text(text, encoding="utf-8")
            assert load_document_pair(read_manifest(talk_dir / MANIFEST_NAME)) == talk.doc


def test_filler_chunks_are_content_free():
    talk = generate_talk(9, m=30, noise=NoiseParams(filler_rate=0.5), vocab_size=100)
    fillers = [u for u, tag in zip(talk.doc.target_units, talk.provenance)
               if tag == "filler"]
    assert fillers
    assert all(not has_content_word(u, CONTENT_POS_DEFAULT) for u in fillers)


def test_determinism_byte_identical(tmp_path):
    noise = NoiseParams(omission_rate=0.1, split_rate=0.2, filler_rate=0.1)
    a = generate_talk(77, m=25, noise=noise, vocab_size=120)
    b = generate_talk(77, m=25, noise=noise, vocab_size=120)
    assert a == b
    pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    pa.write_text(links_text(a.gold.talk_id, a.gold.links), encoding="utf-8")
    pb.write_text(links_text(b.gold.talk_id, b.gold.links), encoding="utf-8")
    assert pa.read_bytes() == pb.read_bytes()
    corpus_a = generate_corpus(5, 3, 10, noise)
    corpus_b = generate_corpus(5, 3, 10, noise)
    assert corpus_a == corpus_b


def test_score_perfect():
    talk = generate_talk(2, m=8, noise=NoiseParams(), vocab_size=100)
    triple = score_alignment(talk.gold, talk.gold)
    assert (triple.precision, triple.recall, triple.f1) == (1.0, 1.0, 1.0)


def test_score_empty_prediction():
    talk = generate_talk(2, m=8, noise=NoiseParams(), vocab_size=100)
    empty = AlignmentSet(talk_id=talk.doc.talk_id,
                         links=(AlignedPair(0, 8, 0, 8, 0.0, dropped=True,
                                            drop_reason="cost"),),
                         total_cost=0.0)
    triple = score_alignment(empty, talk.gold)
    assert (triple.precision, triple.recall, triple.f1) == (0.0, 0.0, 0.0)


def test_score_hand_computed_recall():
    gold_links = tuple(AlignedPair(i, 1, i, 1, 0.0) for i in range(10))
    gold = AlignmentSet(talk_id="t", links=gold_links, total_cost=0.0)
    pred_links = tuple(AlignedPair(i, 1, i, 1, 0.0) for i in range(8))
    pred = AlignmentSet(talk_id="t", links=pred_links, total_cost=0.0)
    triple = score_alignment(pred, gold)
    assert triple.precision == 1.0
    assert triple.recall == pytest.approx(0.8)
    assert triple.f1 == pytest.approx(2 * 0.8 / 1.8, abs=1e-9)


def test_score_talk_mismatch():
    a = generate_talk(1, m=3, noise=NoiseParams(), vocab_size=100)
    b = generate_talk(2, m=3, noise=NoiseParams(), vocab_size=100)
    with pytest.raises(ValidationError):
        score_alignment(a.gold, b.gold)


def test_reference_covers_all_windows_and_matches_clean_pairs():
    talk = generate_talk(11, m=6, noise=NoiseParams(), vocab_size=100)
    ref = build_reference(talk.doc, max_src_len=3)
    assert set(ref) == {(s, l) for l in (1, 2, 3) for s in range(6 - l + 1)}
    # on a clean talk the reference for (i, 1) equals the target chunk text
    for i in range(6):
        assert ref[(i, 1)].text == talk.doc.target_units[i].text


def test_inter_filter_drops_mistranslations_via_reference():
    noise = NoiseParams(mistranslation_rate=0.35)
    talk = generate_talk(21, m=20, noise=noise, vocab_size=150)
    ref = build_reference(talk.doc, max_src_len=2)
    pairs = [l for l in talk.gold.links if not l.tgt_empty and not l.src_empty
             and l.src_len <= 2]
    kept, decisions = apply_inter_filter(pairs, talk.doc, ref, InterFilterParams())
    mistranslated = {l.key() for l in pairs
                     if talk.provenance[l.tgt_start] == "mistranslated"}
    kept_keys = {p.key() for p in kept}
    assert mistranslated and not (mistranslated & kept_keys)
    clean_keys = {l.key() for l in pairs if talk.provenance[l.tgt_start] == "clean"}
    assert clean_keys <= kept_keys


def test_bench_runs_and_scores_degrade():
    clean = run_bench_setting(50, 6, 25, NoiseParams())
    noisy = run_bench_setting(50, 6, 25,
                              NoiseParams(omission_rate=0.25, mistranslation_rate=0.25))
    assert clean.f1 > noisy.f1
    assert 0.0 <= noisy.f1 <= 1.0
