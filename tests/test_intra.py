import random

import pytest

from si_align.corpus import AlignedPair, Pos, ValidationError
from si_align.intra import (CONTENT_POS_DEFAULT, IntraFilterParams,
                            has_content_word, trim_boundaries)

from conftest import doc, unit

FILLER = [Pos.OTHER, Pos.OTHER]
CONTENT = [Pos.NOUN, Pos.OTHER]


def chunk_doc(chunk_tags, talk_id="t0"):
    """One source unit, one target chunk per tag spec ('c' content, 'f' filler)."""
    texts = []
    tags = []
    for i, kind in enumerate(chunk_tags):
        texts.append(f"w{i}a w{i}b")
        tags.append(CONTENT if kind == "c" else FILLER)
    return doc(["src sentence"], texts, talk_id=talk_id, tgt_tags=tags)


def pair_over(document):
    return AlignedPair(0, 1, 0, len(document.target_units), 0.0)


def test_has_content_word():
    assert has_content_word(unit("kamo", [Pos.NOUN]), CONTENT_POS_DEFAULT)
    assert not has_content_word(unit("jaa maa", FILLER), CONTENT_POS_DEFAULT)


def test_filler_particle_is_trimmable():
    filler = unit("じゃあ", [Pos.OTHER])
    assert not has_content_word(filler, CONTENT_POS_DEFAULT)


def test_all_content_unchanged():
    document = chunk_doc("ccc")
    result = trim_boundaries(pair_over(document), document, IntraFilterParams())
    assert result.pair == pair_over(document)
    assert result.trims == () and not result.flagged


def test_both_boundaries_fire():
    document = chunk_doc("fcf")
    result = trim_boundaries(pair_over(document), document, IntraFilterParams())
    assert (result.pair.tgt_start, result.pair.tgt_len) == (1, 1)
    assert result.trims == ("begin:1", "end:1")
    assert not result.flagged


def test_single_pure_filler_guarded_and_flagged():
    document = chunk_doc("f")
    result = trim_boundaries(pair_over(document), document, IntraFilterParams())
    assert result.pair == pair_over(document)
    assert result.flagged


def test_run_longer_than_budget_left_intact():
    document = chunk_doc("ffc")
    result = trim_boundaries(pair_over(document), document,
                             IntraFilterParams(max_trims_per_side=1))
    assert result.pair == pair_over(document)
    assert result.flagged
    wide = trim_boundaries(pair_over(document), document,
                           IntraFilterParams(max_trims_per_side=2))
    assert (wide.pair.tgt_start, wide.pair.tgt_len) == (2, 1)
    assert not wide.flagged


def test_all_filler_span_never_emptied():
    document = chunk_doc("fff")
    result = trim_boundaries(pair_over(document), document,
                             IntraFilterParams(max_trims_per_side=3))
    assert result.pair == pair_over(document)
    assert result.flagged


def random_pair_and_doc(rng):
    n = rng.randint(1, 8)
    kinds = "".join(rng.choice("cf") for _ in range(n))
    document = chunk_doc(kinds, talk_id=f"r{rng.random()}")
    start = rng.randint(0, n - 1)
    length = rng.randint(1, n - start)
    return AlignedPair(0, 1, start, length, 0.0), document


def test_idempotence_on_random_pairs():
    rng = random.Random(808)
    params = IntraFilterParams()
    for _ in range(1000):
        pair, document = random_pair_and_doc(rng)
        once = trim_boundaries(pair, document, params)
        twice = trim_boundaries(once.pair, document, params)
        assert twice.pair == once.pair


def test_output_is_contiguous_subspan():
    rng = random.Random(809)
    params = IntraFilterParams(max_trims_per_side=2)
    for _ in range(500):
        pair, document = random_pair_and_doc(rng)
        out = trim_boundaries(pair, document, params).pair
        assert out.tgt_start >= pair.tgt_start
        assert out.tgt_start + out.tgt_len <= pair.tgt_start + pair.tgt_len
        assert out.tgt_len >= 1
        assert (out.src_start, out.src_len) == (pair.src_start, pair.src_len)


def test_post_trim_boundary_guarantee():
    rng = random.Random(810)
    params = IntraFilterParams()
    for _ in range(500):
        pair, document = random_pair_and_doc(rng)
        result = trim_boundaries(pair, document, params)
        units = document.target_units[
            result.pair.tgt_start : result.pair.tgt_start + result.pair.tgt_len]
        boundary_ok = (has_content_word(units[0], params.content_pos)
                       and has_content_word(units[-1], params.content_pos))
        assert boundary_ok or result.pair.tgt_len == 1 or result.flagged


def test_empty_target_span_rejected():
    """The intra filter trims pairs of two non-empty spans only: an empty
    target span is refused, and so is an empty source span."""
    document = chunk_doc("c")
    for pair in (AlignedPair(0, 1, 0, 0, 0.0), AlignedPair(0, 0, 0, 1, 0.0)):
        with pytest.raises(ValidationError, match="intra filter needs two non-empty spans"):
            trim_boundaries(pair, document, IntraFilterParams())


def test_params_validation():
    with pytest.raises(ValidationError):
        IntraFilterParams(content_pos=frozenset())
