import json
import random
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from si_align.align import (AlignParams, AlignmentSet, dp_align, links_text,
                            normalization_denominator, prune, validate_alignment,
                            read_alignment_jsonl)
from si_align.corpus import (TALK_FILES, AlignedPair, DocumentPair, ParseError, Rank,
                             ValidationError, read_manifest)
from si_align.embeddings import (EmbeddingProviderSpec, EmbeddingTable, SOURCE, TARGET,
                                 build_fallback_table)
from si_align.intra import read_trims

from conftest import doc, unit


from oracles import (cosine, exhaustive_best, fallback_embed, link_cost, random_instance,
                     reference_denominator, reference_dp_align, step_cost_table, window_vector)


def basis_table(src_ids, tgt_ids, dim=64, max_window=3, unit_vectors=None):
    """Table whose window vector is the normalized sum of per-unit vectors,
    row `i % dim` of `unit_vectors`. The default basis vectors give exactly
    controllable cosines."""
    if unit_vectors is None:
        unit_vectors = np.eye(dim)

    def vec(ids):
        v = np.zeros(dim)
        for i in ids:
            v += unit_vectors[i % dim]
        return v / np.linalg.norm(v)

    # rows in table order: source before target, then by window length, then by start
    rows = [vec(ids[start:start + w]) for ids in (src_ids, tgt_ids)
            for w in range(1, max_window + 1) for start in range(len(ids) - w + 1)]
    return EmbeddingTable(n_source_units=len(src_ids), n_target_units=len(tgt_ids),
                          max_src_window=max_window, max_tgt_window=max_window,
                          entries=np.array(rows))


# ---------------------------------------------------------------------------
# normalization_denominator

def test_denominator_floor_when_identical():
    table = basis_table([1, 1, 1], [1, 1])
    assert normalization_denominator(table, 50, seed=0) == pytest.approx(1e-6)


def test_denominator_orthogonal_is_one():
    table = basis_table([0, 1, 2], [3, 4, 5])
    assert normalization_denominator(table, 100, seed=1) == pytest.approx(1.0, abs=1e-9)


def test_denominator_matches_seeded_replay():
    rng0 = random.Random(99)
    src_ids = [rng0.randrange(8) for _ in range(6)]
    tgt_ids = [rng0.randrange(8) for _ in range(5)]
    table = basis_table(src_ids, tgt_ids)
    got = normalization_denominator(table, 100, seed=7)
    assert float.hex(got) == float.hex(reference_denominator(table, 100, seed=7))


# ---------------------------------------------------------------------------
# link_cost

def test_identical_singletons_cost_zero():
    params = EmbeddingProviderSpec()
    v = fallback_embed("same text", params)
    table = EmbeddingTable(n_source_units=1, n_target_units=1,
                           max_src_window=1, max_tgt_window=1, entries=np.stack([v, v]))
    assert link_cost((0, 1), (0, 1), table, denom=0.9, skip_penalty=0.5) == \
        pytest.approx(0.0, abs=1e-9)


def test_skip_cost_is_penalty_times_size():
    table = basis_table([0], [1])
    assert link_cost((0, 0), (0, 1), table, denom=1.0, skip_penalty=0.6) == 0.6
    assert link_cost((0, 1), (0, 0), table, denom=1.0, skip_penalty=0.6) == 0.6


def test_merge_link_cost_hand_computed():
    table = basis_table([0, 1], [0, 2], max_window=2)
    denom = 0.8
    sim = cosine(window_vector(table, SOURCE, 0, 1), window_vector(table, TARGET, 0, 2))
    expected = (1.0 - sim) / denom * 1.5
    assert link_cost((0, 1), (0, 2), table, denom, 0.5) == pytest.approx(expected, abs=1e-12)


def test_link_cost_span_exceeds_window():
    table = basis_table([0, 1], [2], max_window=1)
    with pytest.raises(Exception):
        link_cost((0, 2), (0, 1), table, 1.0, 0.5)


# ---------------------------------------------------------------------------
# dp_align

def _perfect_doc_and_table(n=4):
    texts = [f"unit number {i} kamo" for i in range(n)]
    document = doc(texts, texts, talk_id="perfect")
    table = build_fallback_table(document, EmbeddingProviderSpec(), 3, 3)
    return document, table


def test_perfect_match_all_one_to_one():
    document, table = _perfect_doc_and_table()
    result = dp_align(document, table, AlignParams(max_src_span=3, max_tgt_span=3))
    assert [l.key() for l in result.links] == [(i, 1, i, 1) for i in range(4)]
    assert result.total_cost == pytest.approx(0.0, abs=1e-9)


def test_empty_target_forces_deletions():
    document = DocumentPair("edge", Rank.UNKNOWN,
                            tuple(unit(f"u{i}") for i in range(3)), ())
    table = build_fallback_table(document, EmbeddingProviderSpec(), 2, 2)
    params = AlignParams(max_src_span=2, max_tgt_span=2, skip_penalty=0.7)
    result = dp_align(document, table, params)
    assert len(result.links) == 3
    assert all(l.tgt_empty and l.src_len == 1 for l in result.links)
    assert result.total_cost == pytest.approx(3 * 0.7, abs=1e-12)


def test_dp_matches_exhaustive_oracle():
    rng = random.Random(424)
    params = AlignParams(max_src_span=3, max_tgt_span=3)
    for _ in range(30):
        document, table = random_instance(rng)
        denom = normalization_denominator(table, params.norm_sample_size, params.rng_seed)
        got = dp_align(document, table, params)
        m, n = len(document.source_units), len(document.target_units)
        costs = step_cost_table(table, params, denom, m, n)
        best, links, unique = exhaustive_best(m, n, params, costs)
        assert got.total_cost == pytest.approx(best, abs=1e-9)
        if unique:
            assert [(l.src_start, l.src_len, l.tgt_start, l.tgt_len)
                    for l in got.links] == links


def test_dp_invariants_and_skip_bound():
    rng = random.Random(77)
    params = AlignParams(max_src_span=3, max_tgt_span=3)
    for _ in range(25):
        document, table = random_instance(rng)
        result = dp_align(document, table, params)
        m, n = len(document.source_units), len(document.target_units)
        validate_alignment(result, m, n)
        assert result.total_cost <= params.skip_penalty * (m + n) + 1e-9


def test_dp_deterministic_serialization(tmp_path):
    rng = random.Random(5)
    document, table = random_instance(rng)
    params = AlignParams(max_src_span=3, max_tgt_span=3)
    a = dp_align(document, table, params)
    b = dp_align(document, table, params)
    pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    pa.write_text(links_text(a.talk_id, a.links), encoding="utf-8")
    pb.write_text(links_text(b.talk_id, b.links), encoding="utf-8")
    assert pa.read_bytes() == pb.read_bytes()


@st.composite
def tie_prone_instances(draw):
    """0..9 units a side drawn from a few unit ids, each window's vector the
    normalized sum of its units' vectors, so duplicate rows are common. The
    unit vectors are basis vectors, or dense ones so that sums round; span
    limits 1..4; a skip penalty that is often exactly a link's step or half
    of one, so skips and links tie."""
    unit_ids = st.lists(st.integers(0, draw(st.integers(0, 7))), max_size=9)
    src_ids, tgt_ids = draw(unit_ids), draw(unit_ids)
    document = doc([f"u{i}" for i in src_ids], [f"u{i}" for i in tgt_ids], talk_id="ties")
    unit_vectors = None
    if draw(st.booleans()):
        unit_vectors = np.random.default_rng(draw(st.integers(0, 1 << 16))).normal(size=(8, 8))
    table = basis_table(src_ids, tgt_ids, dim=8, max_window=4, unit_vectors=unit_vectors)
    max_a, max_b = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    sample_size, seed = draw(st.integers(1, 300)), draw(st.integers(0, 1 << 16))
    skip = draw(st.sampled_from([0.0, 0.25, 0.5, 0.7]))
    if src_ids and tgt_ids and draw(st.booleans()):
        a = draw(st.integers(1, min(max_a, len(src_ids))))
        b = draw(st.integers(1, min(max_b, len(tgt_ids))))
        i = draw(st.integers(0, len(src_ids) - a))
        j = draw(st.integers(0, len(tgt_ids) - b))
        cos = cosine(window_vector(table, SOURCE, i, a), window_vector(table, TARGET, j, b))
        step = (1.0 - cos) / reference_denominator(table, sample_size, seed) * (a + b) / 2.0
        skip = step / draw(st.sampled_from([1.0, 2.0]))
    params = AlignParams(max_src_span=max_a, max_tgt_span=max_b, skip_penalty=skip,
                         prune_cost_threshold=skip + 1.0, norm_sample_size=sample_size,
                         rng_seed=seed)
    return document, table, params


@settings(max_examples=400, deadline=None)
@given(tie_prone_instances())
def test_dp_bit_identical_to_cell_by_cell_oracle(instance):
    """The row-vectorized fill picks the same move as a strict-< scan in every
    cell, ties included, and every cost is the same float to the last bit."""
    document, table, params = instance
    got = dp_align(document, table, params)
    want = reference_dp_align(document, table, params)
    assert [(l.key(), float.hex(l.cost)) for l in got.links] == \
        [(l.key(), float.hex(l.cost)) for l in want.links]
    assert float.hex(got.total_cost) == float.hex(want.total_cost)
    if document.source_units and document.target_units:
        args = (table, params.norm_sample_size, params.rng_seed)
        assert float.hex(normalization_denominator(*args)) == \
            float.hex(reference_denominator(*args))


def test_dp_rejects_spans_beyond_table():
    document, table = _perfect_doc_and_table()
    with pytest.raises(ValidationError):
        dp_align(document, table, AlignParams(max_src_span=5, max_tgt_span=3))


# ---------------------------------------------------------------------------
# prune

def _aset(links, talk_id="t0"):
    return AlignmentSet(talk_id=talk_id, links=tuple(links), total_cost=sum(l.cost for l in links))


def test_prune_identity_when_all_good():
    links = [AlignedPair(0, 1, 0, 1, 0.4), AlignedPair(1, 1, 1, 1, 0.9)]
    out = prune(_aset(links), 1.0)
    assert [l.dropped for l in out.links] == [False, False]
    assert [l.key() for l in out.links] == [l.key() for l in links]


def test_prune_drops_links_costing_above_one():
    links = [AlignedPair(0, 1, 0, 1, 1.2)]
    out = prune(_aset(links), 1.0)
    assert out.links[0].dropped and out.links[0].drop_reason == "cost"


def test_prune_empty_side_dropped():
    links = [AlignedPair(0, 1, 0, 0, 0.5), AlignedPair(1, 1, 0, 1, 0.5)]
    out = prune(_aset(links), 1.0)
    assert out.links[0].dropped and out.links[0].drop_reason == "empty"
    assert not out.links[1].dropped


def test_prune_matches_independent_predicate(rng):
    for _ in range(50):
        links = []
        s = t = 0
        for _ in range(rng.randint(1, 12)):
            kind = rng.random()
            if kind < 0.2:
                links.append(AlignedPair(s, 1, t, 0, rng.uniform(0, 2))); s += 1
            elif kind < 0.4:
                links.append(AlignedPair(s, 0, t, 1, rng.uniform(0, 2))); t += 1
            else:
                links.append(AlignedPair(s, 1, t, 1, rng.uniform(0, 2))); s += 1; t += 1
        threshold = rng.uniform(0.2, 1.5)
        out = prune(_aset(links), threshold)
        survivors = {l.key() for l in out.kept()}
        oracle = {l.key() for l in links
                  if l.src_len > 0 and l.tgt_len > 0 and l.cost <= threshold}
        assert survivors == oracle


def test_prune_idempotent_and_monotone(rng):
    links = []
    s = t = 0
    for _ in range(30):
        links.append(AlignedPair(s, 1, t, 1, rng.uniform(0, 2))); s += 1; t += 1
    aset = _aset(links)
    once = prune(aset, 0.9)
    assert prune(once, 0.9) == once
    low = {l.key() for l in prune(aset, 0.5).kept()}
    high = {l.key() for l in prune(aset, 1.2).kept()}
    assert low <= high


def test_alignment_jsonl_round_trip(tmp_path):
    links = [AlignedPair(0, 1, 0, 2, 0.25), AlignedPair(1, 1, 2, 0, 0.55,
                                                        dropped=True, drop_reason="empty")]
    aset = _aset(links, talk_id="rt")
    path = tmp_path / "a.jsonl"
    path.write_text(links_text(aset.talk_id, aset.links), encoding="utf-8")
    loaded = read_alignment_jsonl(path)
    assert loaded.talk_id == "rt"
    assert [l.key() for l in loaded.links] == [l.key() for l in links]
    assert loaded.links[1].dropped and loaded.links[1].drop_reason == "empty"


LINK_ROW = {"talk_id": "t", "src_start": 0, "src_len": 1, "tgt_start": 0, "tgt_len": 1,
            "cost": 0.5, "dropped": False, "drop_reason": None}
TRIMS_ROW = {"talk_id": "t", "src_start": 0, "src_len": 1, "tgt_start": 0, "tgt_len": 2,
             "new_tgt_start": 1, "new_tgt_len": 1, "trims": ["begin:1"], "flagged": False}
MANIFEST = {"talk_id": "t", "interpreter_rank": "S", **TALK_FILES}


@dataclass(frozen=True)
class RawJson:
    """JSON text written as it is, for a value `json.dumps` cannot make."""

    text: str


DEEPLY_NESTED = RawJson("[" * 100_000 + "]" * 100_000)


@pytest.mark.parametrize("reader,bad", [
    (read_alignment_jsonl, [1, 2]),
    (read_alignment_jsonl, {**LINK_ROW, "src_start": "x"}),
    (read_alignment_jsonl, {**LINK_ROW, "cost": None}),
    (read_alignment_jsonl, {**LINK_ROW, "cost": float("nan")}),
    (read_alignment_jsonl, {**LINK_ROW, "cost": float("inf")}),
    (read_alignment_jsonl, {**LINK_ROW, "src_start": 0.5}),
    (read_alignment_jsonl, {**LINK_ROW, "tgt_len": True}),
    (read_alignment_jsonl, {**LINK_ROW, "dropped": "no"}),
    (read_alignment_jsonl, {**LINK_ROW, "talk_id": 5}),
    (read_trims, {**TRIMS_ROW, "trims": "ab"}),
    (read_trims, {**TRIMS_ROW, "new_tgt_start": 1.0}),
    (read_manifest, {**MANIFEST, "source_units_path": 5}),
    (read_manifest, {**MANIFEST, "talk_id": 5}),
    (read_manifest, [MANIFEST]),
    (read_alignment_jsonl, DEEPLY_NESTED),
    (read_trims, DEEPLY_NESTED),
    (read_manifest, DEEPLY_NESTED),
    (read_alignment_jsonl, {**LINK_ROW, "drop_reason": "\ud800"}),
    (read_trims, {**TRIMS_ROW, "trims": ["begin:1", "\ud800"]}),
], ids=lambda v: getattr(v, "__name__", None))
def test_mistyped_row_names_file_and_line(tmp_path, reader, bad):
    """A row of the wrong shape or type, or nested too deeply to decode, is a
    ParseError naming its location, never a traceback or a silently accepted
    value."""
    path = tmp_path / "input"
    text = bad.text if isinstance(bad, RawJson) else json.dumps(bad)
    if reader is read_manifest:
        path.write_text(text, encoding="utf-8")
        where = str(path)
    else:
        good = LINK_ROW if reader is read_alignment_jsonl else TRIMS_ROW
        path.write_text(f"{json.dumps(good)}\n{text}\n", encoding="utf-8")
        where = f"{path}:2"
    with pytest.raises(ParseError) as err:
        reader(path)
    assert where in str(err.value)
