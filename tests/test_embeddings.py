import logging
import math
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from si_align.corpus import DocumentPair, ParseError, Rank, TextUnit, ValidationError
from si_align.embeddings import (PARSE_CHUNK_ROWS, SOURCE, TARGET, EmbeddingProviderSpec,
                                 MissingWindowError, build_fallback_table, load_precomputed,
                                 window_rows, write_table_file)

from conftest import doc, unit, vector_outcome
from oracles import (cosine, enumerate_windows, fallback_embed, reference_load_precomputed,
                     window_vector)


def brute_force_windows(texts, max_window):
    out = []
    for w in range(1, max_window + 1):
        for start in range(len(texts)):
            if start + w <= len(texts):
                out.append((start, w, " ".join(texts[start:start + w])))
    return out


def test_three_units_singletons():
    units = [unit(i, t) for i, t in enumerate(["aa", "bb", "cc"])]
    got = enumerate_windows(units, 1)
    assert [(s, w) for s, w, _ in got] == [(0, 1), (1, 1), (2, 1)]
    assert [t for _, _, t in got] == ["aa", "bb", "cc"]


def test_three_units_bigrams():
    units = [unit(i, t) for i, t in enumerate(["aa", "bb", "cc"])]
    got = enumerate_windows(units, 2)
    assert len(got) == 5
    assert got[3] == (0, 2, "aa bb")


def test_ten_units_window_four_vs_bruteforce():
    texts = [f"w{i}" for i in range(10)]
    units = [unit(i, t) for i, t in enumerate(texts)]
    got = enumerate_windows(units, 4)
    assert len(got) == 34
    assert sorted(got) == sorted(brute_force_windows(texts, 4))


def test_window_count_formula_property():
    for max_w in range(1, 7):
        for n in range(0, 51):
            units = [unit(i, f"u{i}") for i in range(n)]
            expected = sum(max(0, n - w + 1) for w in range(1, max_w + 1))
            assert len(enumerate_windows(units, max_w)) == expected


def test_fallback_deterministic():
    params = EmbeddingProviderSpec()
    a = fallback_embed("some text here", params)
    b = fallback_embed("some text here", params)
    assert a.tobytes() == b.tobytes()


def test_fallback_self_cosine():
    params = EmbeddingProviderSpec()
    v = fallback_embed("abcdef", params)
    assert cosine(v, v) == pytest.approx(1.0, abs=1e-9)


def test_disjoint_alphabets_nearly_orthogonal():
    params = EmbeddingProviderSpec()
    u = fallback_embed("abab bacaba abba cab", params)
    v = fallback_embed("xyxy zyxzyz wwvw zyx", params)
    assert abs(cosine(u, v)) < 0.1


def test_fallback_whitespace_invariant():
    params = EmbeddingProviderSpec()
    assert np.array_equal(fallback_embed("abc def", params),
                          fallback_embed("  abc def  ", params))


def test_fallback_empty_text_basis_vector():
    v = fallback_embed("", EmbeddingProviderSpec())
    assert v[0] == 1.0 and np.linalg.norm(v) == 1.0


def test_fallback_params_validation():
    with pytest.raises(ValidationError):
        EmbeddingProviderSpec(dim=32)
    with pytest.raises(ValidationError):
        EmbeddingProviderSpec(orders=())
    with pytest.raises(ValidationError):
        EmbeddingProviderSpec(orders=(6,))


def test_cosine_identity_and_orthogonal():
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0])
    assert cosine(e1, e1) == 1.0
    assert cosine(e1, e2) == 0.0
    with pytest.raises(ValidationError):
        cosine(e1, np.array([1.0, 0.0]))


def test_cosine_against_independent_oracle():
    rng = random.Random(42)
    for _ in range(1000):
        dim = rng.randint(2, 16)
        u = [rng.uniform(-1, 1) for _ in range(dim)]
        v = [rng.uniform(-1, 1) for _ in range(dim)]
        oracle = math.fsum(x * y for x, y in zip(u, v)) / (
            math.sqrt(math.fsum(x * x for x in u)) * math.sqrt(math.fsum(y * y for y in v)))
        got = cosine(np.array(u), np.array(v))
        assert got == pytest.approx(max(-1.0, min(1.0, oracle)), abs=1e-12)


def all_windows(document, max_window):
    """Every (side, start, len) window of a document pair."""
    return [(side, start, w)
            for side, units in ((SOURCE, document.source_units), (TARGET, document.target_units))
            for start, w, _ in enumerate_windows(units, max_window)]


def test_table_vectors_unit_norm():
    document = doc(["aa bb", "cc"], ["dd", "ee ff"])
    table = build_fallback_table(document, EmbeddingProviderSpec(), 2, 2)
    assert len(table.entries) == 6
    for key in all_windows(document, 2):
        assert abs(np.linalg.norm(window_vector(table, *key)) - 1.0) <= 1e-6


# raw unit texts, not normalized: empty, shorter than an order, whitespace of
# several kinds at either end or repeated, non-ASCII letters
UNIT_TEXTS = st.lists(st.text(st.sampled_from(["a", "b", "é", "字", " ", "\t", "\n", "\u3000",
                                               "\u2028"]), max_size=8), max_size=7)


@settings(max_examples=400, deadline=None)
@given(src=UNIT_TEXTS, tgt=UNIT_TEXTS,
       orders=st.lists(st.integers(1, 5), min_size=1, max_size=5, unique=True),
       max_src_window=st.integers(1, 6), max_tgt_window=st.integers(1, 6),
       seed=st.integers(0, 1 << 16))
def test_table_matches_per_window_oracle(src, tgt, orders, max_src_window, max_tgt_window,
                                         seed):
    """Every row is bit-for-bit the oracle's vector of that window's text."""
    units = {side: tuple(TextUnit(i, text, ()) for i, text in enumerate(texts))
             for side, texts in ((SOURCE, src), (TARGET, tgt))}
    document = DocumentPair("t", Rank.S, units[SOURCE], units[TARGET])
    params = EmbeddingProviderSpec(dim=64, orders=tuple(orders), seed=seed)
    rows = window_rows(len(src), len(tgt), max_src_window, max_tgt_window)
    expected = np.empty((rows[(TARGET, max_tgt_window)].stop, 64))
    for side, max_w in ((SOURCE, max_src_window), (TARGET, max_tgt_window)):
        for start, w, text in enumerate_windows(units[side], max_w):
            expected[rows[(side, w)][start]] = fallback_embed(text, params)
    table = build_fallback_table(document, params, max_src_window, max_tgt_window)
    assert table.entries.shape == expected.shape
    assert table.entries.tobytes() == expected.tobytes()


def test_precomputed_round_trip_and_counts(tmp_path):
    document = doc(["aa", "bb"], ["cc", "dd"])
    table = build_fallback_table(document, EmbeddingProviderSpec(dim=64), 2, 2)
    assert len(table.entries) == 6  # 3 windows per side
    path = tmp_path / "emb.tsv"
    write_table_file(table, path)
    loaded = load_precomputed(path, 2, 2, 2, 2)
    for key in all_windows(document, 2):
        assert np.allclose(window_vector(loaded, *key), window_vector(table, *key),
                           atol=1e-12)


def test_precomputed_rows_in_any_order_extra_rows_ignored(tmp_path):
    document = doc(["aa", "bb"], ["cc", "dd"])
    table = build_fallback_table(document, EmbeddingProviderSpec(dim=64), 2, 2)
    path = tmp_path / "emb.tsv"
    write_table_file(table, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    extra = "source\t7\t1\t" + ",".join(["0.125"] * 64)
    path.write_text("\n".join([extra] + lines[::-1]) + "\n", encoding="utf-8")
    loaded = load_precomputed(path, 2, 2, 2, 2)
    assert np.allclose(loaded.entries, table.entries, atol=1e-12)


def test_precomputed_missing_window_named(tmp_path):
    document = doc(["aa", "bb"], ["cc", "dd"])
    table = build_fallback_table(document, EmbeddingProviderSpec(dim=64), 2, 2)
    path = tmp_path / "emb.tsv"
    write_table_file(table, path)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(l for l in lines if not l.startswith("target\t0\t1\t")),
                    encoding="utf-8")
    with pytest.raises(MissingWindowError) as err:
        load_precomputed(path, 2, 2, 2, 2)
    assert "target" in str(err.value) and "start=0" in str(err.value)
    assert str(path) in str(err.value)


def test_precomputed_renormalizes(tmp_path):
    path = tmp_path / "emb.tsv"
    rows = ["source\t0\t1\t0.5,0.0", "target\t0\t1\t0.0,1.0"]
    path.write_text("".join(r + "\n" for r in rows), encoding="utf-8")
    loaded = load_precomputed(path, 1, 1, 1, 1)
    assert np.linalg.norm(window_vector(loaded, SOURCE, 0, 1)) == pytest.approx(1.0, abs=1e-12)


def test_precomputed_dimension_mismatch(tmp_path):
    path = tmp_path / "emb.tsv"
    path.write_text("source\t0\t1\t1.0,0.0\ntarget\t0\t1\t1.0,0.0,0.0\n", encoding="utf-8")
    with pytest.raises(Exception) as err:
        load_precomputed(path, 1, 1, 1, 1)
    assert "dimension" in str(err.value)


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_precomputed_non_finite_value_named(tmp_path, value):
    path = tmp_path / "emb.tsv"
    path.write_text(f"source\t0\t1\t1.0,0.0\ntarget\t0\t1\t{value},1.0\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_precomputed(path, 1, 1, 1, 1)
    assert f"{path}:2" in str(err.value)


def test_write_table_file_bytes_are_each_values_repr(tmp_path):
    document = doc(["aa bb", "cc", "dd ee"], ["ff", "gg hh"])
    table = build_fallback_table(document, EmbeddingProviderSpec(dim=64), 3, 2)
    table.entries[0, :4] = [-0.0, 5e-324, 1e308, 0.1]
    path = tmp_path / "emb.tsv"
    write_table_file(table, path)
    expected = "".join(
        f"{side}\t{start}\t{w}\t" + ",".join(repr(float(x)) for x in table.entries[row]) + "\n"
        for (side, w), block in table.rows.items() for start, row in enumerate(block))
    assert path.read_bytes() == expected.encode("utf-8")


def _one_by_one(tmp_path, vectors):
    """A 1 x 1 talk at window 1: source row on line 1, target rows after it."""
    path = tmp_path / "emb.tsv"
    path.write_text("".join(f"{side}\t0\t1\t{v}\n" for side, v in
                            zip([SOURCE] + [TARGET] * (len(vectors) - 1), vectors)),
                    encoding="utf-8")
    return path


@pytest.mark.parametrize("value", ["1.0#", "#1.0", "", '"1.0"', "1_0", "\u0661", "1.0\x1c",
                                   "0x1p0", "1.0 2.0"],
                         ids=["hash-after", "hash-before", "empty", "quoted", "underscore",
                              "arabic-indic-digit", "separator", "hex", "inner-space"])
def test_precomputed_bad_value_names_line(tmp_path, value):
    """Values numpy's float parser rejects are a bad numeric field on their
    line; `1_0` and non-ASCII digits, which `float()` takes, are among them."""
    path = _one_by_one(tmp_path, ["0.6,0.8,0.0", f"1.0,{value},0.0"])
    with pytest.raises(ParseError, match="bad numeric field") as err:
        load_precomputed(path, 1, 1, 1, 1)
    assert f"{path}:2]" in str(err.value)


@pytest.mark.parametrize("vector", ["", "  ", " \x0b "], ids=["empty", "spaces", "vtab"])
def test_precomputed_blank_vector_field_names_line(tmp_path, vector):
    path = _one_by_one(tmp_path, ["0.6,0.8", vector])
    with pytest.raises(ParseError, match="bad numeric field") as err:
        load_precomputed(path, 1, 1, 1, 1)
    assert f"{path}:2]" in str(err.value)


def test_precomputed_whitespace_around_values(tmp_path):
    """Padding `float()` strips reads the same, a `\\r` inside the line included."""
    path = _one_by_one(tmp_path, [" +0.6 ,\u3000.8\r", "\xa00.,\x0c1E0 \r\r"])
    table = load_precomputed(path, 1, 1, 1, 1)
    assert table.entries.tolist() == [[0.6, 0.8], [0.0, 1.0]]


def test_precomputed_first_bad_line_wins(tmp_path):
    """A bad value still waiting to be parsed is reported before a malformed
    row after it."""
    path = tmp_path / "emb.tsv"
    path.write_text("source\t0\t1\t0.6,0.8\ntarget\t0\t1\t0.6,x\ntarget\t0\t1\n",
                    encoding="utf-8")
    with pytest.raises(ParseError, match="bad numeric field") as err:
        load_precomputed(path, 1, 1, 1, 1)
    assert f"{path}:2]" in str(err.value)


def test_precomputed_ragged_row_after_chunk_boundary(tmp_path):
    """Rows of earlier chunks are parsed; the short row names its own line."""
    n = PARSE_CHUNK_ROWS + 4
    lines = [f"source\t{i}\t1\t0.6,0.8,0.0" for i in range(n)]
    lines[PARSE_CHUNK_ROWS + 2] = f"source\t{PARSE_CHUNK_ROWS + 2}\t1\t0.6,0.8"
    path = tmp_path / "emb.tsv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ParseError, match="dimension 2 differs") as err:
        load_precomputed(path, n, 1, 1, 1)
    assert f"{path}:{PARSE_CHUNK_ROWS + 3}]" in str(err.value)


# value texts both parsers read: reprs of floats, signs, bare points,
# exponents, case, and whitespace `float()` strips
SPECIAL_VALUES = ["-0.0", "5e-324", "2.2250738585072014e-308", "+1", ".5", "5.", "1E5",
                  "-2e-3", "0", "+.25E+1", "1e-400"]
PADDING = st.sampled_from(["", " ", "  ", "\u3000", "\xa0", "\x0b", "\x0c", "\r"])


def _padded(values):
    return st.tuples(PADDING, values, PADDING).map("".join)


@st.composite
def vector_files(draw):
    """(file text, n_source, n_target, max_window): one row per window, in
    any order, some repeated, some for windows outside the table. A file
    may lack a window or hold values whose square overflows, or non-finite ones."""
    n_source, n_target = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    max_w, dim = draw(st.integers(1, 3)), draw(st.integers(1, 8))
    keys = [(side, start, w) for side, n in ((SOURCE, n_source), (TARGET, n_target))
            for w in range(1, max_w + 1) for start in range(n - w + 1)]
    if not draw(st.integers(0, 9)):
        keys.remove(draw(st.sampled_from(keys)))  # a window with no row
    keys += draw(st.lists(st.sampled_from(keys), max_size=6))
    keys += draw(st.lists(st.tuples(st.sampled_from([SOURCE, TARGET]), st.integers(-2, 12),
                                    st.integers(1, 7)), max_size=6))
    keys = draw(st.permutations(keys))
    extreme = SPECIAL_VALUES + ([] if draw(st.integers(0, 3)) else ["1e308", "-INF", "NaN"])
    # a nonzero first value keeps most rows' norms away from 0
    first = _padded(st.floats(0.25, 4.0).map(repr))
    rest = _padded(st.one_of(st.floats(-4.0, 4.0).map(repr), st.sampled_from(extreme),
                             st.floats(-1e150, 1e150).map(repr)))
    lines = [f"{side}\t{start}\t{w}\t"
             + ",".join([draw(first)] + draw(st.lists(rest, min_size=dim - 1, max_size=dim - 1)))
             + "\n" for side, start, w in keys]
    return "".join(lines), n_source, n_target, max_w


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=vector_files())
def test_precomputed_matches_row_by_row_oracle(tmp_path, caplog, case):
    """The chunked loader fills the same bits, and warns and fails alike,
    as the row-by-row `float()` loader."""
    text, n_source, n_target, max_w = case
    path = tmp_path / "emb.tsv"
    path.write_text(text, encoding="utf-8")
    shape = (n_source, n_target, max_w, max_w)
    outcomes, warned = [], []
    for load in (load_precomputed, reference_load_precomputed):
        caplog.clear()
        with caplog.at_level(logging.WARNING), np.errstate(over="ignore"):
            outcomes.append(vector_outcome(load, path, *shape))
        warned.append([record.getMessage() for record in caplog.records])
    assert outcomes[0] == outcomes[1]
    assert warned[0] == warned[1]


def test_provider_spec_validation_and_dispatch(tmp_path):
    from si_align.embeddings import table_for
    with pytest.raises(ValidationError):
        EmbeddingProviderSpec(kind="neural_cloud")
    with pytest.raises(ValidationError):
        EmbeddingProviderSpec(kind="precomputed_file")
    with pytest.raises(ValidationError):
        EmbeddingProviderSpec(dim=8)
    # the hashed embedder's settings are not read for a vector file
    EmbeddingProviderSpec(kind="precomputed_file", dim=8, path_pattern="{talk_id}.tsv")

    document = doc(["aa", "bb"], ["cc", "dd"])
    spec = EmbeddingProviderSpec(kind="fallback_hash", dim=128)
    table = table_for(document, spec, 2, 2)
    assert table.entries.shape == (6, 128)

    write_table_file(table, tmp_path / f"{document.talk_id}.tsv")
    file_spec = EmbeddingProviderSpec(kind="precomputed_file", path_pattern="{talk_id}.tsv")
    loaded = table_for(document, file_spec, 2, 2, base_dir=tmp_path)
    assert np.allclose(loaded.entries, table.entries, atol=1e-12)
