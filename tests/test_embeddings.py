import dataclasses
import logging
import math
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from si_align import embeddings
from si_align.corpus import DocumentPair, ParseError, Rank, TextUnit, ValidationError
from si_align.embeddings import (PARSE_CHUNK_ROWS, SOURCE, TARGET, EmbeddingProviderSpec,
                                 build_fallback_table, load_precomputed, window_rows,
                                 write_table_file)

from conftest import doc, unit
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
    units = [unit(t) for t in ["aa", "bb", "cc"]]
    got = enumerate_windows(units, 1)
    assert [(s, w) for s, w, _ in got] == [(0, 1), (1, 1), (2, 1)]
    assert [t for _, _, t in got] == ["aa", "bb", "cc"]


def test_three_units_bigrams():
    units = [unit(t) for t in ["aa", "bb", "cc"]]
    got = enumerate_windows(units, 2)
    assert len(got) == 5
    assert got[3] == (0, 2, "aa bb")


def test_ten_units_window_four_vs_bruteforce():
    texts = [f"w{i}" for i in range(10)]
    units = [unit(t) for t in texts]
    got = enumerate_windows(units, 4)
    assert len(got) == 34
    assert sorted(got) == sorted(brute_force_windows(texts, 4))


def test_window_count_formula_property():
    for max_w in range(1, 7):
        for n in range(0, 51):
            units = [unit(f"u{i}") for i in range(n)]
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
    units = {side: tuple(TextUnit(text, ()) for text in texts)
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


SHARED_TEXTS = (["the cat sat", "on the mat", "ça va bien"], ["le chat", "sur le tapis", "ça"])


def oracle_rows(document, params, max_window) -> list[bytes]:
    """The bytes of the oracle's vector of each row of a table."""
    rows = window_rows(len(document.source_units), len(document.target_units),
                       max_window, max_window)
    expected = np.empty((rows[(TARGET, max_window)].stop, params.dim))
    for side, units in ((SOURCE, document.source_units), (TARGET, document.target_units)):
        for start, w, text in enumerate_windows(units, max_window):
            expected[rows[(side, w)][start]] = fallback_embed(text, params)
    return [row.tobytes() for row in expected]


def test_specs_in_one_process_keep_their_own_slots():
    """Tables built one after another under another seed, another dim and
    the first spec again each equal the oracle, row by row: the slots
    hashed under one spec never reach another's table."""
    document = doc(*SHARED_TEXTS)
    first = EmbeddingProviderSpec(dim=64, orders=(2, 3), seed=5)
    for spec in (first, dataclasses.replace(first, seed=6),
                 dataclasses.replace(first, dim=128), first):
        table = build_fallback_table(document, spec, 3, 3)
        assert [row.tobytes() for row in table.entries] == oracle_rows(document, spec, 3), spec


def test_slot_dict_stays_within_its_limit(monkeypatch):
    """With room for a few n-grams, the slot table is cleared before it
    would grow past them, also within one call that looks up more n-grams
    than it may hold, and the table still equals the oracle."""
    monkeypatch.setattr(embeddings, "MAX_SLOT_GRAMS", 16)
    sizes, distinct = [], []

    class Recorded(embeddings.SlotTable):
        def __missing__(self, gram):
            slot = super().__missing__(gram)
            sizes.append(len(self))
            return slot

    monkeypatch.setattr(embeddings, "SLOTS", Recorded())
    packed_slots = embeddings._packed_slots

    def recorded(grams, seed, dim):
        distinct.append(len(set(grams)))
        return packed_slots(grams, seed, dim)

    monkeypatch.setattr(embeddings, "_packed_slots", recorded)
    document = doc(*SHARED_TEXTS)
    spec = EmbeddingProviderSpec(dim=64, orders=(1, 2, 3), seed=9)
    for _ in range(2):
        table = build_fallback_table(document, spec, 3, 3)
        assert [row.tobytes() for row in table.entries] == oracle_rows(document, spec, 3)
    assert max(sizes) <= 16
    # the table shrank, and one call's n-grams were more than it may hold
    assert any(after < before for before, after in zip(sizes, sizes[1:]))
    assert max(distinct) > 16


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
    with pytest.raises(ParseError) as err:
        load_precomputed(path, 2, 2, 2, 2)
    assert "target" in str(err.value) and "start=0" in str(err.value)
    assert str(err.value) == f"no vector for window (target, start=0, len=1) [{path}]"
    assert (err.value.path, err.value.line) == (str(path), None)


def test_precomputed_renormalizes(tmp_path):
    path = tmp_path / "emb.tsv"
    rows = ["source\t0\t1\t0.5,0.0", "target\t0\t1\t0.0,1.0"]
    path.write_text("".join(r + "\n" for r in rows), encoding="utf-8")
    loaded = load_precomputed(path, 1, 1, 1, 1)
    assert np.linalg.norm(window_vector(loaded, SOURCE, 0, 1)) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_precomputed_overflowing_norm_is_the_one_error(tmp_path):
    """A vector whose squares overflow is its norm's error, with no numpy
    overflow warning before it."""
    path = _one_by_one(tmp_path, ["0.6,0.8", "1e200,0.0"])
    with pytest.raises(ParseError) as err:
        load_precomputed(path, 1, 1, 1, 1)
    assert str(err.value) == f"window ('target', 0, 1) has norm inf [{path}:2]"


def test_precomputed_dimension_mismatch(tmp_path):
    """A row of another width than the first row's is named, also when every
    row of a later parse chunk has that width, so that numpy parses the chunk."""
    for widths, line in (([2, 3], 2), ([2] * PARSE_CHUNK_ROWS + [3] * PARSE_CHUNK_ROWS,
                                       PARSE_CHUNK_ROWS + 1)):
        path = tmp_path / f"emb{line}.tsv"
        path.write_text("".join(f"source\t{i}\t1\t" + ",".join(["0.6", "0.8", "0.0"][:k]) + "\n"
                                for i, k in enumerate(widths)), encoding="utf-8")
        with pytest.raises(ParseError) as err:
            load_precomputed(path, len(widths), 1, 1, 1)
        assert str(err.value) == f"dimension 3 differs from first row's 2 [{path}:{line}]"


@pytest.mark.parametrize("value, message", [("x", "bad numeric field"),
                                            ("nan", "non-finite vector value")])
def test_precomputed_ragged_row_checks_values_first(tmp_path, value, message):
    """A row of another width that also holds a bad or non-finite value is
    named for the value, as the row-by-row `float()` loader names it."""
    path = _one_by_one(tmp_path, ["0.6,0.8", f"0.6,{value},0.0"])
    for load in (load_precomputed, reference_load_precomputed):
        with pytest.raises(ParseError) as err:
            load(path, 1, 1, 1, 1)
        assert err.value.message.startswith(message) and err.value.line == 2


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
    any order, some repeated (one within a parse chunk of the first), some
    for windows outside the table. A file may lack a window, hold values
    whose square overflows, or non-finite ones, or hold a row of another
    width, whose values may be bad or non-finite too."""
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
    repeated = draw(st.integers(0, len(keys) - 1))
    keys.insert(repeated + draw(st.integers(1, PARSE_CHUNK_ROWS - 1)), keys[repeated])
    extreme = SPECIAL_VALUES + ([] if draw(st.integers(0, 3)) else ["1e308", "-INF", "NaN"])
    # a nonzero first value keeps most rows' norms away from 0
    first = _padded(st.floats(0.25, 4.0).map(repr))
    rest = _padded(st.one_of(st.floats(-4.0, 4.0).map(repr), st.sampled_from(extreme),
                             st.floats(-1e150, 1e150).map(repr)))
    lines = [f"{side}\t{start}\t{w}\t"
             + ",".join([draw(first)] + draw(st.lists(rest, min_size=dim - 1, max_size=dim - 1)))
             + "\n" for side, start, w in keys]
    if not draw(st.integers(0, 3)):
        # a row one value wider or narrower, perhaps holding a bad or non-finite one
        k = draw(st.integers(0, len(lines) - 1))
        values = lines[k].rstrip("\n").split("\t")[3].split(",")
        values = values[:-1] if dim > 1 and draw(st.booleans()) else values + ["0.5"]
        values[-1] = draw(st.sampled_from([values[-1], "x", "nan"]))
        lines[k] = "\t".join(lines[k].split("\t")[:3] + [",".join(values)]) + "\n"
    return "".join(lines), n_source, n_target, max_w


def _outcome_and_kind(load, path, *shape):
    """`vector_outcome`, with the kind of an error added: its message up to
    the first colon, since after `bad numeric field:` each parser words its
    own reason."""
    try:
        table = load(path, *shape)
    except ParseError as exc:
        return (ParseError, str(exc) if exc.line is None else exc.line,
                exc.message.partition(":")[0])
    return table.entries.shape, table.entries.tobytes()


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
            outcomes.append(_outcome_and_kind(load, path, *shape))
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
