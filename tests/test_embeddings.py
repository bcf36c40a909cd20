import math
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from si_align.corpus import ParseError, ValidationError
from si_align.embeddings import (FallbackParams, MissingWindowError, SOURCE, TARGET,
                                 build_fallback_table, cosine, enumerate_windows,
                                 fallback_embed, load_precomputed, write_table_file)

from conftest import doc, unit


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
    params = FallbackParams()
    a = fallback_embed("some text here", params)
    b = fallback_embed("some text here", params)
    assert a.tobytes() == b.tobytes()


def test_fallback_self_cosine():
    params = FallbackParams()
    v = fallback_embed("abcdef", params)
    assert cosine(v, v) == pytest.approx(1.0, abs=1e-9)


def test_disjoint_alphabets_nearly_orthogonal():
    params = FallbackParams()
    u = fallback_embed("abab bacaba abba cab", params)
    v = fallback_embed("xyxy zyxzyz wwvw zyx", params)
    assert abs(cosine(u, v)) < 0.1


def test_fallback_whitespace_invariant():
    params = FallbackParams()
    assert np.array_equal(fallback_embed("abc def", params),
                          fallback_embed("  abc def  ", params))


def test_fallback_empty_text_basis_vector():
    v = fallback_embed("", FallbackParams())
    assert v[0] == 1.0 and np.linalg.norm(v) == 1.0


def test_fallback_params_validation():
    with pytest.raises(ValidationError):
        FallbackParams(dim=32)
    with pytest.raises(ValidationError):
        FallbackParams(orders=())
    with pytest.raises(ValidationError):
        FallbackParams(orders=(6,))


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
    table = build_fallback_table(document, FallbackParams(), 2, 2)
    assert len(table.entries) == 6
    for key in all_windows(document, 2):
        assert abs(np.linalg.norm(table.vector(*key)) - 1.0) <= 1e-6


def test_precomputed_round_trip_and_counts(tmp_path):
    document = doc(["aa", "bb"], ["cc", "dd"])
    table = build_fallback_table(document, FallbackParams(dim=64), 2, 2)
    assert len(table.entries) == 6  # 3 windows per side
    path = tmp_path / "emb.tsv"
    write_table_file(table, path)
    loaded = load_precomputed(path, 2, 2, 2, 2)
    for key in all_windows(document, 2):
        assert np.allclose(loaded.vector(*key), table.vector(*key), atol=1e-12)


def test_precomputed_rows_in_any_order_extra_rows_ignored(tmp_path):
    document = doc(["aa", "bb"], ["cc", "dd"])
    table = build_fallback_table(document, FallbackParams(dim=64), 2, 2)
    path = tmp_path / "emb.tsv"
    write_table_file(table, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    extra = "source\t7\t1\t" + ",".join(["0.125"] * 64)
    path.write_text("\n".join([extra] + lines[::-1]) + "\n", encoding="utf-8")
    loaded = load_precomputed(path, 2, 2, 2, 2)
    assert np.allclose(loaded.entries, table.entries, atol=1e-12)


def test_precomputed_missing_window_named(tmp_path):
    document = doc(["aa", "bb"], ["cc", "dd"])
    table = build_fallback_table(document, FallbackParams(dim=64), 2, 2)
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
    assert np.linalg.norm(loaded.vector(SOURCE, 0, 1)) == pytest.approx(1.0, abs=1e-12)


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


# a valid file for a 2 x 2 talk at window limit 2, dim 3
VECTOR_FILE = "".join(f"{side}\t{start}\t{w}\t0.6,0.8,{0.1 * start}\n"
                      for side in (SOURCE, TARGET) for w in (1, 2)
                      for start in range(3 - w)).encode("utf-8")
FUZZ_TOKENS = [b"\t", b"\n", b",", b"-", b"0", b"9", b"e999", b"nan", b"inf", b"\xff",
               b"source", b"target"]


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=st.lists(st.tuples(st.integers(0, len(VECTOR_FILE)), st.integers(0, 8),
                                st.one_of(st.sampled_from(FUZZ_TOKENS), st.binary(max_size=4))),
                      max_size=4))
def test_precomputed_reader_fuzz(tmp_path, edits):
    """A mutated vector file loads as a finite table or fails naming the file."""
    data = VECTOR_FILE
    for pos, cut, insert in edits:
        data = data[:pos] + insert + data[pos + cut:]
    path = tmp_path / "emb.tsv"
    path.write_bytes(data)
    try:
        table = load_precomputed(path, 2, 2, 2, 2)
    except (ParseError, MissingWindowError) as exc:
        assert str(path) in str(exc)
    else:
        assert len(table.entries) == 6 and np.isfinite(table.entries).all()


def test_provider_spec_validation_and_dispatch(tmp_path):
    from si_align.embeddings import EmbeddingProviderSpec, table_for
    with pytest.raises(ValidationError):
        EmbeddingProviderSpec(kind="neural_cloud")
    with pytest.raises(ValidationError):
        EmbeddingProviderSpec(kind="precomputed_file")
    with pytest.raises(ValidationError):
        EmbeddingProviderSpec.from_dict({"dim": 8})

    document = doc(["aa", "bb"], ["cc", "dd"])
    spec = EmbeddingProviderSpec.from_dict({"kind": "fallback_hash", "dim": 128})
    table = table_for(document, spec, 2, 2)
    assert table.entries.shape == (6, 128)

    write_table_file(table, tmp_path / f"{document.talk_id}.tsv")
    file_spec = EmbeddingProviderSpec.from_dict(
        {"kind": "precomputed_file", "path_pattern": "{talk_id}.tsv"})
    loaded = table_for(document, file_spec, 2, 2, base_dir=tmp_path)
    assert np.allclose(loaded.entries, table.entries, atol=1e-12)
