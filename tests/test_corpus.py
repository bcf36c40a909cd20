import json

import pytest
from hypothesis import given, strategies as st

from si_align.corpus import (MANIFEST_NAME, DocumentPair, ParseError, Pos, Rank,
                             ValidationError, load_document_pair, normalize_text,
                             read_manifest, talk_texts)

from conftest import doc, unit


def test_whitespace_collapse():
    assert normalize_text("  hello   world ") == "hello world"


def test_fullwidth_compatibility():
    assert normalize_text("ＡＢＣ１２３") == "ABC123"


def test_combining_diacritics_composed():
    # frozen expected values: NFC/NFKC composition of combining sequences,
    # independently verified against the Unicode charts
    assert normalize_text("étude") == "étude"
    assert normalize_text("über") == "über"
    assert normalize_text("が") == "が"  # か + voicing mark -> が


@given(st.text(max_size=80))
def test_normalize_idempotent(text):
    once = normalize_text(text)
    assert normalize_text(once) == once


def _write_talk(tmp_path, src_lines, tgt_lines, src_blocks, tgt_blocks, rank="S"):
    (tmp_path / "s.txt").write_text("".join(l + "\n" for l in src_lines), encoding="utf-8")
    (tmp_path / "t.txt").write_text("".join(l + "\n" for l in tgt_lines), encoding="utf-8")
    for name, blocks in (("s.tsv", src_blocks), ("t.tsv", tgt_blocks)):
        text = "\n".join("".join(f"{s}\t{p}\n" for s, p in block) for block in blocks)
        (tmp_path / name).write_text(text, encoding="utf-8")
    manifest = {
        "talk_id": "talkX", "interpreter_rank": rank,
        "source_units_path": "s.txt", "target_units_path": "t.txt",
        "source_tags_path": "s.tsv", "target_tags_path": "t.tsv",
    }
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest), encoding="utf-8")
    return path


def test_load_counts_mirror_lines(tmp_path):
    src = ["aa bb", "cc", "dd ee"]
    tgt = ["uu", "vv", "ww", "xx", "yy"]
    src_blocks = [[("aa", "NOUN"), ("bb", "VERB")], [("cc", "NOUN")],
                  [("dd", "NOUN"), ("ee", "OTHER")]]
    tgt_blocks = [[(t, "NOUN")] for t in ("uu", "vv", "ww", "xx", "yy")]
    manifest = read_manifest(_write_talk(tmp_path, src, tgt, src_blocks, tgt_blocks))
    loaded = load_document_pair(manifest)
    assert len(loaded.source_units) == 3
    assert len(loaded.target_units) == 5
    assert loaded.interpreter_rank is Rank.S


def test_mixed_tags_carried_exactly(tmp_path):
    src = ["aa bb cc"]
    blocks = [[("aa", "NOUN"), ("bb", "OTHER"), ("cc", "NUM")]]
    tgt = ["zz"]
    manifest = read_manifest(_write_talk(tmp_path, src, tgt, blocks, [[("zz", "PROPN")]]))
    loaded = load_document_pair(manifest)
    assert [t.pos for t in loaded.source_units[0].tokens] == [Pos.NOUN, Pos.OTHER, Pos.NUM]
    assert all(t.pos in Pos for u in loaded.source_units + loaded.target_units
               for t in u.tokens)


def test_reconcatenation_mismatch_names_line(tmp_path):
    src = ["aa bb"]
    blocks = [[("aa", "NOUN"), ("zz", "VERB")]]  # zz does not re-concatenate
    path = _write_talk(tmp_path, src, ["tt"], blocks, [[("tt", "NOUN")]])
    with pytest.raises(ParseError) as err:
        load_document_pair(read_manifest(path))
    assert "s.tsv" in str(err.value)
    assert ":1" in str(err.value)


def test_unknown_tag_rejected(tmp_path):
    path = _write_talk(tmp_path, ["aa"], ["tt"], [[("aa", "ADJ")]], [[("tt", "NOUN")]])
    with pytest.raises(ParseError) as err:
        load_document_pair(read_manifest(path))
    assert "ADJ" in str(err.value)


def test_wrong_column_count(tmp_path):
    (tmp_path / "s.tsv").write_text("aa\tNOUN\textra\n", encoding="utf-8")
    (tmp_path / "t.tsv").write_text("tt\tNOUN\n", encoding="utf-8")
    (tmp_path / "s.txt").write_text("aa\n", encoding="utf-8")
    (tmp_path / "t.txt").write_text("tt\n", encoding="utf-8")
    manifest = {
        "talk_id": "x", "interpreter_rank": "A",
        "source_units_path": "s.txt", "target_units_path": "t.txt",
        "source_tags_path": "s.tsv", "target_tags_path": "t.tsv",
    }
    (tmp_path / "m.json").write_text(json.dumps(manifest), encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_document_pair(read_manifest(tmp_path / "m.json"))
    assert "columns" in str(err.value)


def test_empty_unit_line_rejected(tmp_path):
    path = _write_talk(tmp_path, ["aa", "   "], ["tt"],
                       [[("aa", "NOUN")], [("bb", "NOUN")]], [[("tt", "NOUN")]])
    with pytest.raises(ParseError):
        load_document_pair(read_manifest(path))


def write_document_pair(document, out_dir):
    out_dir.mkdir()
    for name, text in talk_texts(document).items():
        (out_dir / name).write_text(text, encoding="utf-8")
    return out_dir / MANIFEST_NAME


def test_round_trip_identity(tmp_path):
    original = doc(["aa bb", "cc dd ee"], ["xx", "yy zz"],
                   src_tags=[[Pos.NOUN, Pos.OTHER], [Pos.VERB, Pos.NUM, Pos.PRON]],
                   tgt_tags=[[Pos.PROPN], [Pos.NOUN, Pos.OTHER]])
    manifest_path = write_document_pair(original, tmp_path / "talk")
    reloaded = load_document_pair(read_manifest(manifest_path))
    assert reloaded == original
    # and a second write/load cycle is stable
    second = write_document_pair(reloaded, tmp_path / "talk2")
    assert load_document_pair(read_manifest(second)) == original


def test_document_validation():
    with pytest.raises(ValidationError):
        doc([], ["xx"]).validate()
    with pytest.raises(ValidationError):
        DocumentPair("t", Rank.UNKNOWN,
                     (unit(1, "aa"),), (unit(0, "bb"),)).validate()  # index gap
    doc(["aa"], ["bb"]).validate()
