import json

import pytest
from hypothesis import assume, given, strategies as st

from si_align import corpus
from si_align.corpus import (MANIFEST_NAME, TOKENS, ParseError, Pos, Rank, TextUnit,
                             ValidationError, load_document_pair, normalize_text,
                             read_manifest, talk_texts)
from si_align.inter import read_reference_jsonl

from conftest import doc


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


@given(st.text(max_size=80))
def test_text_unit_holds_normalized_text(raw):
    """A TextUnit refuses text that is empty or not single-spaced, an
    ideographic space included, or not NFKC, and takes what `normalize_text`
    makes of any text that does not normalize to empty."""
    for text in ("", " a", "a ", "a  b", "a\tb", "a\nb", "a\u3000b"):
        with pytest.raises(ValidationError, match="empty or not single-spaced"):
            TextUnit(text, ())
    for text in ("\uff71", "e\u0301"):  # half-width katakana, a decomposed é
        with pytest.raises(ValidationError, match="not NFKC-normalized"):
            TextUnit(text, ())
    text = normalize_text(raw)
    assume(text)
    assert TextUnit(text, ()).text == text


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


def test_repeated_bad_row_names_its_first_line(tmp_path):
    """Each distinct row is read once, but only valid rows are kept, so a
    bad row that repeats is reported at its first line."""
    rows = [("aa", "NOUN"), ("aa", "NOUN"), ("aa", "ADJ"), ("aa", "ADJ")]
    path = _write_talk(tmp_path, ["aa aa aa aa"], ["tt"], [rows], [[("tt", "NOUN")]])
    with pytest.raises(ParseError, match="'ADJ' outside the tag") as err:
        load_document_pair(read_manifest(path))
    assert str(err.value).endswith(f"[{tmp_path / 's.tsv'}:3]")


def test_one_token_table_per_process(tmp_path, monkeypatch):
    """Tag files and reference files read their rows through one table,
    which builds each distinct row once and stays within its limit."""
    src, tgt = ["aa bb", "ＡＡ"], ["xx aa"]
    blocks = [[("aa", "NOUN"), ("bb", "VERB")], [("ＡＡ", "NOUN")]]
    path = _write_talk(tmp_path, src, tgt, blocks, [[("xx", "NOUN"), ("aa", "NOUN")]])
    refs = tmp_path / "refs.jsonl"
    refs.write_text(json.dumps({"talk_id": "talkX", "src_start": 0, "src_len": 1, "text": "aa",
                                "tokens": [["aa", "NOUN"]]}) + "\n", encoding="utf-8")
    TOKENS.clear()
    first = load_document_pair(read_manifest(path))
    assert len(TOKENS) == 4  # ("aa", "NOUN") once for both files
    again = load_document_pair(read_manifest(path))
    ref_token = read_reference_jsonl(refs, "talkX")[(0, 1)].tokens[0]
    assert again.source_units[0].tokens[0] is first.source_units[0].tokens[0] is ref_token
    assert len(TOKENS) == 4
    monkeypatch.setattr(corpus, "MAX_TOKENS", 2)
    TOKENS.clear()
    assert load_document_pair(read_manifest(path)) == first
    assert read_reference_jsonl(refs, "talkX")[(0, 1)].tokens == (ref_token,)
    assert 0 < len(TOKENS) <= 2


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


@pytest.mark.parametrize("surface", ["", "   "], ids=["empty", "blank"])
def test_empty_token_surface_names_line(tmp_path, surface):
    path = _write_talk(tmp_path, ["aa"], ["tt"], [[("aa", "NOUN")]],
                       [[("tt", "NOUN"), (surface, "NOUN")]])
    with pytest.raises(ParseError) as err:
        load_document_pair(read_manifest(path))
    assert "empty token surface" in str(err.value)
    assert f"{tmp_path / 't.tsv'}:2" in str(err.value)


def test_empty_unit_line_rejected(tmp_path):
    path = _write_talk(tmp_path, ["aa", "   "], ["tt"],
                       [[("aa", "NOUN")], [("bb", "NOUN")]], [[("tt", "NOUN")]])
    with pytest.raises(ParseError):
        load_document_pair(read_manifest(path))


@pytest.mark.parametrize("empty", ["source", "target"])
def test_empty_side_names_its_units_file(tmp_path, empty):
    lines = {side: [] if side == empty else ["aa"] for side in ("source", "target")}
    blocks = {side: [[("aa", "NOUN")]] if lines[side] else [] for side in lines}
    path = _write_talk(tmp_path, lines["source"], lines["target"],
                       blocks["source"], blocks["target"])
    with pytest.raises(ValidationError) as err:
        load_document_pair(read_manifest(path))
    named = tmp_path / ("s.txt" if empty == "source" else "t.txt")
    assert f"[{named}]" in str(err.value)
    assert "both sides must have at least one unit" in str(err.value)


def write_document_pair(document, out_dir, newline="\n"):
    out_dir.mkdir()
    for name, text in talk_texts(document).items():
        (out_dir / name).write_text(text, encoding="utf-8", newline=newline)
    return out_dir / MANIFEST_NAME


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_round_trip_identity(tmp_path, newline):
    original = doc(["aa bb", "cc dd ee"], ["xx", "yy zz"],
                   src_tags=[[Pos.NOUN, Pos.OTHER], [Pos.VERB, Pos.NUM, Pos.PRON]],
                   tgt_tags=[[Pos.PROPN], [Pos.NOUN, Pos.OTHER]])
    manifest_path = write_document_pair(original, tmp_path / "talk", newline)
    assert newline.encode() in manifest_path.with_name("source_tags.tsv").read_bytes()
    reloaded = load_document_pair(read_manifest(manifest_path))
    assert reloaded == original
    # and a second write/load cycle is stable
    second = write_document_pair(reloaded, tmp_path / "talk2", newline)
    assert load_document_pair(read_manifest(second)) == original
