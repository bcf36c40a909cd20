import random

import pytest

from si_align.corpus import AlignedPair, ParseError, ValidationError
from si_align.curation import (AnnotationRecord, export_annotations,
                               annotations_text, import_annotations,
                               read_annotations_tsv)

from conftest import doc


def _doc(n=5, talk_id="curate"):
    return doc([f"source {i}" for i in range(n)],
               [f"target {i}" for i in range(n)], talk_id=talk_id)


def _pairs(n=5):
    return [AlignedPair(i, 1, i, 1, 0.0) for i in range(n)]


def test_export_unlabeled_records():
    document = _doc()
    records = export_annotations({"curate": (_pairs(), document)})
    assert len(records) == 5
    assert all(r.good_align is None and r.good_mt is None and r.edited_target is None
               for r in records)
    assert records[0].source_text == "source 0"


def test_export_sorted_after_shuffle():
    document = _doc()
    pairs = _pairs()
    random.Random(3).shuffle(pairs)
    records = export_annotations({"curate": (pairs, document)})
    assert [r.src_start for r in records] == sorted(r.src_start for r in records)


def _round_trip(tmp_path, records, newline="\n"):
    path = tmp_path / "anno.tsv"
    path.write_text(annotations_text(records), encoding="utf-8", newline=newline)
    return path


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_round_trip_identity(tmp_path, newline):
    document = _doc()
    records = export_annotations({"curate": (_pairs(), document)})
    labeled = [AnnotationRecord(**{**r.__dict__, "good_align": True, "good_mt": True})
               for r in records]
    path = _round_trip(tmp_path, labeled, newline)
    assert path.read_bytes().count(newline.encode()) == len(records) + 1
    kept, counts = import_annotations(path, {"curate": document})
    assert [(c.pair.key()) for c in kept] == [p.key() for p in _pairs()]
    assert [c.target_text for c in kept] == [f"target {i}" for i in range(5)]
    assert counts[("true", "true")] == 5


def test_import_subset_and_labels(tmp_path):
    document = _doc(3)
    base = export_annotations({"curate": (_pairs(3), document)})
    labeled = [
        AnnotationRecord(**{**base[0].__dict__, "good_align": True, "good_mt": True}),
        AnnotationRecord(**{**base[1].__dict__, "good_align": True, "good_mt": False}),
        AnnotationRecord(**{**base[2].__dict__, "good_align": False, "good_mt": False}),
    ]
    path = _round_trip(tmp_path, labeled)
    kept, counts = import_annotations(path)
    assert len(kept) == 1 and kept[0].pair.src_start == 0
    assert counts[("true", "false")] == 1 and counts[("false", "false")] == 1


def test_import_applies_edited_target(tmp_path):
    document = _doc(1)
    base = export_annotations({"curate": (_pairs(1), document)})[0]
    edited = AnnotationRecord(**{**base.__dict__, "good_align": True, "good_mt": True,
                                 "edited_target": "  they  kept   government "})
    path = _round_trip(tmp_path, [edited])
    kept, _ = import_annotations(path)
    assert kept[0].target_text == "they kept government"


def test_label_implication_all_three_invalid_combos():
    invalid = [(None, True), (False, True), (None, False)]
    for good_align, good_mt in invalid:
        record = AnnotationRecord("t", 0, 1, 0, 1, "s", "f",
                                  good_align=good_align, good_mt=good_mt)
        with pytest.raises(ValidationError):
            record.validate()
    valid = [(True, True), (True, False), (False, False),
             (True, None), (False, None), (None, None)]
    for good_align, good_mt in valid:
        AnnotationRecord("t", 0, 1, 0, 1, "s", "f",
                         good_align=good_align, good_mt=good_mt).validate()


def test_import_rejects_invalid_combo_in_file(tmp_path):
    document = _doc(1)
    base = export_annotations({"curate": (_pairs(1), document)})[0]
    bad = AnnotationRecord(**{**base.__dict__, "good_align": None, "good_mt": True})
    path = _round_trip(tmp_path, [bad])
    with pytest.raises(ValidationError) as err:
        import_annotations(path)
    assert f"{path}:2" in str(err.value)


@pytest.mark.parametrize("span,message", [((-1, 1, 0, 3), "negative span field"),
                                          ((0, 0, 0, 0), "both spans empty")])
def test_bad_span_rejected_whatever_the_labels(tmp_path, span, message):
    """A span no link may have is refused at its line, also on a row that
    would not be kept."""
    document = _doc(1)
    base = export_annotations({"curate": (_pairs(1), document)})[0]
    for good_align, good_mt in ((True, True), (False, False), (None, None)):
        bad = AnnotationRecord(**{**base.__dict__, "src_start": span[0], "src_len": span[1],
                                  "tgt_start": span[2], "tgt_len": span[3],
                                  "good_align": good_align, "good_mt": good_mt})
        path = _round_trip(tmp_path, [base, bad])
        with pytest.raises(ValidationError) as err:
            import_annotations(path)
        assert message in err.value.message and (err.value.path, err.value.line) == (str(path), 3)


def test_empty_edited_target_rejected():
    record = AnnotationRecord("t", 0, 1, 0, 1, "s", "f",
                              good_align=True, good_mt=True, edited_target="   ")
    with pytest.raises(ValidationError):
        record.validate()


def test_span_edit_validated_against_bounds(tmp_path):
    document = _doc(2)
    base = export_annotations({"curate": (_pairs(2), document)})[0]
    resized = AnnotationRecord(**{**base.__dict__, "good_align": True, "good_mt": True,
                                  "tgt_len": 99})
    path = _round_trip(tmp_path, [resized])
    with pytest.raises(ValidationError) as err:
        import_annotations(path, {"curate": document})
    assert f"{path}:2" in str(err.value)
    # without documents the file is structurally fine
    kept, _ = import_annotations(path)
    assert len(kept) == 1


def test_malformed_rows_name_line(tmp_path):
    path = tmp_path / "anno.tsv"
    path.write_text("talk_id\tsrc_start\n", encoding="utf-8")
    with pytest.raises(ParseError):
        read_annotations_tsv(path)
    good_header = "\t".join(
        ("talk_id", "src_start", "src_len", "tgt_start", "tgt_len",
         "source_text", "target_text", "good_align", "good_mt", "edited_target"))
    path.write_text(good_header + "\nt0\tx\t1\t0\t1\ts\tf\t\t\t\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        read_annotations_tsv(path)
    assert ":2" in str(err.value)
    path.write_text(good_header + "\nt0\t0\t1\t0\t1\ts\tf\tmaybe\t\t\n", encoding="utf-8")
    with pytest.raises(ParseError):
        read_annotations_tsv(path)


def test_imported_size_never_exceeds_exported(tmp_path):
    rng = random.Random(4242)
    document = _doc(8)
    base = export_annotations({"curate": (_pairs(8), document)})
    choices = [True, False, None]
    for _ in range(50):
        records = []
        for r in base:
            good_align = rng.choice(choices)
            good_mt = rng.choice(choices)
            if good_mt is not None and good_align is None:
                good_align = True
            if good_mt is True and good_align is not True:
                good_align = True
            records.append(AnnotationRecord(**{**r.__dict__, "good_align": good_align,
                                               "good_mt": good_mt}))
        path = _round_trip(tmp_path, records)
        kept, counts = import_annotations(path)
        assert len(kept) <= len(records)
        assert sum(counts.values()) == len(records)
