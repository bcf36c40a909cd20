import json

import pytest

from si_align.corpus import Rank, ValidationError
from si_align.splitter import (ContaminationError, StatsTable,
                               corpus_stats, make_split, read_allowlist, split_text)


TALKS = [f"talk{i}" for i in range(10)]


def test_basic_split_disjoint():
    dev, test = {"talk0", "talk1"}, {"talk2", "talk3"}
    allow = set(TALKS[4:])
    split = make_split(TALKS, allow, dev, test)
    assert split.train_ids == frozenset(TALKS[4:])
    assert split.dev_ids == dev and split.test_ids == test
    assert not (split.train_ids & split.dev_ids)
    assert not (split.train_ids & split.test_ids)
    assert not (split.dev_ids & split.test_ids)


def test_contamination_error_names_talk():
    allow = set(TALKS[4:]) | {"talk0"}
    with pytest.raises(ContaminationError) as err:
        make_split(TALKS, allow, {"talk0"}, {"talk2"})
    assert "talk0" in str(err.value)


def test_dev_test_overlap_rejected():
    with pytest.raises(ValidationError):
        make_split(TALKS, set(), {"talk1"}, {"talk1"})


def test_unknown_id_rejected():
    with pytest.raises(ValidationError) as err:
        make_split(TALKS, set(), {"nope"}, set())
    assert "nope" in str(err.value)


def test_split_determinism_and_round_trip():
    split_a = make_split(TALKS, set(TALKS[5:]), {"talk0"}, {"talk1"}, "mustc-train")
    split_b = make_split(TALKS, set(TALKS[5:]), {"talk0"}, {"talk1"}, "mustc-train")
    assert split_a == split_b
    obj = json.loads(split_text(split_a))
    assert obj == {"train_ids": sorted(split_a.train_ids), "dev_ids": ["talk0"],
                   "test_ids": ["talk1"], "allowlist_id_source": "mustc-train"}


def test_allowlist_reader(tmp_path):
    path = tmp_path / "allow.txt"
    path.write_text("talk1\n\n talk2 \ntalk3\n", encoding="utf-8")
    assert read_allowlist(path) == {"talk1", "talk2", "talk3"}


def test_stats_empty_corpus_all_zero():
    table = corpus_stats({}, {})
    assert all(t == 0 and p == 0 for _, _, t, p in table.rows)
    assert len(table.rows) == 6  # 3 variants x 2 subsets


def test_stats_counts():
    ranks = {f"t{i}": Rank.S if i == 0 else Rank.A for i in range(3)}
    counts = {"coarse": {f"t{i}": 10 for i in range(3)}}
    table = corpus_stats(counts, ranks)
    row = {(v, s): (t, p) for v, s, t, p in table.rows}
    assert row[("coarse", "all")] == (3, 30)
    assert row[("coarse", "S-rank")] == (1, 10)
    assert row[("intra", "all")] == (0, 0)


def test_stats_attrition_ordering():
    ranks = {f"t{i}": Rank.B for i in range(4)}
    counts = {
        "coarse": {f"t{i}": 20 for i in range(4)},
        "intra": {f"t{i}": 20 for i in range(4)},
        "inter": {f"t{i}": 14 for i in range(4)},
    }
    table = corpus_stats(counts, ranks)
    row = {(v, s): p for v, s, _, p in table.rows}
    assert row[("inter", "all")] <= row[("intra", "all")] <= row[("coarse", "all")]


def test_stats_renderings():
    table = StatsTable(rows=(("coarse", "all", 2, 30),))
    assert table.as_tsv().splitlines()[0] == "variant\tsubset\ttalks\tpairs"
    assert "coarse" in table.as_text()
