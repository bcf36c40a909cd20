import json

import pytest

from si_align.cli import main


def write_config(tmp_path, **overrides):
    cfg = {
        "out_dir": "out",
        "corpus": "out/corpus.json",
        "gold_dir": "out/gold",
        "refs_dir": "out/refs",
        "allowlist": "out/allowlist.txt",
        "embedding": {"kind": "fallback_hash", "dim": 1024, "orders": [3, 4], "seed": 17},
        "noise": {"split_rate": 0.2, "filler_rate": 0.2},
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def run(args):
    return main([str(a) for a in args])


def test_synth_align_bench_happy_path(tmp_path):
    cfg = write_config(tmp_path, bench_talks=2, bench_omission_rates=[0.0, 0.2])
    assert run(["synth", "--config", cfg, "--seed", "7", "--talks", "3",
                "--sentences", "8"]) == 0
    assert run(["align", "--config", cfg]) == 0
    assert run(["bench", "--config", cfg]) == 0
    out = tmp_path / "out"
    assert (out / "bench.tsv").exists()
    lines = (out / "bench.tsv").read_text().splitlines()
    assert len(lines) == 3 and lines[0].startswith("omission_rate")
    assert (out / "coarse" / "talk0000.jsonl").exists()


def test_align_missing_embedding_file_exit_two(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert run(["synth", "--config", cfg, "--talks", "1", "--sentences", "5"]) == 0
    bad = write_config(tmp_path, embedding={"kind": "precomputed_file",
                                            "path_pattern": "emb/{talk_id}.tsv"})
    bad = bad.rename(tmp_path / "bad.json")
    assert run(["align", "--config", bad]) == 2
    err = capsys.readouterr().err
    assert "talk0000" in err


def test_missing_corpus_is_io_error(tmp_path):
    cfg = write_config(tmp_path, corpus="nowhere/corpus.json")
    assert run(["align", "--config", cfg]) == 2


def test_unknown_subcommand_exit_one(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == 1


def test_config_validation_before_artifacts(tmp_path, capsys):
    cfg = write_config(tmp_path, align={"max_src_span": 0})
    assert run(["synth", "--config", cfg, "--talks", "1", "--sentences", "4"]) == 1
    assert not (tmp_path / "out").exists()
    # skip_penalty must stay below prune_cost_threshold
    cfg = write_config(tmp_path, align={"skip_penalty": 0.9, "prune_cost_threshold": 0.8})
    capsys.readouterr()
    assert run(["synth", "--config", cfg, "--talks", "1", "--sentences", "4"]) == 1
    assert "align: skip_penalty 0.9" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_pipeline_determinism_checksums(tmp_path):
    cfg = write_config(tmp_path)
    assert run(["synth", "--config", cfg, "--seed", "11", "--talks", "2",
                "--sentences", "10"]) == 0
    assert run(["pipeline", "--config", cfg]) == 0
    manifests = tmp_path / "out" / "manifests"
    names = ("align", "filter-intra", "filter-inter", "split", "stats")
    first = {n: json.loads((manifests / f"{n}.json").read_text())["artifacts"]
             for n in names}
    assert run(["pipeline", "--config", cfg]) == 0
    second = {n: json.loads((manifests / f"{n}.json").read_text())["artifacts"]
              for n in names}
    assert first == second


def test_full_pipeline_attrition_and_validate(tmp_path):
    cfg = write_config(tmp_path,
                       noise={"mistranslation_rate": 0.2, "split_rate": 0.2,
                              "filler_rate": 0.2})
    assert run(["synth", "--config", cfg, "--seed", "23", "--talks", "3",
                "--sentences", "20"]) == 0
    assert run(["pipeline", "--config", cfg]) == 0
    assert run(["validate", "--config", cfg]) == 0
    out = tmp_path / "out"
    stats = (out / "stats.tsv").read_text().splitlines()
    counts = {}
    for line in stats[1:]:
        variant, subset, talks, pairs = line.split("\t")
        counts[(variant, subset)] = int(pairs)
    assert counts[("inter", "all")] <= counts[("intra", "all")] <= counts[("coarse", "all")]
    assert (out / "reports" / "recovery.tsv").exists()
    report = json.loads((out / "reports" / "talk0000.recovery.json").read_text())
    accs = [report["accuracy_at"][k] for k in sorted(report["accuracy_at"], key=float)]
    assert all(a >= b for a, b in zip(accs, accs[1:]))


def test_annotation_export_import_cycle(tmp_path):
    cfg = write_config(tmp_path, noise={})
    assert run(["synth", "--config", cfg, "--seed", "2", "--talks", "1",
                "--sentences", "6"]) == 0
    assert run(["pipeline", "--config", cfg]) == 0
    assert run(["export-anno", "--config", cfg, "--stage", "inter"]) == 0
    anno = tmp_path / "out" / "annotations.tsv"
    lines = anno.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 7  # header + 6 pairs
    labeled = [lines[0]]
    for line in lines[1:]:
        cols = line.split("\t")
        cols[7], cols[8] = "true", "true"
        labeled.append("\t".join(cols))
    anno.write_text("\n".join(labeled) + "\n", encoding="utf-8")
    assert run(["import-anno", "--config", cfg, anno]) == 0
    curated = (tmp_path / "out" / "curated.jsonl").read_text().splitlines()
    assert len(curated) == 6
    counts = json.loads((tmp_path / "out" / "curation_counts.json").read_text())
    assert counts == {"true/true": 6}


def test_per_talk_threshold_override(tmp_path):
    cfg = write_config(
        tmp_path,
        noise={"mistranslation_rate": 0.3},
        inter={"eta_min": 0.35, "per_talk": {"talk0000": {"eta_min": 0.0, "alpha_min": 0.0,
                                                          "gamma_min": 0.01, "gamma_max": 99.0}}})
    assert run(["synth", "--config", cfg, "--seed", "31", "--talks", "2",
                "--sentences", "15"]) == 0
    assert run(["pipeline", "--config", cfg]) == 0
    out = tmp_path / "out"
    def kept_count(talk):
        path = out / "inter" / f"{talk}.jsonl"
        return sum(1 for line in path.read_text().splitlines() if line.strip())
    def coarse_kept(talk):
        path = out / "coarse" / f"{talk}.jsonl"
        return sum(1 for line in path.read_text().splitlines()
                   if line.strip() and not json.loads(line)["dropped"])
    # talk0000 runs with no-op thresholds: nothing the intra stage kept is dropped
    assert kept_count("talk0000") == coarse_kept("talk0000")


def test_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path)
    assert run(["synth", "--config", cfg, "--seed", "5", "--talks", "1",
                "--sentences", "6"]) == 0
    # the flag reaches AlignParams: a threshold below the default skip penalty is rejected
    assert run(["align", "--config", cfg, "--prune-cost", "0.0001"]) == 1
    assert run(["align", "--config", cfg, "--prune-cost", "0.0001",
                "--skip-penalty", "0.00005"]) == 0
    coarse = (tmp_path / "out" / "coarse" / "talk0000.jsonl").read_text().splitlines()
    dropped = [json.loads(l)["dropped"] for l in coarse if l.strip()]
    assert all(dropped)  # everything above the tiny threshold


@pytest.mark.parametrize("text", ["{not json", '{"talk": []}'])
def test_malformed_corpus_file_exit_two(tmp_path, capsys, text):
    cfg = write_config(tmp_path)
    corpus = tmp_path / "out" / "corpus.json"
    corpus.parent.mkdir()
    corpus.write_text(text, encoding="utf-8")
    assert run(["align", "--config", cfg]) == 2
    assert str(corpus) in capsys.readouterr().err


def test_malformed_trims_line_exit_two(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert run(["synth", "--config", cfg, "--talks", "1", "--sentences", "5"]) == 0
    assert run(["align", "--config", cfg]) == 0
    assert run(["filter-intra", "--config", cfg]) == 0
    trims = tmp_path / "out" / "intra" / "talk0000.trims.jsonl"
    first = trims.read_text(encoding="utf-8").splitlines()[0]
    trims.write_text(first + "\nnot json\n", encoding="utf-8")
    capsys.readouterr()
    assert run(["filter-inter", "--config", cfg]) == 2
    assert f"{trims}:2" in capsys.readouterr().err


@pytest.mark.parametrize("section,key,value", [("align", "max_src_span", "4"),
                                               ("align", "max_src_span", 4.0),
                                               ("intra", "content_pos", "NOUN"),
                                               (None, "jobs", "x"),
                                               (None, "epsilons", 5),
                                               ("embedding", "dim", "abc"),
                                               ("synth", "vocab_size", "two"),
                                               ("inter", "gamma_min", float("nan")),
                                               ("inter", "eta_min", float("nan"))])
def test_wrong_typed_config_value_exit_one(tmp_path, capsys, section, key, value):
    # section None: a top-level key
    cfg = write_config(tmp_path, **({section: {key: value}} if section else {key: value}))
    assert run(["synth", "--config", cfg, "--talks", "1", "--sentences", "4"]) == 1
    assert (f"{section}.{key}" if section else key) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_pipeline_loads_each_talk_once(tmp_path, monkeypatch):
    from si_align import corpus

    cfg = write_config(tmp_path)
    assert run(["synth", "--config", cfg, "--talks", "3", "--sentences", "5"]) == 0
    loaded = []
    load = corpus.load_document_pair
    monkeypatch.setattr(corpus, "load_document_pair",
                        lambda manifest: loaded.append(manifest.talk_id) or load(manifest))
    assert run(["pipeline", "--config", cfg]) == 0
    assert sorted(loaded) == ["talk0000", "talk0001", "talk0002"]
