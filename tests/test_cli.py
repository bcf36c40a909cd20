import argparse
import concurrent.futures
import copy
import dataclasses
import json
import logging
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from si_align import align, cli, embeddings, inter, splitter
from si_align.cli import main
from si_align.embeddings import MissingWindowError
from si_align.inter import MissingReferenceError


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


def export_annotations(tmp_path):
    """Config and exported annotation file of a one-talk pipeline run."""
    cfg = write_config(tmp_path, noise={})
    assert run(["synth", "--config", cfg, "--seed", "2", "--talks", "1",
                "--sentences", "6"]) == 0
    assert run(["pipeline", "--config", cfg]) == 0
    assert run(["export-anno", "--config", cfg, "--stage", "inter"]) == 0
    return cfg, tmp_path / "out" / "annotations.tsv"


def test_annotation_export_import_cycle(tmp_path):
    cfg, anno = export_annotations(tmp_path)
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


def test_annotation_label_error_names_file_and_line(tmp_path, capsys):
    cfg, anno = export_annotations(tmp_path)
    lines = anno.read_text(encoding="utf-8").splitlines()
    cols = lines[3].split("\t")
    cols[7], cols[8] = "", "true"  # good_mt set, good_align not
    lines[3] = "\t".join(cols)
    anno.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert run(["import-anno", "--config", cfg, anno]) == 1
    err = capsys.readouterr().err
    assert "good_mt is set but good_align is not" in err
    assert f"{anno}:4" in err
    assert not (tmp_path / "out" / "curated.jsonl").exists()


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
                                               ("embedding", "dim", 10**12),
                                               ("synth", "vocab_size", "two"),
                                               ("inter", "gamma_min", float("nan")),
                                               ("inter", "eta_min", float("nan")),
                                               (None, "align", 5),
                                               (None, "embedding", 5),
                                               (None, "corpus", 5),
                                               (None, "out_dir", 5),
                                               (None, "dev_ids", 5),
                                               ("inter", "per_talk", 5),
                                               ("embedding", "path_pattern", 5)])
def test_wrong_typed_config_value_exit_one(tmp_path, capsys, section, key, value):
    # section None: a top-level key
    cfg = write_config(tmp_path, **({section: {key: value}} if section else {key: value}))
    assert run(["synth", "--config", cfg, "--talks", "1", "--sentences", "4"]) == 1
    err = capsys.readouterr().err
    assert (f"{section}.{key}" if section else key) in err and str(cfg) in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,section,key,value", [("bench", None, "bench_talks", 0),
                                                       ("synth", "synth", "vocab_size", 49),
                                                       ("synth", "synth", "talks", -2),
                                                       ("bench", "synth", "sentences", 0)])
def test_out_of_range_config_value_named_at_load(tmp_path, capsys, command, section, key, value):
    """A value the command could not use is refused when the config loads,
    naming the file and the dotted key, before anything is written."""
    cfg = write_config(tmp_path, **({section: {key: value}} if section else {key: value}))
    assert run([command, "--config", cfg]) == 1
    assert f"{cfg}: {section + '.' if section else ''}{key}: must be >= " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("rates,noise,message", [
    ([1.5], {}, "noise rates must lie in [0,1]"),
    ([0.0, 0.5], {"split_rate": 0.6}, "noise rates must sum to at most 1")],
    ids=["outside_unit_interval", "sum_above_one"])
def test_bench_omission_rate_checked_at_load(tmp_path, capsys, rates, noise, message):
    """Each bench omission rate must make a valid `noise` section with the
    configured rates; a bad one is named with the config file at load."""
    cfg = write_config(tmp_path, bench_omission_rates=rates, noise=noise)
    assert run(["bench", "--config", cfg]) == 1
    assert f"{cfg}: bench_omission_rates: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_root_not_object_exit_one(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text("[]", encoding="utf-8")
    assert run(["synth", "--config", cfg, "--talks", "1", "--sentences", "4"]) == 1
    assert f"{cfg}: root" in capsys.readouterr().err


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


def test_table_over_cell_limit_exit_one(tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path)
    assert run(["synth", "--config", cfg, "--talks", "1", "--sentences", "5"]) == 0
    monkeypatch.setattr(embeddings, "MAX_TABLE_CELLS", 1000)
    capsys.readouterr()
    assert run(["pipeline", "--config", cfg]) == 1
    assert "talk0000: embedding.dim 1024" in capsys.readouterr().err
    assert not (tmp_path / "out" / "coarse").exists()


def test_memory_error_exit_one(tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path)
    assert run(["synth", "--config", cfg, "--talks", "1", "--sentences", "5"]) == 0

    def exhausted(*args):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr(align, "dp_align", exhausted)
    capsys.readouterr()
    assert run(["align", "--config", cfg]) == 1
    err = capsys.readouterr().err.splitlines()
    assert "error: out of memory: Unable to allocate 7.28 TiB for an array" in err
    assert not any("Traceback" in line for line in err)


@pytest.mark.parametrize("error", [MissingWindowError("source", 3, 2, "emb/t0.tsv"),
                                   MissingWindowError("target", 1, 1),
                                   MissingReferenceError("t0", 2, 3)],
                         ids=["window", "window-no-path", "reference"])
def test_missing_errors_survive_pickling(error):
    """A `--jobs` worker sends its exception back pickled."""
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error) and str(copy) == str(error)
    assert vars(copy) == vars(error)


@pytest.mark.parametrize("jobs,workers", [(8, 3), (2, 2)])
def test_worker_count_capped_at_talks(monkeypatch, jobs, workers):
    started = []

    class InlinePool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    cfg = cli.PipelineConfig(out_dir=".", jobs=jobs)
    assert cli._map_talks(lambda doc, cfg: doc * 2, [1, 2, 3], cfg) == [2, 4, 6]
    assert started == [workers]


def test_jobs_parity(tmp_path, capsys):
    """`--jobs 1` and `--jobs 2` write the same artifacts, and fail alike
    when a vector row is missing or a value is bad."""
    cfg = write_config(tmp_path, embedding={"kind": "precomputed_file",
                                            "path_pattern": "vectors/{talk_id}.tsv"})
    assert run(["synth", "--config", cfg, "--seed", "3", "--talks", "3",
                "--sentences", "8"]) == 0
    params = embeddings.EmbeddingProviderSpec(dim=128, orders=(3, 4))
    out = tmp_path / "out"
    (out / "vectors").mkdir()
    for doc in cli.load_corpus(cli.PipelineConfig(out_dir=out, corpus=out / "corpus.json")):
        table = embeddings.build_fallback_table(doc, params)
        embeddings.write_table_file(table, out / "vectors" / f"{doc.talk_id}.tsv")

    def artifacts(out_dir):
        return {path.name: json.loads(path.read_text())["artifacts"]
                for path in sorted((tmp_path / out_dir / "manifests").glob("*.json"))}

    for jobs in (1, 2):
        assert run(["pipeline", "--config", cfg, "--jobs", jobs, "--out-dir", f"run{jobs}"]) == 0
    serial = artifacts("run1")
    assert len(serial) == 5 and serial == artifacts("run2")

    vectors = out / "vectors" / "talk0001.tsv"
    lines = vectors.read_text(encoding="utf-8").splitlines(keepends=True)
    vectors.write_text("".join(lines[:2] + lines[3:]), encoding="utf-8")
    errors = []
    for jobs in (1, 2):
        capsys.readouterr()
        assert run(["pipeline", "--config", cfg, "--jobs", jobs, "--out-dir", f"bad{jobs}"]) == 2
        errors.append([l for l in capsys.readouterr().err.splitlines() if l.startswith("error:")])
    assert errors[0] == errors[1] and len(errors[0]) == 1
    assert str(vectors) in errors[0][0]

    # a value numpy's parser rejects, on a line past the first parse chunk
    line = embeddings.PARSE_CHUNK_ROWS + 5
    assert len(lines) > line
    cols = lines[line - 1].split("\t")
    cols[3] = "1_0," + cols[3].split(",", 1)[1]
    lines[line - 1] = "\t".join(cols)
    vectors.write_text("".join(lines), encoding="utf-8")
    for jobs in (1, 2):
        capsys.readouterr()
        assert run(["pipeline", "--config", cfg, "--jobs", jobs, "--out-dir", f"value{jobs}"]) == 2
        err = capsys.readouterr().err
        assert f"[{vectors}:{line}]" in err and "bad numeric field" in err
        assert "Traceback" not in err


def _rerun(*args):
    return lambda tmp_path, cfg: run([*args, "--config", cfg])


def _rerun_intra_max_trims(tmp_path, cfg):
    other = tmp_path / "trims0.json"
    other.write_text(json.dumps({**json.loads(cfg.read_text()),
                                 "intra": {"max_trims_per_side": 0}}), encoding="utf-8")
    return run(["filter-intra", "--config", other])


def _delete_manifest(command):
    return lambda tmp_path, cfg: (tmp_path / "out" / "manifests" / f"{command}.json").unlink()


def _strip_lineage(tmp_path, cfg):
    path = tmp_path / "out" / "manifests" / "filter-intra.json"
    obj = json.loads(path.read_text())
    obj.pop("upstream", None)
    path.write_text(json.dumps(obj), encoding="utf-8")


def _unlist_coarse_talk(tmp_path, cfg):
    path = tmp_path / "out" / "manifests" / "align.json"
    obj = json.loads(path.read_text())
    del obj["artifacts"]["coarse/talk0001.jsonl"]
    path.write_text(json.dumps(obj), encoding="utf-8")


def _tree(out):
    return {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}


@pytest.mark.parametrize("change,refused,named,accepted", [
    (_rerun("align", "--max-src-span", "1", "--max-tgt-span", "1"),
     [["filter-inter"], ["stats"], ["export-anno", "--stage", "intra"],
      ["export-anno", "--stage", "inter"]],
     "align.json",
     [["validate"], ["filter-intra"]]),
    (_rerun_intra_max_trims,
     [["stats"], ["export-anno", "--stage", "inter"]],
     "filter-intra.json",
     [["validate"], ["export-anno", "--stage", "intra"], ["filter-inter"], ["stats"]]),
    (_delete_manifest("align"),
     [["filter-intra"], ["validate"], ["filter-inter"], ["stats"],
      ["export-anno", "--stage", "coarse"]],
     "align.json",
     []),
    (_strip_lineage,
     [["filter-inter"], ["stats"], ["export-anno", "--stage", "intra"]],
     "filter-intra.json",
     [["filter-intra"], ["filter-inter"], ["stats"]]),
    (_unlist_coarse_talk,
     [["filter-intra"], ["validate"], ["export-anno", "--stage", "coarse"]],
     "align.json",
     [["align"], ["filter-intra"]]),
], ids=["align-rerun", "intra-rerun", "align-manifest-deleted", "no-lineage", "talk-unlisted"])
def test_stale_upstream_refused(tmp_path, capsys, change, refused, named, accepted):
    """A command whose upstream manifest is missing, or has changed since its
    input stage was made, exits 1 naming it and writes nothing."""
    cfg = write_config(tmp_path)
    assert run(["synth", "--config", cfg, "--seed", "4", "--talks", "2",
                "--sentences", "8"]) == 0
    assert run(["pipeline", "--config", cfg]) == 0
    assert not change(tmp_path, cfg)
    out = tmp_path / "out"
    for args in refused:
        before = _tree(out)
        capsys.readouterr()
        assert run([*args, "--config", cfg]) == 1, args
        err = capsys.readouterr().err
        assert f"manifests/{named}" in err, (args, err)
        assert _tree(out) == before, args
    for args in accepted:
        assert run([*args, "--config", cfg]) == 0, args


@pytest.mark.parametrize("text", ["[]", '{"upstream": []}', '{"artifacts": 5}'])
def test_malformed_stage_manifest_exit_two(tmp_path, capsys, text):
    cfg = write_config(tmp_path)
    assert run(["synth", "--config", cfg, "--talks", "1", "--sentences", "5"]) == 0
    assert run(["align", "--config", cfg]) == 0
    manifest = tmp_path / "out" / "manifests" / "align.json"
    manifest.write_text(text, encoding="utf-8")
    capsys.readouterr()
    assert run(["filter-intra", "--config", cfg]) == 2
    assert f"not a run manifest [{manifest}]" in capsys.readouterr().err
    assert not (tmp_path / "out" / "intra").exists()


def test_hand_edited_stage_file_refused(tmp_path, capsys):
    """A stage file that no longer hashes as its manifest lists it exits 1,
    naming the file and the manifest, and nothing is written."""
    cfg = write_config(tmp_path)
    assert run(["synth", "--config", cfg, "--talks", "2", "--sentences", "6"]) == 0
    assert run(["pipeline", "--config", cfg]) == 0
    out = tmp_path / "out"
    links = out / "intra" / "talk0001.jsonl"
    rows = links.read_text(encoding="utf-8").splitlines(keepends=True)
    links.write_text("".join(rows[:-1]), encoding="utf-8")  # still valid: one link fewer
    before = _tree(out)
    capsys.readouterr()
    assert run(["filter-inter", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert str(links) in err and str(out / "manifests" / "filter-intra.json") in err
    assert _tree(out) == before


def test_missing_trims_file_exit_two(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert run(["synth", "--config", cfg, "--talks", "1", "--sentences", "5"]) == 0
    assert run(["pipeline", "--config", cfg]) == 0
    trims = tmp_path / "out" / "intra" / "talk0000.trims.jsonl"
    trims.unlink()
    capsys.readouterr()
    assert run(["filter-inter", "--config", cfg]) == 2
    assert str(trims) in capsys.readouterr().err


def test_pipeline_reads_no_stage_file(tmp_path, monkeypatch):
    from si_align import intra

    cfg = write_config(tmp_path)
    assert run(["synth", "--config", cfg, "--talks", "2", "--sentences", "5"]) == 0

    def forbidden(path):
        raise AssertionError(f"pipeline read {path}")

    monkeypatch.setattr(align, "read_alignment_jsonl", forbidden)
    monkeypatch.setattr(intra, "read_trims", forbidden)
    assert run(["pipeline", "--config", cfg]) == 0


@pytest.mark.parametrize("inter,flags,key", [
    ({"eta_min": 5}, [], "inter.eta_min"),
    ({"eta_min": -0.1}, [], "inter.eta_min"),
    ({}, ["--eta-min", "5"], "inter.eta_min"),
    ({"per_talk": {"talk0000": {"eta_min": 1.5}}}, [], "inter.per_talk.talk0000.eta_min"),
], ids=["config-high", "config-negative", "flag", "per-talk"])
def test_eta_min_outside_chrf_range_exit_one(tmp_path, capsys, inter, flags, key):
    cfg = write_config(tmp_path, inter=inter)
    assert run(["synth", "--config", cfg, "--talks", "1", "--sentences", "4", *flags]) == 1
    err = capsys.readouterr().err
    assert key in err and str(cfg) in err
    assert not (tmp_path / "out").exists()
    # an external score file has no fixed range
    cfg = write_config(tmp_path, inter=inter, scores_path="scores.tsv")
    assert run(["synth", "--config", cfg, "--talks", "1", "--sentences", "4", *flags]) == 0


def test_external_eta_min_above_every_score_warns(tmp_path, caplog):
    """A talk whose external scores all lie below `eta_min` gets one warning
    naming it and the threshold; its decisions are written as before."""
    cfg = write_config(tmp_path, inter={"eta_min": 0.7}, scores_path="scores.tsv")
    assert run(["synth", "--config", cfg, "--seed", "5", "--talks", "2",
                "--sentences", "6"]) == 0
    score = {"talk0000": 0.5, "talk0001": 0.9}
    (tmp_path / "scores.tsv").write_text("".join(
        f"{talk}\t{start}\t{length}\t{value}\n" for talk, value in score.items()
        for start in range(40) for length in range(1, 5)), encoding="utf-8")
    assert run(["pipeline", "--config", cfg]) == 0
    decisions = (tmp_path / "out" / "decisions" / "talk0000.jsonl").read_bytes()
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="si_align.cli"):
        assert run(["filter-inter", "--config", cfg]) == 0
    warnings = [r.getMessage() for r in caplog.records if r.name == "si_align.cli"]
    assert len(warnings) == 1
    assert warnings[0].startswith("talk0000: inter.eta_min 0.7 exceeds every external score")
    assert (tmp_path / "out" / "decisions" / "talk0000.jsonl").read_bytes() == decisions
    rows = [json.loads(line) for line in decisions.decode("utf-8").splitlines()]
    assert rows and all("eta" in row["reasons"] for row in rows)


def test_align_rerun_with_same_output_keeps_stages_current(tmp_path):
    """Lineage records what each run wrote: an `align` rerun whose coarse
    links are byte-identical leaves the intra stage current."""
    cfg = write_config(tmp_path)
    assert run(["synth", "--config", cfg, "--seed", "4", "--talks", "2",
                "--sentences", "8"]) == 0
    assert run(["pipeline", "--config", cfg]) == 0
    assert run(["align", "--config", cfg, "--eta-min", "0.3"]) == 0
    assert run(["filter-inter", "--config", cfg]) == 0


def test_validate_reads_every_gold_file_before_writing(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert run(["synth", "--config", cfg, "--talks", "3", "--sentences", "5"]) == 0
    assert run(["align", "--config", cfg]) == 0
    gold = tmp_path / "out" / "gold" / "talk0001.gold.jsonl"
    gold.unlink()
    before = _tree(tmp_path / "out")
    capsys.readouterr()
    assert run(["validate", "--config", cfg]) == 2
    assert str(gold) in capsys.readouterr().err
    assert _tree(tmp_path / "out") == before


@pytest.mark.parametrize("overrides,key", [
    ({"dev_id": ["talk0000"]}, "dev_id"),
    ({"synth": {"talk": 9}}, "synth.talk"),
    ({"embedding": {"dims": 2048}}, "embedding.dims"),
    ({"inter": {"per_talk": {"talk0000": {"eta": 0.2}}}}, "inter.per_talk.talk0000.eta"),
    ({"inter": {"per_talk": {"talk0000": {"per_talk": {}}}}}, "inter.per_talk.talk0000.per_talk"),
])
def test_unknown_config_key_exit_one(tmp_path, capsys, overrides, key):
    cfg = write_config(tmp_path, **overrides)
    assert run(["synth", "--config", cfg, "--talks", "1", "--sentences", "4"]) == 1
    assert f"{cfg}: {key}: unknown key" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_equivalent_configs_hash_alike(tmp_path):
    def params_hash(**overrides):
        cfg = cli.load_config(write_config(tmp_path, **overrides), argparse.Namespace())
        return cli.RunManifest("split", cfg).params_hash

    assert params_hash(embedding={}) == params_hash(embedding={"dim": 256})
    assert params_hash(align={}) == params_hash(align={"max_src_span": 4})
    assert params_hash(embedding={}) != params_hash(embedding={"dim": 512})


# a config that sets a key in every section, valid for `split` on the corpus
# of `split_dir`: talk0000 is held out for dev, so the allowlist omits it
VALID_CONFIG = {
    "out_dir": "out", "corpus": "out/corpus.json", "gold_dir": "out/gold",
    "refs_dir": "out/refs", "allowlist": "allow.txt", "dev_ids": ["talk0000"], "test_ids": [],
    "embedding": {"kind": "fallback_hash", "dim": 128, "orders": [3, 4], "seed": 17,
                  "path_pattern": ""},
    "align": {"max_src_span": 3, "skip_penalty": 0.6},
    "intra": {"content_pos": ["NOUN", "VERB"], "max_trims_per_side": 1},
    "inter": {"eta_min": 0.3, "coverage_pos": ["NOUN"],
              "per_talk": {"talk0000": {"alpha_min": 0.4}}},
    "noise": {"split_rate": 0.2, "rng_seed": 3},
    "synth": {"talks": 2, "sentences": 4, "vocab_size": 100, "seed": 7},
    "epsilons": [0.5], "bench_omission_rates": [0.0], "bench_talks": 2, "jobs": 1,
}


@pytest.fixture(scope="module")
def split_dir(tmp_path_factory):
    """A synthetic 2-talk corpus under `out/` that `VALID_CONFIG` splits."""
    base = tmp_path_factory.mktemp("split")
    (base / "allow.txt").write_text(splitter.allowlist_text(["talk0001"]), encoding="utf-8")
    cfg = write_config(base)
    assert run(["synth", "--config", cfg, "--talks", "2", "--sentences", "4"]) == 0
    (base / "valid.json").write_text(json.dumps(VALID_CONFIG), encoding="utf-8")
    assert run(["split", "--config", base / "valid.json"]) == 0
    return base


def _key_paths(obj, prefix=()):
    for key, value in obj.items():
        yield (*prefix, key)
        if isinstance(value, dict):
            yield from _key_paths(value, (*prefix, key))


@st.composite
def mutated_configs(draw):
    """VALID_CONFIG with one key, at any level, dropped, renamed, retyped,
    set out of range, or given an unknown sibling."""
    cfg = copy.deepcopy(VALID_CONFIG)
    *parents, key = draw(st.sampled_from(list(_key_paths(VALID_CONFIG))))
    obj = cfg
    for parent in parents:
        obj = obj[parent]
    mutation = draw(st.sampled_from(["drop", "rename", "retype", "range", "add"]))
    if mutation == "drop":
        del obj[key]
    elif mutation == "rename":
        obj[key + "s"] = obj.pop(key)
    elif mutation == "retype":
        obj[key] = draw(st.sampled_from([None, True, 5, 0.5, "x", "NOUN", [], [5], ["x"], {}]))
    elif mutation == "range":
        obj[key] = draw(st.sampled_from([-1, 0, 2, 10**6, -0.5, 1e300]))
    else:
        obj["unknown"] = 1
    return cfg


@settings(max_examples=60, deadline=None)
@given(cfg=mutated_configs())
def test_mutated_config_exits_cleanly(split_dir, cfg):
    """Whatever the mutation, `split` exits 0, 1 or 2 without a traceback,
    and a failed run leaves the tree as it was."""
    path = split_dir / "mutated.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    before = _tree(split_dir)
    code = run(["split", "--config", path])
    assert code in (0, 1, 2)
    if code:
        assert _tree(split_dir) == before


def _config_keys(default, prefix=""):
    """(dotted key, default value) of every key of a config object, nested
    sections included."""
    for field in dataclasses.fields(default):
        value = getattr(default, field.name)
        yield prefix + field.name, value
        if dataclasses.is_dataclass(value):
            yield from _config_keys(value, f"{prefix}{field.name}.")


CONFIG_KEYS = [*_config_keys(cli.PipelineConfig()),
               *_config_keys(inter.InterFilterParams(), "inter.per_talk.talk0000.")]


@pytest.mark.parametrize("dotted,default", CONFIG_KEYS, ids=[key for key, _ in CONFIG_KEYS])
def test_every_config_key_is_typed(split_dir, capsys, dotted, default):
    cfg = copy.deepcopy(VALID_CONFIG)
    *parents, key = dotted.split(".")
    obj = cfg
    for parent in parents:
        obj = obj.setdefault(parent, {})
    obj[key] = "x" if isinstance(default, (int, float)) else 5
    path = split_dir / "typed.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    before = _tree(split_dir / "out")
    capsys.readouterr()
    assert run(["split", "--config", path]) == 1
    assert f"{path}: {dotted}: expected" in capsys.readouterr().err
    assert _tree(split_dir / "out") == before
