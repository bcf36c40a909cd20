import argparse
import concurrent.futures
import copy
import dataclasses
import hashlib
import json
import logging
import os
import pickle
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import si_align
from si_align import align, cli, embeddings, inter, splitter, synth
from si_align.cli import main
from si_align.corpus import ParseError, ValidationError

from oracles import run_bench_setting


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


def test_bench_jobs_parity(tmp_path):
    """`bench --jobs 2` writes the bench.tsv of `--jobs 1`, which is each
    setting's talks aligned and scored one after another."""
    cfg = write_config(tmp_path, bench_talks=2, bench_omission_rates=[0.0, 0.2])
    for jobs in (1, 2):
        assert run(["bench", "--config", cfg, "--jobs", jobs, "--out-dir", f"run{jobs}"]) == 0
    serial = (tmp_path / "run1" / "bench.tsv").read_bytes()
    assert serial == (tmp_path / "run2" / "bench.tsv").read_bytes()
    config = cli.load_config(cfg, argparse.Namespace())
    noises = [dataclasses.replace(config.noise, omission_rate=om) for om in (0.0, 0.2)]
    rows = [(noise, 2, run_bench_setting(config.synth.seed, 2, config.synth.sentences, noise,
                                         config.synth.vocab_size)) for noise in noises]
    assert serial == synth.bench_text(rows).encode("utf-8")


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


@pytest.mark.parametrize("span,labels,message", [
    (("-1", "1", "0", "3"), ("false", ""), "negative span field in (-1, 1, 0, 3)"),
    (("2", "0", "2", "0"), ("true", "true"), "both spans empty")],
    ids=["negative_unkept", "empty_kept"])
def test_annotation_bad_span_names_file_and_line(tmp_path, capsys, span, labels, message):
    """A span no link may have exits 1 naming the file and line, whatever
    the row's labels."""
    cfg, anno = export_annotations(tmp_path)
    lines = anno.read_text(encoding="utf-8").splitlines()
    cols = lines[3].split("\t")
    cols[1:5], cols[7:9] = span, labels
    lines[3] = "\t".join(cols)
    anno.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert run(["import-anno", "--config", cfg, anno]) == 1
    assert f"{message} [{anno}:4]" in capsys.readouterr().err
    assert not (tmp_path / "out" / "curated.jsonl").exists()


def test_annotation_unknown_talk_names_file_and_line(tmp_path, capsys):
    """A record of a talk the corpus lacks exits 1 naming the file and line,
    and nothing is written."""
    cfg, anno = export_annotations(tmp_path)
    lines = anno.read_text(encoding="utf-8").splitlines()
    cols = lines[3].split("\t")
    cols[0], cols[7:9] = "talk9999", ["true", "true"]
    lines[3] = "\t".join(cols)
    anno.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert run(["import-anno", "--config", cfg, anno]) == 1
    assert f"talk9999: no talk of that id in the corpus [{anno}:4]" in capsys.readouterr().err
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


# a valid value, other than the default, for each flag of `cli.FLAGS`
FLAG_VALUES = {"--out-dir": "elsewhere", "--jobs": "3", "--seed": "9", "--alpha-min": "0.25",
               "--gamma-min": "0.3", "--gamma-max": "1.8", "--eta-min": "0.2",
               "--prune-cost": "0.9", "--max-src-span": "3", "--max-tgt-span": "2",
               "--skip-penalty": "0.5", "--talks": "3", "--sentences": "9", "--vocab-size": "60"}


@pytest.mark.parametrize("flag", list(cli.FLAGS))
def test_each_flag_sets_its_config_keys(capsys, flag):
    """A flag parsed for a command that takes it sets each config key of its
    `cli.FLAGS` row, and the command's `--help` names those keys; a synth
    flag given to another command is a usage error (exit 1)."""
    kind, keys = cli.FLAGS[flag]
    command = "synth" if flag in cli.SYNTH_FLAGS else "align"
    cfg = cli.load_config(None, cli.build_parser().parse_args([command, flag, FLAG_VALUES[flag]]))
    for dotted in keys:
        value, default = cfg, cli.PipelineConfig()
        for name in dotted.split("."):
            value, default = getattr(value, name), getattr(default, name)
        want = Path(FLAG_VALUES[flag]) if isinstance(default, Path) else kind(FLAG_VALUES[flag])
        assert value == want != default, dotted
    with pytest.raises(SystemExit) as exc:
        run([command, "--help"])
    assert exc.value.code == 0
    assert f"sets {' and '.join(keys)}" in " ".join(capsys.readouterr().out.split())
    if flag in cli.SYNTH_FLAGS:
        with pytest.raises(SystemExit) as exc:
            run(["align", flag, FLAG_VALUES[flag]])
        assert exc.value.code == 1


@pytest.mark.parametrize("argv, usage, message", [
    (["align", "--talks", "3"], "usage: si-align [-h]",
     "si-align: error: unrecognized arguments: --talks 3"),
    (["import-anno"], "usage: si-align import-anno [-h]",
     "si-align import-anno: error: the following arguments are required: annotations"),
], ids=["unknown-flag", "missing-path"])
def test_usage_error_says_what_was_wrong(capsys, argv, usage, message):
    """A usage error exits 1, printing the usage and then what was wrong."""
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith(usage) and err.splitlines()[-1] == message


@pytest.mark.parametrize("text", ["{not json", '{"talk": []}', pytest.param(
    "[" * 100_000 + "]" * 100_000, id="deeply_nested")])
def test_malformed_corpus_file_exit_two(tmp_path, capsys, text):
    cfg = write_config(tmp_path)
    corpus = tmp_path / "out" / "corpus.json"
    corpus.parent.mkdir()
    corpus.write_text(text, encoding="utf-8")
    assert run(["align", "--config", cfg]) == 2
    assert str(corpus) in capsys.readouterr().err


@pytest.mark.parametrize("talk_id", ["../../../escaped", "a/b", "a\\b", "..", ".", "nul\0"])
def test_talk_id_that_is_no_file_name_exit_two(tmp_path, capsys, talk_id):
    """A talk id names the talk's file in each stage directory, so a talk
    manifest whose `talk_id` is `.` or `..` or holds `/`, `\\` or NUL exits 2
    naming the manifest, and nothing is written, in the run's directory or
    above it."""
    (tmp_path / "run").mkdir()
    cfg = write_config(tmp_path / "run")
    assert run(["synth", "--config", cfg, "--talks", "1", "--sentences", "5"]) == 0
    manifest = tmp_path / "run" / "out" / "talks" / "talk0000" / "manifest.json"
    obj = json.loads(manifest.read_text(encoding="utf-8"))
    manifest.write_text(json.dumps({**obj, "talk_id": talk_id}), encoding="utf-8")
    before = _tree(tmp_path)
    capsys.readouterr()
    assert run(["align", "--config", cfg]) == 2
    assert f"talk_id {talk_id!r} must be a file name" in capsys.readouterr().err
    assert _tree(tmp_path) == before


def test_duplicate_talk_id_named_with_the_corpus(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert run(["synth", "--config", cfg, "--talks", "2", "--sentences", "5"]) == 0
    manifest = tmp_path / "out" / "talks" / "talk0001" / "manifest.json"
    obj = json.loads(manifest.read_text(encoding="utf-8"))
    manifest.write_text(json.dumps({**obj, "talk_id": "talk0000"}), encoding="utf-8")
    capsys.readouterr()
    assert run(["align", "--config", cfg]) == 1
    corpus = tmp_path / "out" / "corpus.json"
    assert f"error: duplicate talk_id 'talk0000' in corpus [{corpus}]" in capsys.readouterr().err


def test_malformed_trims_line_exit_two(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert run(["synth", "--config", cfg, "--talks", "1", "--sentences", "5"]) == 0
    assert run(["align", "--config", cfg]) == 0
    assert run(["filter-intra", "--config", cfg]) == 0
    trims = tmp_path / "out" / "intra" / "talk0000.trims.jsonl"
    first = trims.read_text(encoding="utf-8").splitlines()[0]
    trims.write_text(first + "\nnot json\n", encoding="utf-8")
    _resign(tmp_path / "out", "out/intra/talk0000.trims.jsonl")
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


@pytest.mark.parametrize("command,section,key,value,message", [
    ("bench", None, "bench_talks", 0, "must be >= 1, got 0"),
    ("synth", "synth", "vocab_size", 49, "must be >= 50, got 49"),
    ("synth", "synth", "talks", -2, "must be >= 1, got -2"),
    ("bench", "synth", "sentences", 0, "must be >= 1, got 0"),
    # a missing gold link scores 0, so at a negative epsilon it would count as recovered
    ("validate", None, "epsilons", [-0.1, 0.5], "must be in [0, 1), got -0.1"),
    ("validate", None, "epsilons", [0.5, 1.0], "must be in [0, 1), got 1.0")],
    ids=["bench-None-bench_talks-0", "synth-synth-vocab_size-49", "synth-synth-talks--2",
         "bench-synth-sentences-0", "validate-None-epsilons-negative", "validate-None-epsilons-1"])
def test_out_of_range_config_value_named_at_load(tmp_path, capsys, command, section, key, value,
                                                 message):
    """A value the command could not use is refused when the config loads,
    naming the file and the dotted key, before anything is written."""
    cfg = write_config(tmp_path, **({section: {key: value}} if section else {key: value}))
    assert run([command, "--config", cfg]) == 1
    assert f"{cfg}: {section + '.' if section else ''}{key}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("seed,code", [(10 ** 23, 1), (-(1 << 63) - 1, 1),
                                       (-(1 << 63), 0), ((1 << 63) - 1, 0)])
def test_embedding_seed_range_checked_at_load(tmp_path, capsys, seed, code):
    """The n-gram hash is keyed by the seed's 8 bytes: `align` with a
    `fallback_hash` seed outside -2**63..2**63-1 exits 1 when the config
    loads, naming the file and `embedding.seed`; the ends of the range align."""
    cfg = write_config(tmp_path)
    assert run(["synth", "--config", cfg, "--talks", "1", "--sentences", "4"]) == 0
    cfg = write_config(tmp_path, embedding={"kind": "fallback_hash", "dim": 64, "orders": [3],
                                            "seed": seed})
    capsys.readouterr()
    assert run(["align", "--config", cfg, "--out-dir", "aligned"]) == code
    err = capsys.readouterr().err
    if code:
        assert f"error: {cfg}: embedding.seed: must be in -2**63..2**63-1, got {seed}" in err
        assert not (tmp_path / "aligned").exists()
    else:
        assert err == ""


@pytest.mark.parametrize("args,key,message", [
    (["--max-src-span", 7], "align.max_src_span", "must be in 1..6, got 7"),
    (["--max-tgt-span", 0], "align.max_tgt_span", "must be in 1..6, got 0"),
    (["--jobs", 0], "jobs", "must be >= 1, got 0"),
    (["--jobs", -3], "jobs", "must be >= 1, got -3")],
    ids=["src_span_above_windows", "tgt_span_zero", "no_jobs", "negative_jobs"])
def test_span_limits_and_jobs_checked_at_load(tmp_path, capsys, args, key, message):
    """A span limit beyond the table's windows, or fewer than one job, is
    refused when the config loads, naming the file and the key, before
    `synth` writes references for it."""
    cfg = write_config(tmp_path)
    assert run(["synth", "--config", cfg, "--talks", "1", "--sentences", "4", *args]) == 1
    assert f"{cfg}: {key}: {message}" in capsys.readouterr().err
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


def test_vector_file_over_cell_limit_exit_two(tmp_path, monkeypatch, capsys):
    """A vector file whose first row is too wide for the table limit exits 2
    naming that row."""
    cfg = write_config(tmp_path, embedding={"kind": "precomputed_file",
                                            "path_pattern": "vectors/{talk_id}.tsv"})
    assert run(["synth", "--config", cfg, "--talks", "1", "--sentences", "5"]) == 0
    out = tmp_path / "out"
    (out / "vectors").mkdir()
    doc, = cli.load_corpus(cli.PipelineConfig(out_dir=out, corpus=out / "corpus.json"))
    vectors = out / "vectors" / "talk0000.tsv"
    embeddings.write_table_file(embeddings.build_fallback_table(
        doc, embeddings.EmbeddingProviderSpec(dim=128)), vectors)
    lines = vectors.read_text(encoding="utf-8").splitlines(keepends=True)
    vectors.write_text("\n" + "".join(lines), encoding="utf-8")
    monkeypatch.setattr(embeddings, "MAX_TABLE_CELLS", 1000)
    capsys.readouterr()
    assert run(["pipeline", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert f"128 values x {len(lines)} windows exceeds the table limit of 1000 cells " \
           f"[{vectors}:2]" in err
    assert not (out / "coarse").exists()


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


@pytest.mark.parametrize("error", [
    ParseError("no vector for window (source, start=3, len=2)", path="emb/t0.tsv"),
    ParseError("no vector for window (target, start=1, len=1)"),
    ParseError("no reference translation for t0 span (start=2, len=3)",
               path=Path("refs/t0.refs.jsonl")),
    ParseError("bad row: expected a JSON object", path="refs/t0.refs.jsonl", line=7),
    ValidationError("span (0, 1, 5, 1) lies outside talk t0 (M=2, N=3)",
                    path="out/coarse/t0.jsonl"),
    ValidationError("t0 (0,1): good_mt is set but good_align is not", path="anno.tsv", line=4),
    ValidationError("bench_talks: must be >= 1, got 0"),
], ids=["window", "window-no-path", "reference", "parse-line", "validation",
        "validation-line", "validation-no-path"])
def test_missing_errors_survive_pickling(error):
    """A `--jobs` worker sends its exception back pickled: the two error
    types keep their message, file and line."""
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error) and str(copy) == str(error)
    assert vars(copy) == vars(error)
    assert (copy.message, copy.path, copy.line) == error.args


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


def _vector_corpus(tmp_path, talks=3):
    """The config of a synthetic corpus read through the precomputed_file
    provider, its vector files written from the hashed table at dim 128."""
    cfg = write_config(tmp_path, embedding={"kind": "precomputed_file",
                                            "path_pattern": "vectors/{talk_id}.tsv"})
    assert run(["synth", "--config", cfg, "--seed", "3", "--talks", talks,
                "--sentences", "8"]) == 0
    params = embeddings.EmbeddingProviderSpec(dim=128, orders=(3, 4))
    out = tmp_path / "out"
    (out / "vectors").mkdir()
    for doc in cli.load_corpus(cli.PipelineConfig(out_dir=out, corpus=out / "corpus.json")):
        table = embeddings.build_fallback_table(doc, params)
        embeddings.write_table_file(table, out / "vectors" / f"{doc.talk_id}.tsv")
    return cfg


def test_decision_rows_carry_their_pairs_intra_trims(tmp_path):
    """Each row of decisions/<talk>.jsonl holds the trims of its pair in
    intra/<talk>.trims.jsonl, one row per intra pair, and its verdict is
    `drop` exactly when it gives reasons: after `pipeline` at `--jobs 1` and
    `--jobs 2`, and after a standalone `filter-inter`."""
    from si_align.intra import read_trims

    # fillers make trims; an eta_min of 0.9 drops some pairs and keeps others
    cfg = write_config(tmp_path, noise={"split_rate": 0.2, "filler_rate": 0.5},
                       inter={"eta_min": 0.9})
    assert run(["synth", "--config", cfg, "--seed", "3", "--talks", "3", "--sentences", "14"]) == 0
    runs = [(["pipeline", "--jobs", 1, "--out-dir", "p1"], "p1"),
            (["pipeline", "--jobs", 2, "--out-dir", "p2"], "p2"),
            (["filter-inter", "--out-dir", "p1"], "p1")]
    trimmed, verdicts = 0, set()
    for args, out_dir in runs:
        assert run([*args, "--config", cfg]) == 0
        for talk in ("talk0000", "talk0001", "talk0002"):
            trims = read_trims(tmp_path / out_dir / "intra" / f"{talk}.trims.jsonl")
            rows = [json.loads(line) for line in (tmp_path / out_dir / "decisions" /
                                                  f"{talk}.jsonl").read_text().splitlines()]
            keys = [(r["src_start"], r["src_len"], r["tgt_start"], r["tgt_len"]) for r in rows]
            assert sorted(keys) == sorted(trims)
            for key, row in zip(keys, rows):
                assert row["talk_id"] == talk and tuple(row["trims"]) == trims[key]
                assert (row["verdict"] == "drop") == bool(row["reasons"])
                trimmed, verdicts = trimmed + bool(row["trims"]), verdicts | {row["verdict"]}
    assert trimmed and verdicts == {"keep", "drop"}


def test_jobs_parity(tmp_path, capsys):
    """`--jobs 1` and `--jobs 2` write the same artifacts, recovery reports
    included, whether the stages run in `pipeline` or as standalone
    commands, and fail alike when a vector row is missing or a value is bad."""
    cfg = _vector_corpus(tmp_path)
    out = tmp_path / "out"

    def artifacts(out_dir):
        return {path.name: json.loads(path.read_text())["artifacts"]
                for path in sorted((tmp_path / out_dir / "manifests").glob("*.json"))}

    for jobs in (1, 2):
        assert run(["pipeline", "--config", cfg, "--jobs", jobs, "--out-dir", f"run{jobs}"]) == 0
        assert run(["validate", "--config", cfg, "--jobs", jobs, "--out-dir", f"run{jobs}"]) == 0
        for command in ("align", "filter-intra", "filter-inter"):
            assert run([command, "--config", cfg, "--jobs", jobs, "--out-dir", f"solo{jobs}"]) == 0
    serial = artifacts("run1")
    assert len(serial) == 6 and serial == artifacts("run2")
    standalone = artifacts("solo1")
    assert standalone == artifacts("solo2")
    assert standalone == {name: serial[name] for name in
                          ("align.json", "filter-intra.json", "filter-inter.json")}
    reports = [{path.name: path.read_bytes() for path in (tmp_path / run_dir / "reports").iterdir()}
               for run_dir in ("run1", "run2")]
    assert len(reports[0]) == 4 and reports[0] == reports[1]

    vectors = out / "vectors" / "talk0001.tsv"
    lines = vectors.read_text(encoding="utf-8").splitlines(keepends=True)
    vectors.write_text("".join(lines[:2] + lines[3:]), encoding="utf-8")
    errors = []
    for jobs in (1, 2):
        capsys.readouterr()
        assert run(["pipeline", "--config", cfg, "--jobs", jobs, "--out-dir", f"bad{jobs}"]) == 2
        errors.append([l for l in capsys.readouterr().err.splitlines() if l.startswith("error:")])
    assert errors[0] == errors[1] and len(errors[0]) == 1
    assert errors[0][0] == f"error: no vector for window (source, start=2, len=1) [{vectors}]"

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


@pytest.mark.parametrize("command", ["pipeline", "bench"])
def test_dead_worker_exits_one(tmp_path, capsys, monkeypatch, command):
    """A `--jobs` worker that ends abruptly, as when the OOM killer ends it,
    exits 1 with one error line, no traceback, and writes nothing."""
    cfg = write_config(tmp_path, bench_talks=2, bench_omission_rates=[0.0])
    assert run(["synth", "--config", cfg, "--seed", "5", "--talks", "2",
                "--sentences", "6"]) == 0
    align_talk = align.align_talk

    def dying(doc, *args):
        if doc.talk_id == "talk0001":
            os._exit(3)
        return align_talk(doc, *args)

    monkeypatch.setattr(align, "align_talk", dying)  # the forked workers inherit it
    capsys.readouterr()
    assert run([command, "--config", cfg, "--jobs", 2, "--out-dir", "dead"]) == 1
    err = capsys.readouterr().err
    assert [l for l in err.splitlines() if l.startswith("error:")] == [
        "error: a worker process ended abruptly (out of memory?); nothing was written"]
    assert "Traceback" not in err
    assert not (tmp_path / "dead").exists()


needs_threads = pytest.mark.skipif(
    (os.cpu_count() or 1) < 2 or not os.path.isdir("/proc/self/task"),
    reason="needs two CPUs and /proc/self/task")


def _threads_after_matmul(**env):
    """The thread count of a fresh interpreter that imports si_align, then
    numpy, and multiplies two 512x512 matrices, with only `env` of the BLAS
    thread variables set."""
    child_env = {k: v for k, v in os.environ.items() if k not in si_align._BLAS_THREAD_VARS}
    child_env["PYTHONPATH"] = str(Path(si_align.__file__).parent.parent)
    script = ("import si_align, numpy, os\n"
              "a = numpy.ones((512, 512))\n"
              "a @ a\n"
              "print(len(os.listdir('/proc/self/task')))\n")
    done = subprocess.run([sys.executable, "-c", script], env={**child_env, **env},
                          capture_output=True, text=True, timeout=60, check=True)
    return int(done.stdout)


@needs_threads
def test_one_blas_thread_by_default():
    """With no BLAS thread variable set, `--jobs` is the only parallelism:
    the BLAS pool has no worker threads."""
    assert _threads_after_matmul() == 1


@needs_threads
@pytest.mark.parametrize("name", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_user_blas_threads_win(name):
    assert _threads_after_matmul(**{name: "2"}) == 2


def _child_env():
    return {**os.environ, "PYTHONPATH": str(Path(si_align.__file__).parent.parent)}


def _run_script(args, cwd, **env):
    """(exit code, stderr lines) of `si-align` run as its own process, as
    users run it, so that logging is configured by `main` alone."""
    done = subprocess.run([sys.executable, "-m", "si_align.cli", *map(str, args)], cwd=cwd,
                          env={**_child_env(), **env}, capture_output=True, text=True,
                          timeout=60)
    return done.returncode, done.stderr.splitlines()


def test_an_error_is_one_stderr_line(tmp_path):
    missing = tmp_path / "missing.json"
    assert _run_script(["align", "--config", missing], tmp_path) == (
        2, [f"error: [Errno 2] No such file or directory: '{missing}'"])
    assert _run_script(["filter-inter", "--out-dir", "empty"], tmp_path) == (
        1, ["error: config needs a 'corpus' path for this command"])


def test_unknown_log_level_is_one_error_line(tmp_path):
    assert _run_script(["stats"], tmp_path, SI_ALIGN_LOG="verbose") == (
        1, ["error: SI_ALIGN_LOG: unknown level 'verbose', "
            "expected one of DEBUG, INFO, WARNING, ERROR, CRITICAL"])
    # a level in any case is accepted
    assert _run_script(["synth", "--out-dir", "out", "--talks", "1", "--sentences", "3"],
                       tmp_path, SI_ALIGN_LOG="info") == (
        0, ["INFO __main__: synthesized 1 talks into out"])


def test_cli_import_leaves_numpy_out():
    script = ("import sys\nimport si_align.cli\n"
              "print(sorted({'numpy', 'concurrent.futures'} & set(sys.modules)))\n")
    done = subprocess.run([sys.executable, "-c", script], env=_child_env(),
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout == "[]\n"


# runs each command line of argv[1] (a JSON list) through `cli.main` in a
# process where importing numpy raises, and stops at the first that fails
WITHOUT_NUMPY = """
import json, sys
sys.modules["numpy"] = None
from si_align import cli
for argv in json.loads(sys.argv[1]):
    code = cli.main(argv)
    if code:
        sys.exit(f"{argv}: exit {code}")
"""


def test_read_only_commands_run_without_numpy(tmp_path):
    """Every command that neither aligns, scores chrF nor reads vectors
    runs where numpy cannot be imported, and writes what it writes where
    numpy can be imported."""
    synth = [["synth", "--seed", "5", "--talks", "2", "--sentences", "6"]]
    lean = [["validate"], ["filter-intra"], ["split"], ["stats"], ["export-anno"],
            ["import-anno", "out/annotations.tsv"]]
    manifests = {}
    for name in ("full", "lean"):
        base = tmp_path / name
        base.mkdir()
        cfg = write_config(base)
        steps = [(synth, name == "lean"), ([["pipeline"]], False), (lean, name == "lean")]
        for commands, without_numpy in steps:
            commands = [[*args, "--config", str(cfg)] for args in commands]
            if without_numpy:
                subprocess.run([sys.executable, "-c", WITHOUT_NUMPY, json.dumps(commands)],
                               cwd=base, env=_child_env(), timeout=120, check=True)
            else:
                with pytest.MonkeyPatch.context() as mp:
                    mp.chdir(base)
                    assert all(run(args) == 0 for args in commands)
        manifests[name] = {path.name: json.loads(path.read_text())["artifacts"]
                           for path in sorted((base / "out" / "manifests").glob("*.json"))}
    assert len(manifests["full"]) == 9
    assert manifests["lean"] == manifests["full"]


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


def test_stale_stage_file_reported_before_malformed(tmp_path, capsys):
    """A hand-edited stage file that no longer parses exits 1 as stale, with
    what to rerun: its bytes are checked against the manifest before they
    are parsed."""
    cfg = write_config(tmp_path)
    assert run(["synth", "--config", cfg, "--talks", "1", "--sentences", "5"]) == 0
    assert run(["pipeline", "--config", cfg]) == 0
    out = tmp_path / "out"
    coarse = out / "coarse" / "talk0000.jsonl"
    coarse.write_text("not json\n" + coarse.read_text(encoding="utf-8"), encoding="utf-8")
    before = _tree(out)
    capsys.readouterr()
    assert run(["filter-intra", "--config", cfg]) == 1
    manifest = out / "manifests" / "align.json"
    assert f"{coarse} differs from its checksum in {manifest}: rerun align" in (
        capsys.readouterr().err)
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
    naming it and the threshold, from `pipeline` and `filter-inter`, logged
    by the parent process at `--jobs 1` and `--jobs 2`; its decisions are
    written as before."""
    cfg = write_config(tmp_path, inter={"eta_min": 0.7}, scores_path="scores.tsv")
    assert run(["synth", "--config", cfg, "--seed", "5", "--talks", "2",
                "--sentences", "6"]) == 0
    score = {"talk0000": 0.5, "talk0001": 0.9}
    (tmp_path / "scores.tsv").write_text("".join(
        f"{talk}\t{start}\t{length}\t{value}\n" for talk, value in score.items()
        for start in range(40) for length in range(1, 5)), encoding="utf-8")
    assert run(["pipeline", "--config", cfg]) == 0
    decisions = (tmp_path / "out" / "decisions" / "talk0000.jsonl").read_bytes()
    for jobs in (1, 2):
        for command in ("pipeline", "filter-inter"):
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="si_align.cli"):
                assert run([command, "--config", cfg, "--jobs", jobs]) == 0
            warnings = [r.getMessage() for r in caplog.records if r.name == "si_align.cli"]
            assert len(warnings) == 1, (command, jobs)
            assert warnings[0].startswith(
                "talk0000: inter.eta_min 0.7 exceeds every external score")
            assert (tmp_path / "out" / "decisions" / "talk0000.jsonl").read_bytes() == decisions
    rows = [json.loads(line) for line in decisions.decode("utf-8").splitlines()]
    assert rows and all("eta" in row["reasons"] for row in rows)


def test_external_score_above_eta_min_on_an_unused_span_keeps_quiet(tmp_path, caplog):
    """The warning reads the talk's score table, not the pairs judged: one
    score above `eta_min`, on a span that no link uses, means `eta_min` does
    not exceed every score of the talk, so nothing is logged although eta
    drops every pair; the decisions are those of the table without it."""
    cfg = write_config(tmp_path, inter={"eta_min": 0.7}, scores_path="scores.tsv")
    assert run(["synth", "--config", cfg, "--seed", "5", "--talks", "2",
                "--sentences", "6"]) == 0
    assert run(["align", "--config", cfg]) == 0
    coarse = (tmp_path / "out" / "coarse" / "talk0000.jsonl").read_text(encoding="utf-8")
    used = {(row["src_start"], row["src_len"]) for row in map(json.loads, coarse.splitlines())}
    spans = [(start, length) for start in range(40) for length in range(1, 5)]
    unused = next(span for span in spans if span not in used)

    def write_scores(high):
        rows = [(talk, span, 0.9 if talk == "talk0001" or span == high else 0.5)
                for talk in ("talk0000", "talk0001") for span in spans]
        (tmp_path / "scores.tsv").write_text("".join(
            f"{talk}\t{start}\t{length}\t{value}\n" for talk, (start, length), value in rows),
            encoding="utf-8")

    write_scores(None)
    assert run(["pipeline", "--config", cfg]) == 0
    decisions = (tmp_path / "out" / "decisions" / "talk0000.jsonl").read_bytes()
    rows = [json.loads(line) for line in decisions.decode("utf-8").splitlines()]
    assert rows and all("eta" in row["reasons"] for row in rows)
    write_scores(unused)
    for jobs in (1, 2):
        for command in ("pipeline", "filter-inter"):
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="si_align.cli"):
                assert run([command, "--config", cfg, "--jobs", jobs]) == 0
            assert not [r for r in caplog.records if r.name == "si_align.cli"], (command, jobs)
            assert (tmp_path / "out" / "decisions" / "talk0000.jsonl").read_bytes() == decisions


@pytest.mark.parametrize("missing", ["refs", "scores", "talk"])
def test_missing_row_names_its_file(tmp_path, capsys, missing):
    """A refs file or an external score file that lacks the span of a pair,
    or a score file with no row for the pair's talk, exits 2 with one error
    line naming that file, alike at `--jobs 1` and `--jobs 2`."""
    cfg = write_config(tmp_path, scores_path="scores.tsv")
    assert run(["synth", "--config", cfg, "--seed", "5", "--talks", "2",
                "--sentences", "6"]) == 0
    scores = tmp_path / "scores.tsv"
    scores.write_text("".join(f"talk{t:04d}\t{start}\t{length}\t0.5\n" for t in range(2)
                              for start in range(6) for length in range(1, 5)), encoding="utf-8")
    assert run(["pipeline", "--config", cfg]) == 0
    link = next(l for l in align.read_alignment_jsonl(tmp_path / "out" / "intra" /
                                                       "talk0001.jsonl").kept())
    span = (link.src_start, link.src_len)
    refs = tmp_path / "out" / "refs" / "talk0001.refs.jsonl"
    if missing == "refs":
        named, what = refs, "no reference translation"
        ref = inter.read_reference_jsonl(refs, "talk0001")
        del ref[span]
        refs.write_text(inter.references_text(ref), encoding="utf-8")
    else:
        named, what = scores, "no external score"
        # the first pair's row, or every row of its talk
        row = f"talk0001\t{span[0]}\t{span[1]}\t0.5\n" if missing == "scores" else "talk0001\t"
        scores.write_text("".join(l for l in scores.read_text(encoding="utf-8").splitlines(True)
                                  if not l.startswith(row)), encoding="utf-8")
    errors = []
    for jobs in (1, 2):
        capsys.readouterr()
        assert run(["pipeline", "--config", cfg, "--jobs", jobs, "--out-dir", f"bad{jobs}"]) == 2
        errors.append([l for l in capsys.readouterr().err.splitlines() if l.startswith("error:")])
    assert errors[0] == errors[1] and len(errors[0]) == 1
    assert errors[0][0] == (f"error: {what} for talk0001 span (start={span[0]}, "
                            f"len={span[1]}) [{named}]")


def test_empty_reference_text_names_file_and_line(tmp_path, capsys):
    """A refs row whose text normalizes to empty exits 2 naming its file and
    line."""
    cfg = write_config(tmp_path)
    assert run(["synth", "--config", cfg, "--seed", "5", "--talks", "2",
                "--sentences", "6"]) == 0
    refs = tmp_path / "out" / "refs" / "talk0001.refs.jsonl"
    lines = refs.read_text(encoding="utf-8").splitlines(True)
    row = json.loads(lines[0])
    lines[0] = json.dumps({**row, "text": "\u3000 "}) + "\n"
    refs.write_text("".join(lines), encoding="utf-8")
    capsys.readouterr()
    assert run(["pipeline", "--config", cfg]) == 2
    span = (row["src_start"], row["src_len"])
    assert f"empty reference text for span {span} [{refs}:1]" in capsys.readouterr().err


@pytest.mark.parametrize("talk_id,code,message", [
    ("talk0000", 1, "reference of talk 'talk0000' where 'talk0001' was expected"),
    (5, 2, "bad row: talk_id must be a string, got 5")])
def test_reference_row_of_another_talk_names_file_and_line(tmp_path, capsys, talk_id, code,
                                                           message):
    """A refs file holds one talk's rows: a row naming another talk exits 1,
    and a talk_id that is not a string exits 2, each naming its file and
    line, and nothing is written."""
    cfg = write_config(tmp_path)
    assert run(["synth", "--config", cfg, "--seed", "5", "--talks", "2",
                "--sentences", "6"]) == 0
    refs = tmp_path / "out" / "refs" / "talk0001.refs.jsonl"
    lines = refs.read_text(encoding="utf-8").splitlines(True)
    lines.append(json.dumps({**json.loads(lines[0]), "talk_id": talk_id}) + "\n")
    refs.write_text("".join(lines), encoding="utf-8")
    capsys.readouterr()
    assert run(["pipeline", "--config", cfg, "--out-dir", "other"]) == code
    assert f"error: {message} [{refs}:{len(lines)}]" in capsys.readouterr().err
    assert not (tmp_path / "other").exists()


def test_align_rerun_with_same_output_keeps_stages_current(tmp_path):
    """Lineage records what each run wrote: an `align` rerun whose coarse
    links are byte-identical leaves the intra stage current."""
    cfg = write_config(tmp_path)
    assert run(["synth", "--config", cfg, "--seed", "4", "--talks", "2",
                "--sentences", "8"]) == 0
    assert run(["pipeline", "--config", cfg]) == 0
    assert run(["align", "--config", cfg, "--eta-min", "0.3"]) == 0
    assert run(["filter-inter", "--config", cfg]) == 0


def test_link_outside_its_talk_refused(tmp_path, capsys):
    """Stage links made for another corpus (the corpus regenerated with
    shorter talks) exit 1 naming the stage file and the talk, and nothing is
    written."""
    cfg = write_config(tmp_path)
    assert run(["synth", "--config", cfg, "--seed", "4", "--talks", "2",
                "--sentences", "12"]) == 0
    assert run(["pipeline", "--config", cfg]) == 0
    assert run(["synth", "--config", cfg, "--seed", "4", "--talks", "2",
                "--sentences", "5"]) == 0
    out = tmp_path / "out"
    m, n = (len((out / "talks" / "talk0000" / f"{side}_units.txt").read_text().splitlines())
            for side in ("source", "target"))
    for args, stage in [(["filter-intra"], "coarse"), (["validate"], "coarse"),
                        (["export-anno", "--stage", "coarse"], "coarse"),
                        (["filter-inter"], "intra"), (["stats"], "coarse")]:
        links = out / stage / "talk0000.jsonl"
        line = next(i for i, row in enumerate(links.read_text().splitlines(), start=1)
                    if _outside(json.loads(row), m, n))
        before = _tree(out)
        capsys.readouterr()
        assert run([*args, "--config", cfg]) == 1, args
        err = capsys.readouterr().err
        assert f"[{links}:{line}]" in err and "span (" in err, (args, err)
        assert "lies outside talk talk0000" in err, (args, err)
        assert _tree(out) == before, args


def _outside(row, m, n):
    """Whether a link row's span reaches past M source or N target units."""
    return row["src_start"] + row["src_len"] > m or row["tgt_start"] + row["tgt_len"] > n


def test_gold_link_outside_its_talk_refused(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert run(["synth", "--config", cfg, "--talks", "1", "--sentences", "5"]) == 0
    assert run(["align", "--config", cfg]) == 0
    gold = tmp_path / "out" / "gold" / "talk0000.gold.jsonl"
    rows = [json.loads(line) for line in gold.read_text(encoding="utf-8").splitlines()]
    rows[-1].update(src_start=5, src_len=1)
    gold.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    before = _tree(tmp_path / "out")
    capsys.readouterr()
    assert run(["validate", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "span (5, 1, " in err and f"[{gold}:{len(rows)}]" in err
    assert _tree(tmp_path / "out") == before


@pytest.mark.parametrize("other_talk,line,message", [
    (None, None, "no gold links for talk talk0001"),
    ("talk0009", 1, "link of talk 'talk0009' where 'talk0001' was expected"),
], ids=["empty", "other-talk"])
def test_gold_file_of_another_talk_refused(tmp_path, capsys, other_talk, line, message):
    """A gold file that names no talk, or another talk, exits 1 naming the
    file (and the row's line), and nothing is written."""
    cfg = write_config(tmp_path)
    assert run(["synth", "--config", cfg, "--talks", "2", "--sentences", "5"]) == 0
    assert run(["align", "--config", cfg]) == 0
    gold = tmp_path / "out" / "gold" / "talk0001.gold.jsonl"
    text = gold.read_text(encoding="utf-8")
    gold.write_text(text.replace('"talk0001"', f'"{other_talk}"') if other_talk else "",
                    encoding="utf-8")
    before = _tree(tmp_path / "out")
    capsys.readouterr()
    assert run(["validate", "--config", cfg]) == 1
    where = gold if line is None else f"{gold}:{line}"
    assert f"error: {message} [{where}]" in capsys.readouterr().err
    assert _tree(tmp_path / "out") == before


def _rewrite_first_source_unit(talk_dir):
    """The words of a talk's first source unit and of its tag rows, each
    spelled backwards: the same unit and token counts, other text."""
    units = talk_dir / "source_units.txt"
    lines = units.read_text(encoding="utf-8").splitlines(keepends=True)
    words = lines[0].split()
    lines[0] = " ".join(word[::-1] for word in words) + "\n"
    assert lines[0].split() != words
    units.write_text("".join(lines), encoding="utf-8")
    tags = talk_dir / "source_tags.tsv"
    rows = tags.read_text(encoding="utf-8").splitlines(keepends=True)
    for i in range(len(words)):
        surface, tag = rows[i].split("\t")
        rows[i] = f"{surface[::-1]}\t{tag}"
    tags.write_text("".join(rows), encoding="utf-8")


def test_changed_talk_refused(tmp_path, capsys):
    """A talk whose words changed since `align`, its shape kept, exits 1
    naming the talk and what to rerun, and nothing is written; once `align`
    and the stages after it are rerun, every command accepts it."""
    cfg = write_config(tmp_path)
    assert run(["synth", "--config", cfg, "--seed", "4", "--talks", "2",
                "--sentences", "6"]) == 0
    assert run(["pipeline", "--config", cfg]) == 0
    out = tmp_path / "out"
    _rewrite_first_source_unit(out / "talks" / "talk0000")
    commands = [["validate"], ["filter-intra"], ["filter-inter"], ["stats"],
                ["export-anno", "--stage", "coarse"], ["export-anno"]]
    for args in commands:
        before = _tree(out)
        capsys.readouterr()
        assert run([*args, "--config", cfg]) == 1, args
        err = capsys.readouterr().err
        assert (f"error: the files of talk talk0000 are not those that "
                f"{out / 'manifests' / 'align.json'} records: rerun align") in err, (args, err)
        assert _tree(out) == before, args
    talks = json.loads((out / "manifests" / "align.json").read_text())["talks"]
    assert sorted(talks) == ["talk0000", "talk0001"]
    assert run(["align", "--config", cfg]) == 0
    rerun = json.loads((out / "manifests" / "align.json").read_text())["talks"]
    assert rerun["talk0001"] == talks["talk0001"] and rerun["talk0000"] != talks["talk0000"]
    # the intra stage was made from the old talk files, so it is stale too
    assert run(["filter-inter", "--config", cfg]) == 1
    assert run(["pipeline", "--config", cfg]) == 0
    for args in commands:
        assert run([*args, "--config", cfg]) == 0, args


def test_failed_filter_inter_writes_nothing(tmp_path, capsys):
    """A reference row that no longer parses, in the third of four talks,
    exits 2 naming its line; the earlier talks' inter files are not
    rewritten, so the previous run stays consistent for `stats`."""
    cfg = write_config(tmp_path)
    assert run(["synth", "--config", cfg, "--seed", "6", "--talks", "4",
                "--sentences", "8"]) == 0
    assert run(["pipeline", "--config", cfg]) == 0
    out = tmp_path / "out"
    refs = out / "refs" / "talk0002.refs.jsonl"
    rows = refs.read_text(encoding="utf-8").splitlines(keepends=True)
    rows[2] = rows[2][:len(rows[2]) // 2] + "\n"
    refs.write_text("".join(rows), encoding="utf-8")
    before = _tree(out)
    capsys.readouterr()
    assert run(["filter-inter", "--config", cfg, "--alpha-min", "0.99"]) == 2
    assert f"[{refs}:3]" in capsys.readouterr().err
    assert _tree(out) == before
    assert run(["stats", "--config", cfg]) == 0


@pytest.mark.parametrize("fault", ["bad_row", "no_refs_dir"])
def test_failed_inter_stage_writes_no_stage(tmp_path, capsys, fault):
    """`pipeline` saves its three stages together once every talk has passed
    all three: a reference row of the second talk that no longer parses, or
    a config without `refs_dir`, fails the run at any `--jobs`, and no stage
    is written."""
    cfg = write_config(tmp_path)
    assert run(["synth", "--config", cfg, "--seed", "6", "--talks", "3",
                "--sentences", "8"]) == 0
    out = tmp_path / "out"
    refs = out / "refs" / "talk0001.refs.jsonl"
    if fault == "bad_row":
        rows = refs.read_text(encoding="utf-8").splitlines(keepends=True)
        rows[1] = rows[1][:len(rows[1]) // 2] + "\n"
        refs.write_text("".join(rows), encoding="utf-8")
        code, message = 2, f"[{refs}:2]"
    else:
        obj = json.loads(cfg.read_text(encoding="utf-8"))
        del obj["refs_dir"]
        cfg.write_text(json.dumps(obj), encoding="utf-8")
        code, message = 1, "config needs 'refs_dir' for filter-inter"
    before = _tree(out)
    for jobs in (1, 2):
        capsys.readouterr()
        assert run(["pipeline", "--config", cfg, "--jobs", jobs]) == code
        assert message in capsys.readouterr().err
        assert _tree(out) == before


def test_first_failing_talk_reported(tmp_path, capsys):
    """With faults in two talks, the error is that of the first failing talk
    in corpus order, at any `--jobs`: talk0000's missing refs file (its inter
    stage), not talk0001's vector file without a row (its align stage)."""
    cfg = _vector_corpus(tmp_path, talks=2)
    out = tmp_path / "out"
    refs = out / "refs" / "talk0000.refs.jsonl"
    refs.unlink()
    vectors = out / "vectors" / "talk0001.tsv"
    lines = vectors.read_text(encoding="utf-8").splitlines(keepends=True)
    vectors.write_text("".join(lines[:2] + lines[3:]), encoding="utf-8")
    before = _tree(out)
    errors = []
    for jobs in (1, 2):
        capsys.readouterr()
        assert run(["pipeline", "--config", cfg, "--jobs", jobs]) == 2
        errors.append([l for l in capsys.readouterr().err.splitlines() if l.startswith("error:")])
        assert _tree(out) == before
    assert errors[0] == errors[1] and len(errors[0]) == 1
    assert str(refs) in errors[0][0] and str(vectors) not in errors[0][0]


def test_per_talk_override_of_unknown_talk_refused(tmp_path, capsys):
    """An `inter.per_talk` id that is no talk of the corpus (a typo) exits 1
    naming the key and the corpus file wherever the inter stage runs, and
    nothing is written; commands without the inter stage run as before."""
    cfg = write_config(tmp_path, inter={"per_talk": {"talk0001": {"eta_min": 0.0},
                                                     "talk9999": {"eta_min": 0.0}}})
    assert run(["synth", "--config", cfg, "--talks", "2", "--sentences", "5"]) == 0
    out = tmp_path / "out"
    message = (f"error: inter.per_talk.talk9999: no talk of that id in the corpus "
               f"[{out / 'corpus.json'}]")
    for args, code in [(["pipeline"], 1), (["align"], 0), (["filter-intra"], 0),
                       (["filter-inter"], 1)]:
        before = _tree(out)
        capsys.readouterr()
        assert run([*args, "--config", cfg]) == code, args
        if code:
            assert message in capsys.readouterr().err.splitlines(), args
            assert _tree(out) == before, args


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


# stage files the mutation property edits; `_resign` finds their command in `cli.STAGES`
STAGE_FILES = ["out/coarse/talk0000.jsonl", "out/coarse/talk0001.jsonl",
               "out/intra/talk0000.jsonl", "out/intra/talk0001.trims.jsonl",
               "out/inter/talk0001.jsonl"]
INPUT_FILES = ["out/manifests/align.json", "out/manifests/filter-intra.json",
               "out/manifests/filter-inter.json", "out/refs/talk0000.refs.jsonl",
               "out/refs/talk0001.refs.jsonl", "out/gold/talk0001.gold.jsonl", "scores.tsv"]
JUNK = [None, True, -1, 1.5, 10**30, "", "x", "\ud800", [], {}, [["x", "NOUN"]], {"a": 1}]
DEEP = "[" * 100_000 + "]" * 100_000
NEST = "\0nest\0"  # stands for DEEP until the row is written
# (config, command) of each command run on a mutated stage run, those that
# rewrite a stage file last
STAGE_COMMANDS = [("config.json", ["validate"]), ("config.json", ["stats"]),
                  ("config.json", ["export-anno", "--stage", "coarse"]),
                  ("config.json", ["export-anno", "--stage", "intra"]),
                  ("config.json", ["export-anno"]), ("scores.json", ["filter-inter"]),
                  ("config.json", ["filter-inter"]), ("config.json", ["filter-intra"])]


@pytest.fixture(scope="module")
def stage_run(tmp_path_factory):
    """A 2-talk corpus after `pipeline`, with an external score file
    (`scores.tsv`, read by `scores.json`) that scores every source span."""
    base = tmp_path_factory.mktemp("stages")
    cfg = write_config(base)
    assert run(["synth", "--config", cfg, "--seed", "8", "--talks", "2", "--sentences", "8"]) == 0
    assert run(["pipeline", "--config", cfg]) == 0
    (base / "scores.tsv").write_text("".join(
        f"talk000{talk}\t{start}\t{length}\t0.5\n"
        for talk in range(2) for start in range(20) for length in range(1, 5)), encoding="utf-8")
    (base / "scores.json").write_text(json.dumps({**json.loads(cfg.read_text()),
                                                  "scores_path": "scores.tsv"}), encoding="utf-8")
    return base


def _changed(obj, mutation, pick, junk, m, n):
    """A JSON object, or a TSV row as a list, with one value deleted, set to
    junk or nested deeply (in a nested object such as a manifest's
    `upstream`, two times in three), or with a span pushed past the talk's end."""
    if mutation == "past_end" and isinstance(obj, list):
        return [obj[0], str(m), *obj[2:]]
    if mutation == "past_end":
        targets = [key for key in ("tgt_start", "new_tgt_start") if key in obj]
        return {**obj, **(dict.fromkeys(targets, n) if pick % 2 and targets else {"src_start": m})}
    key = list(obj)[pick % len(obj)] if isinstance(obj, dict) else pick % len(obj)
    if isinstance(obj, list):
        value = [] if mutation == "delete" else [DEEP if mutation == "nest" else str(junk)]
        return obj[:key] + value + obj[key + 1:]
    if isinstance(obj[key], dict) and obj[key] and pick % 3:
        return {**obj, key: _changed(obj[key], mutation, pick // 3, junk, m, n)}
    if mutation == "delete":
        return {k: v for k, v in obj.items() if k != key}
    return {**obj, key: NEST if mutation == "nest" else junk}


def _mutate(path, mutation, pick, junk, m, n):
    """Truncate the file, flip one bit of it, or change one row of it (a
    JSON document is one row); a span is pushed past the end of a kept link."""
    data = path.read_bytes()
    if mutation == "truncate" or not data:
        path.write_bytes(data[:pick % (len(data) + 1)])
        return
    if mutation == "flip":
        index = pick % len(data)
        path.write_bytes(data[:index] + bytes([data[index] ^ 1 << pick % 8]) + data[index + 1:])
        return
    text = data.decode("utf-8")
    tsv = path.suffix == ".tsv"
    parse, dump = ((lambda row: row.split("\t")), "\t".join) if tsv else (json.loads, json.dumps)
    rows = [text] if path.suffix == ".json" else text.splitlines()
    candidates = [i for i, row in enumerate(rows)
                  if tsv or mutation != "past_end" or not parse(row).get("dropped")] or [0]
    i = candidates[pick % len(candidates)]
    rows[i] = dump(_changed(parse(rows[i]), mutation, pick // len(rows), junk, m, n))
    text = "".join(row + "\n" for row in rows).replace(json.dumps(NEST), DEEP)
    path.write_text(text, encoding="utf-8", errors="surrogatepass")


def _resign(out, name):
    """List a mutated stage file's new checksum in its manifest, and record
    the changed manifest in each manifest whose lineage holds it."""
    rel = name.removeprefix("out/")
    command = cli.STAGES[rel.split("/")[0]]
    manifests = out / "manifests"
    obj = json.loads((manifests / f"{command}.json").read_text())
    obj["artifacts"][rel] = hashlib.sha256((out / rel).read_bytes()).hexdigest()
    (manifests / f"{command}.json").write_text(json.dumps(obj), encoding="utf-8")
    for path in manifests.glob("*.json"):
        later = json.loads(path.read_text())
        if command in later.get("upstream", {}):
            later["upstream"][command] = cli._run_entry(obj)
            path.write_text(json.dumps(later), encoding="utf-8")


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from([*STAGE_FILES, *INPUT_FILES]),
       mutation=st.sampled_from(["truncate", "flip", "delete", "junk", "nest", "past_end"]),
       pick=st.integers(0, 1 << 16), junk=st.sampled_from(JUNK))
def test_mutated_stage_file_exits_cleanly(stage_run, name, mutation, pick, junk):
    """Whatever one stage, manifest, reference, gold or score file holds,
    each command that reads it exits 0, 1 or 2 without a traceback, and a
    failed command leaves `out/` byte-identical. A mutated stage file is
    re-signed in its manifest, so that its reader, not the checksum, sees it."""
    work = stage_run.parent / "stage_work"
    shutil.rmtree(work, ignore_errors=True)
    shutil.copytree(stage_run, work)
    out = work / "out"
    talk = next((t for t in ("talk0000", "talk0001") if t in name), f"talk000{pick % 2}")
    m, n = (len((out / "talks" / talk / f"{side}_units.txt").read_text().splitlines())
            for side in ("source", "target"))
    _mutate(work / name, mutation, pick, junk, m, n)
    if name in STAGE_FILES:
        _resign(out, name)
    for config, args in STAGE_COMMANDS:
        before = _tree(out)
        code = run([*args, "--config", work / config])
        assert code in (0, 1, 2), (config, args)
        if code:
            assert _tree(out) == before, (config, args)


def test_trims_file_must_match_its_links(stage_run, capsys):
    """A re-signed trims file whose trimmed spans are not the links of its
    stage exits 1 naming the file and the manifest, and writes nothing."""
    work = stage_run.parent / "trims_work"
    shutil.rmtree(work, ignore_errors=True)
    shutil.copytree(stage_run, work)
    out = work / "out"
    name = "out/intra/talk0001.trims.jsonl"
    n = len((out / "talks" / "talk0001" / "target_units.txt").read_text().splitlines())
    rows = [json.loads(line) for line in (work / name).read_text().splitlines()]
    trimmed = [row for row in rows if row["trims"]]
    assert trimmed
    for row in trimmed:
        row["new_tgt_start"] = n + 100
    (work / name).write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    _resign(out, name)
    before = _tree(out)
    capsys.readouterr()
    assert run(["filter-inter", "--config", work / "config.json"]) == 1
    err = capsys.readouterr().err
    assert str(work / name) in err and str(out / "manifests" / "filter-intra.json") in err
    assert _tree(out) == before


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
