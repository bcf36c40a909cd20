"""Command-line pipeline: align, filter, split, curate, and benchmark.

Every subcommand reads a declarative JSON config (flags win over the file),
writes its artifacts atomically under the output directory, and emits a
machine-readable run manifest with input paths, a parameter hash, and
artifact checksums. Runs are idempotent: identical inputs produce
byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import hashlib
import json
import logging
import math
import os
import sys
from pathlib import Path

from . import align as al
from . import corpus as cm
from . import curation as cu
from . import embeddings as em
from . import inter as fi
from . import intra as fa
from . import recovery as rv
from . import splitter as sp
from . import synth as sb
from .corpus import ParseError, ValidationError

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2

# stage -> the command whose run writes it, in pipeline order; each stage
# after the first is made from the one before it
STAGES = {"coarse": "align", "intra": "filter-intra", "inter": "filter-inter"}


class _Parser(argparse.ArgumentParser):
    # usage problems are validation errors (exit 1), not I/O errors (exit 2)
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_VALIDATION)


@dataclasses.dataclass(frozen=True)
class InterSection(fi.InterFilterParams):
    """The `inter` object: the filter's thresholds, and in `per_talk`, by
    talk id, the thresholds of one talk, read with the section's as defaults."""

    per_talk: dict[str, fi.InterFilterParams] = dataclasses.field(default_factory=dict)


@dataclasses.dataclass(frozen=True)
class PipelineConfig:
    """The config root. Each field is a key of the JSON config, and each
    section a dataclass whose fields are its keys. A path is relative to the
    config file's directory."""

    out_dir: Path = Path("out")
    corpus: Path | None = None
    gold_dir: Path | None = None
    refs_dir: Path | None = None
    scores_path: Path | None = None
    allowlist: Path | None = None
    dev_ids: tuple[str, ...] = ()
    test_ids: tuple[str, ...] = ()
    embedding: em.EmbeddingProviderSpec = em.EmbeddingProviderSpec()
    align: al.AlignParams = al.AlignParams()
    intra: fa.IntraFilterParams = fa.IntraFilterParams()
    inter: InterSection = InterSection()
    noise: sb.NoiseParams = sb.NoiseParams()
    synth: sb.SynthParams = sb.SynthParams()
    epsilons: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    bench_omission_rates: tuple[float, ...] = (0.0, 0.1, 0.2, 0.3)
    bench_talks: int = 20
    jobs: int = 1

    def __post_init__(self):
        if self.bench_talks < 1:
            raise ValidationError(f"bench_talks: must be >= 1, got {self.bench_talks}")
        for rate in self.bench_omission_rates:  # each one is a `noise` section of the bench
            try:
                dataclasses.replace(self.noise, omission_rate=rate)
            except ValidationError as exc:
                raise ValidationError(f"bench_omission_rates: {exc}") from None
        # the built-in chrF scorer scores in [0, 1]; an external score file has no fixed range
        if self.scores_path is None:
            for context, params in (("inter", self.inter), *(
                    (f"inter.per_talk.{t}", p) for t, p in self.inter.per_talk.items())):
                if not 0.0 <= params.eta_min <= 1.0:
                    raise ValidationError(f"{context}.eta_min: must be in [0, 1] with the built-in "
                                          f"chrF scorer (no scores_path), got {params.eta_min!r}")


# command-line flag -> the config keys it sets; `--seed` seeds the talks and their noise
FLAG_KEYS = {
    "out_dir": ("out_dir",), "jobs": ("jobs",),
    "seed": ("synth.seed", "noise.rng_seed"), "talks": ("synth.talks",),
    "sentences": ("synth.sentences",), "vocab_size": ("synth.vocab_size",),
    "prune_cost": ("align.prune_cost_threshold",), "max_src_span": ("align.max_src_span",),
    "max_tgt_span": ("align.max_tgt_span",), "skip_penalty": ("align.skip_penalty",),
    "alpha_min": ("inter.alpha_min",), "gamma_min": ("inter.gamma_min",),
    "gamma_max": ("inter.gamma_max",), "eta_min": ("inter.eta_min",),
}


def _typed(value, default, name: str):
    """A config value checked against its default, which gives its kind:
    - a section (a dataclass) takes a JSON object, read by `_dataclass_from`;
      each `inter.per_talk.<id>` is read against the `inter` thresholds;
    - a tuple takes a list of values like its first element (strings when
      it is empty), and a frozenset a list of POS tag names;
    - a path (a Path, or None: every key that defaults to None is a path)
      or a string takes a string, and a dict a JSON object;
    - a number takes the default's type (an int is also a valid float) and
      must be finite."""
    if isinstance(default, InterSection):
        section = _dataclass_from(default, value, name)
        talk_default = fi.InterFilterParams(**{f.name: getattr(section, f.name)
                                               for f in dataclasses.fields(fi.InterFilterParams)})
        return dataclasses.replace(section, per_talk={
            talk_id: _dataclass_from(talk_default, obj, f"{name}.per_talk.{talk_id}")
            for talk_id, obj in section.per_talk.items()})
    if dataclasses.is_dataclass(default):
        return _dataclass_from(default, value, name)
    if isinstance(default, (tuple, frozenset)) and not isinstance(value, list):
        raise ValidationError(f"{name}: expected a list, got {value!r}")
    if isinstance(default, tuple):
        return tuple(_typed(v, default[0] if default else "", name) for v in value)
    if isinstance(default, frozenset):
        try:
            return frozenset(map(cm.pos_named, value))
        except (TypeError, ValueError):
            raise ValidationError(f"{name}: expected a list of POS tags, got {value!r}") from None
    if default is None or isinstance(default, Path):
        return Path(_typed(value, "", name))
    for kind, word in ((str, "string"), (dict, "JSON object")):
        if isinstance(default, kind) and not isinstance(value, kind):
            raise ValidationError(f"{name}: expected a {word}, got {value!r}")
    if isinstance(default, bool) or not isinstance(default, (int, float)):
        return value
    allowed = int if isinstance(default, int) else (int, float)
    if (isinstance(value, bool) or not isinstance(value, allowed)
            or (isinstance(value, float) and not math.isfinite(value))):
        raise ValidationError(f"{name}: expected a finite {type(default).__name__}, got {value!r}")
    return value


def _dataclass_from(default, obj, context: str):
    """`obj` read as an instance of `default`'s dataclass, each key typed
    against `default`'s value for it; an unknown key is an error. `context`
    is the object's dotted key, empty for the root."""
    def dotted(key):
        return f"{context}.{key}" if context else key

    obj = _typed(obj, {}, context)
    values = {f.name: getattr(default, f.name) for f in dataclasses.fields(default)}
    unknown = sorted(obj.keys() - values.keys())
    if unknown:
        raise ValidationError(f"{dotted(unknown[0])}: unknown key")
    typed = {key: _typed(value, values[key], dotted(key)) for key, value in obj.items()}
    try:
        return dataclasses.replace(default, **typed)
    except ValidationError as exc:
        # a check that opens with its key ("vocab_size: ...") is named by the dotted key
        message = str(exc)
        key, sep, rest = message.partition(": ")
        if sep and key in values:
            message = f"{dotted(key)}: {rest}"
        elif context:
            message = f"{context}: {message}"
        raise ValidationError(message) from None


def load_config(path: Path | None, args) -> PipelineConfig:
    """Merge config file and CLI flags; flags win. An invalid value is a
    ValidationError naming the config file and the key."""
    if path is None:
        return _merge_config({}, Path("."), args)
    try:
        return _merge_config(_typed(cm.read_json(path), {}, "root"), Path(path).parent, args)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def _merge_config(raw: dict, base: Path, args) -> PipelineConfig:
    """The config object with each given flag set at its keys, read from the
    root down, its paths taken relative to `base`."""
    for flag, keys in FLAG_KEYS.items():
        value = getattr(args, flag, None)
        if value is None:
            continue
        for dotted in keys:
            section, _, key = dotted.rpartition(".")
            obj = raw.setdefault(section, {}) if section else raw
            if isinstance(obj, dict):  # a section that is not an object is reported as such
                obj[key] = value
    cfg = _dataclass_from(PipelineConfig(), raw, "")
    return dataclasses.replace(cfg, **{key: base / value for key, value in vars(cfg).items()
                                       if isinstance(value, Path)})


def atomic_write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


@dataclasses.dataclass(frozen=True)
class Stage:
    """A stage's result: per talk, the pairs it passes on and (intra only) the
    trims; and its lineage, the run entry of every manifest behind it."""

    pairs: dict[str, tuple[cm.AlignedPair, ...]]
    lineage: dict[str, dict]
    trims: dict[str, dict] = dataclasses.field(default_factory=dict)


def _run_entry(manifest: dict) -> dict:
    """How a consumer's manifest records one upstream run: by what it wrote,
    so that a rerun with other settings but the same output stays current."""
    canon = json.dumps(manifest.get("artifacts"), sort_keys=True).encode("utf-8")
    return {"artifacts_sha256": hashlib.sha256(canon).hexdigest()}


class RunManifest:
    """Records inputs, parameter hash, and artifact checksums for one run,
    and the lineage (`upstream`) of the stages it consumed."""

    def __init__(self, command: str, cfg: PipelineConfig, *consumed: Stage):
        self.command = command
        self.out_dir = cfg.out_dir
        cfg_obj = dataclasses.asdict(cfg)
        canon = json.dumps(cfg_obj, sort_keys=True, default=_json_default)
        self.params_hash = hashlib.sha256(canon.encode("utf-8")).hexdigest()
        self.inputs: list[str] = []
        self.artifacts: dict[str, str] = {}
        self.upstream = {cmd: entry for stage in consumed for cmd, entry in stage.lineage.items()}

    def add_input(self, path) -> None:
        if path is not None:
            self.inputs.append(str(path))

    def write_artifact(self, path: Path, text: str) -> None:
        atomic_write_text(path, text)
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        self.artifacts[str(path.relative_to(self.out_dir))] = digest

    def save(self) -> dict:
        """Write the manifest; returns the lineage of this run's output."""
        obj = {
            "command": self.command,
            "params_hash": self.params_hash,
            "inputs": sorted(set(self.inputs)),
            "artifacts": dict(sorted(self.artifacts.items())),
        }
        if self.upstream:
            obj["upstream"] = self.upstream
        path = self.out_dir / "manifests" / f"{self.command}.json"
        atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")
        return {self.command: _run_entry(obj), **self.upstream}


def _saved_manifest(path: Path, needed_by: str) -> dict:
    if not path.is_file():
        raise ValidationError(f"{needed_by}, which is missing")
    obj = cm.read_json(path)
    if not (isinstance(obj, dict) and all(isinstance(obj.get(key, {}), dict)
                                          for key in ("artifacts", "upstream"))):
        raise ParseError("not a run manifest", path=path)
    return obj


def load_stage(cfg: PipelineConfig, stage: str, docs) -> Stage:
    """Read a stage back for every talk. The manifest of the run that wrote
    it must list the files with their checksums, and every manifest it
    records upstream must be on disk as recorded; otherwise a
    ValidationError names the manifests. A manifest that is not a JSON
    object of objects is a ParseError."""
    path = cfg.out_dir / "manifests" / f"{STAGES[stage]}.json"
    obj = _saved_manifest(path, f"stage {stage} needs {path}")
    upstream = obj.get("upstream", {})
    if not upstream and stage != next(iter(STAGES)):
        raise ValidationError(f"{path} records no upstream manifests: rerun {STAGES[stage]}")
    for command, entry in upstream.items():
        up_path = path.parent / f"{command}.json"
        if _run_entry(_saved_manifest(up_path, f"{path} was made from {up_path}")) != entry:
            raise ValidationError(f"{path} was made from another {up_path}: rerun {STAGES[stage]}")
    artifacts = obj.get("artifacts", {})

    def read(name, reader):
        # a listed file is hashed as it is read, and must hash as listed
        if name not in artifacts:
            raise ValidationError(f"{path} does not list {name}")
        digest = hashlib.sha256()
        value = reader(cfg.out_dir / name, digest=digest)
        if digest.hexdigest() != artifacts[name]:
            raise ValidationError(f"{cfg.out_dir / name} differs from its checksum in {path}: "
                                  f"rerun {STAGES[stage]}")
        return value

    pairs, trims = {}, {}
    for doc in docs:
        pairs[doc.talk_id] = read(f"{stage}/{doc.talk_id}.jsonl", al.read_alignment_jsonl).kept()
        if stage == "intra":
            trims[doc.talk_id] = read(f"{stage}/{doc.talk_id}.trims.jsonl", fa.read_trims)
    return Stage(pairs, {STAGES[stage]: _run_entry(obj), **upstream}, trims)


def _json_default(value):
    if isinstance(value, Path):
        return str(value)
    if isinstance(value, frozenset):
        return sorted(v.value if hasattr(v, "value") else v for v in value)
    if hasattr(value, "value"):
        return value.value
    raise TypeError(f"not JSON serializable: {value!r}")


def load_corpus(cfg: PipelineConfig) -> list[cm.DocumentPair]:
    if cfg.corpus is None:
        raise ValidationError("config needs a 'corpus' path for this command")
    docs = [cm.load_document_pair(cm.read_manifest(path)) for path in cm.read_corpus(cfg.corpus)]
    ids = [d.talk_id for d in docs]
    if len(set(ids)) != len(ids):
        raise ValidationError("duplicate talk_id in corpus")
    return docs


def _align_one(doc: cm.DocumentPair, cfg: PipelineConfig) -> al.AlignmentSet:
    return al.align_talk(doc, cfg.embedding, cfg.align, cfg.corpus and cfg.corpus.parent)


def _map_talks(fn, docs, cfg: PipelineConfig):
    """Talk-level parallelism; results returned in input order."""
    if cfg.jobs <= 1 or len(docs) <= 1:
        return [fn(d, cfg) for d in docs]
    with concurrent.futures.ProcessPoolExecutor(max_workers=min(cfg.jobs, len(docs))) as pool:
        futures = [pool.submit(fn, d, cfg) for d in docs]
        return [f.result() for f in futures]


def cmd_synth(cfg: PipelineConfig) -> None:
    manifest = RunManifest("synth", cfg)
    talks = sb.generate_corpus(cfg.synth.seed, cfg.synth.talks, cfg.synth.sentences,
                               cfg.noise, cfg.synth.vocab_size)
    out = cfg.out_dir
    rels = []
    for talk in talks:
        talk_id = talk.doc.talk_id
        talk_dir = out / "talks" / talk_id
        for name, text in cm.talk_texts(talk.doc).items():
            manifest.write_artifact(talk_dir / name, text)
        rels.append(str((talk_dir / cm.MANIFEST_NAME).relative_to(out)))
        manifest.write_artifact(out / "gold" / f"{talk_id}.gold.jsonl",
                                al.links_text(talk_id, talk.gold.links))
        manifest.write_artifact(out / "gold" / f"{talk_id}.provenance.json",
                                sb.provenance_text(talk))
        ref = sb.build_reference(talk.doc, cfg.align.max_src_span)
        manifest.write_artifact(out / "refs" / f"{talk_id}.refs.jsonl",
                                fi.references_text(ref))
    manifest.write_artifact(out / "corpus.json", cm.corpus_text(rels))
    manifest.write_artifact(out / "allowlist.txt",
                            sp.allowlist_text(t.doc.talk_id for t in talks))
    manifest.save()
    log.info("synthesized %d talks into %s", len(talks), out)


def cmd_align(cfg: PipelineConfig, docs: list[cm.DocumentPair]) -> Stage:
    manifest = RunManifest("align", cfg)
    manifest.add_input(cfg.corpus)
    results = _map_talks(_align_one, docs, cfg)
    for doc, aset in zip(docs, results):
        manifest.write_artifact(cfg.out_dir / "coarse" / f"{doc.talk_id}.jsonl",
                                al.links_text(doc.talk_id, aset.links))
    return Stage({doc.talk_id: aset.kept() for doc, aset in zip(docs, results)}, manifest.save())


def cmd_validate(cfg: PipelineConfig, docs: list[cm.DocumentPair], coarse: Stage) -> None:
    manifest = RunManifest("validate", cfg, coarse)
    manifest.add_input(cfg.corpus)
    if cfg.gold_dir is None:
        raise ValidationError("config needs 'gold_dir' for validate")
    gold_paths = [cfg.gold_dir / f"{doc.talk_id}.gold.jsonl" for doc in docs]
    # every gold file is read before the first report is written
    golds = [al.read_alignment_jsonl(path) for path in gold_paths]
    reports = []
    for doc, gold_path, gold in zip(docs, gold_paths, golds):
        manifest.add_input(gold_path)
        auto = al.AlignmentSet(doc.talk_id, coarse.pairs[doc.talk_id], 0.0)
        report = rv.recovery_accuracy(auto, gold, doc, list(cfg.epsilons))
        reports.append(report)
        manifest.write_artifact(cfg.out_dir / "reports" / f"{doc.talk_id}.recovery.json",
                                rv.report_text(report))
    manifest.write_artifact(cfg.out_dir / "reports" / "recovery.tsv",
                            rv.summary_tsv_text(reports))
    manifest.save()


def cmd_filter_intra(cfg: PipelineConfig, docs: list[cm.DocumentPair], coarse: Stage) -> Stage:
    manifest = RunManifest("filter-intra", cfg, coarse)
    manifest.add_input(cfg.corpus)
    pairs, trims = {}, {}
    for doc in docs:
        results = fa.apply_intra_filter(coarse.pairs[doc.talk_id], doc, cfg.intra)
        manifest.write_artifact(cfg.out_dir / "intra" / f"{doc.talk_id}.jsonl",
                                al.links_text(doc.talk_id, [r.pair for r in results]))
        manifest.write_artifact(cfg.out_dir / "intra" / f"{doc.talk_id}.trims.jsonl",
                                fa.trims_text(doc.talk_id, coarse.pairs[doc.talk_id], results))
        # trimming keeps every pair it is given
        pairs[doc.talk_id] = tuple(r.pair for r in results)
        trims[doc.talk_id] = {r.pair.key(): r.trims for r in results}
    return Stage(pairs, manifest.save(), trims)


def cmd_filter_inter(cfg: PipelineConfig, docs: list[cm.DocumentPair], intra: Stage) -> Stage:
    manifest = RunManifest("filter-inter", cfg, intra)
    manifest.add_input(cfg.corpus)
    if cfg.refs_dir is None:
        raise ValidationError("config needs 'refs_dir' for filter-inter")
    scorer = None
    if cfg.scores_path is not None:
        manifest.add_input(cfg.scores_path)
        scorer = fi.read_external_scores(cfg.scores_path)
    pairs = {}
    for doc in docs:
        ref_path = cfg.refs_dir / f"{doc.talk_id}.refs.jsonl"
        manifest.add_input(ref_path)
        ref = fi.read_reference_jsonl(ref_path, talk_id=doc.talk_id)
        params = cfg.inter.per_talk.get(doc.talk_id, cfg.inter)
        kept, decisions = fi.apply_inter_filter(
            intra.pairs[doc.talk_id], doc, ref, params, scorer=scorer,
            trims_by_pair=intra.trims[doc.talk_id])
        if scorer is not None and decisions and all(d.eta < params.eta_min for d in decisions):
            # an external score has no fixed range, so a threshold may lie above all of them
            log.warning("%s: inter.eta_min %r exceeds every external score of the talk, "
                        "so eta drops all %d pairs", doc.talk_id, params.eta_min, len(decisions))
        manifest.write_artifact(cfg.out_dir / "inter" / f"{doc.talk_id}.jsonl",
                                al.links_text(doc.talk_id, kept))
        manifest.write_artifact(cfg.out_dir / "decisions" / f"{doc.talk_id}.jsonl",
                                fi.decisions_text(decisions))
        pairs[doc.talk_id] = tuple(kept)
    return Stage(pairs, manifest.save())


def cmd_split(cfg: PipelineConfig, docs: list[cm.DocumentPair]) -> None:
    manifest = RunManifest("split", cfg)
    manifest.add_input(cfg.corpus)
    if cfg.allowlist is None:
        raise ValidationError("config needs 'allowlist' for split")
    manifest.add_input(cfg.allowlist)
    allow = sp.read_allowlist(cfg.allowlist)
    split = sp.make_split([d.talk_id for d in docs], allow, cfg.dev_ids, cfg.test_ids,
                          allowlist_source=str(cfg.allowlist))
    manifest.write_artifact(cfg.out_dir / "split.json", sp.split_text(split))
    manifest.save()


def _linked(pairs) -> list[cm.AlignedPair]:
    return [l for l in pairs if not l.src_empty and not l.tgt_empty]


def cmd_stats(cfg: PipelineConfig, docs: list[cm.DocumentPair], *stages: Stage) -> None:
    """Talks and pairs of every stage, given in STAGES order."""
    manifest = RunManifest("stats", cfg, *stages)
    manifest.add_input(cfg.corpus)
    pair_counts = {name: {talk_id: len(_linked(pairs)) for talk_id, pairs in stage.pairs.items()}
                   for name, stage in zip(STAGES, stages)}
    table = sp.corpus_stats(pair_counts, {d.talk_id: d.interpreter_rank for d in docs})
    manifest.write_artifact(cfg.out_dir / "stats.tsv", table.as_tsv())
    manifest.write_artifact(cfg.out_dir / "stats.txt", table.as_text())
    manifest.save()


def cmd_export_anno(cfg: PipelineConfig, docs: list[cm.DocumentPair], stage: Stage) -> None:
    manifest = RunManifest("export-anno", cfg, stage)
    manifest.add_input(cfg.corpus)
    by_talk = {doc.talk_id: (_linked(stage.pairs[doc.talk_id]), doc) for doc in docs}
    manifest.write_artifact(cfg.out_dir / "annotations.tsv",
                            cu.annotations_text(cu.export_annotations(by_talk)))
    manifest.save()


def cmd_import_anno(cfg: PipelineConfig, anno_path: Path) -> None:
    manifest = RunManifest("import-anno", cfg)
    manifest.add_input(anno_path)
    docs = None
    if cfg.corpus is not None:
        docs = {d.talk_id: d for d in load_corpus(cfg)}
        manifest.add_input(cfg.corpus)
    kept, label_counts = cu.import_annotations(anno_path, docs)
    manifest.write_artifact(cfg.out_dir / "curated.jsonl", cu.curated_text(kept))
    manifest.write_artifact(cfg.out_dir / "curation_counts.json", cu.counts_text(label_counts))
    manifest.save()


def cmd_bench(cfg: PipelineConfig) -> None:
    manifest = RunManifest("bench", cfg)
    rows = []
    for om in cfg.bench_omission_rates:
        noise = dataclasses.replace(cfg.noise, omission_rate=om)
        triple = sb.run_bench_setting(cfg.synth.seed, cfg.bench_talks, cfg.synth.sentences,
                                      noise, cfg.synth.vocab_size, params=cfg.align)
        rows.append((noise, cfg.bench_talks, triple))
    text = sb.bench_text(rows)
    manifest.write_artifact(cfg.out_dir / "bench.tsv", text)
    manifest.save()
    print(text, end="")


def cmd_pipeline(cfg: PipelineConfig, docs: list[cm.DocumentPair]) -> None:
    """align -> intra -> inter -> split -> stats, each stage handed over in memory."""
    coarse = cmd_align(cfg, docs)
    intra = cmd_filter_intra(cfg, docs, coarse)
    inter = cmd_filter_inter(cfg, docs, intra)
    cmd_split(cfg, docs)
    cmd_stats(cfg, docs, coarse, intra, inter)


def _upstream(cfg: PipelineConfig, *stages: str) -> tuple:
    """The corpus and the named stages, read back for a standalone command."""
    docs = load_corpus(cfg)
    return docs, *(load_stage(cfg, stage, docs) for stage in stages)


# command -> handler(cfg, parsed args); the pipeline stages take the corpus
# as loaded documents and their upstream stage in memory, so that `pipeline`
# parses the corpus once and reads no stage back
COMMANDS = {
    "synth": lambda cfg, args: cmd_synth(cfg),
    "align": lambda cfg, args: cmd_align(cfg, load_corpus(cfg)),
    "validate": lambda cfg, args: cmd_validate(cfg, *_upstream(cfg, "coarse")),
    "filter-intra": lambda cfg, args: cmd_filter_intra(cfg, *_upstream(cfg, "coarse")),
    "filter-inter": lambda cfg, args: cmd_filter_inter(cfg, *_upstream(cfg, "intra")),
    "split": lambda cfg, args: cmd_split(cfg, load_corpus(cfg)),
    "stats": lambda cfg, args: cmd_stats(cfg, *_upstream(cfg, *STAGES)),
    "export-anno": lambda cfg, args: cmd_export_anno(cfg, *_upstream(cfg, args.stage)),
    "import-anno": lambda cfg, args: cmd_import_anno(cfg, args.annotations),
    "bench": lambda cfg, args: cmd_bench(cfg),
    "pipeline": lambda cfg, args: cmd_pipeline(cfg, load_corpus(cfg)),
}


def build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, default=None, help="JSON config file")
    common.add_argument("--out-dir", default=None, help="output directory")
    common.add_argument("--jobs", type=int, default=None, help="talk-level parallelism")
    common.add_argument("--seed", type=int, default=None, help="override synth/bench seed")
    common.add_argument("--alpha-min", dest="alpha_min", type=float, default=None)
    common.add_argument("--gamma-min", dest="gamma_min", type=float, default=None)
    common.add_argument("--gamma-max", dest="gamma_max", type=float, default=None)
    common.add_argument("--eta-min", dest="eta_min", type=float, default=None)
    common.add_argument("--prune-cost", dest="prune_cost", type=float, default=None)
    common.add_argument("--max-src-span", dest="max_src_span", type=int, default=None)
    common.add_argument("--max-tgt-span", dest="max_tgt_span", type=int, default=None)
    common.add_argument("--skip-penalty", dest="skip_penalty", type=float, default=None)

    parser = _Parser(prog="si-align",
                     description="SI corpus alignment and filtering pipeline")
    sub = parser.add_subparsers(dest="command", required=True)
    subs = {name: sub.add_parser(name, parents=[common]) for name in COMMANDS}
    subs["synth"].add_argument("--talks", type=int, default=None)
    subs["synth"].add_argument("--sentences", type=int, default=None)
    subs["synth"].add_argument("--vocab-size", type=int, default=None)
    subs["export-anno"].add_argument("--stage", choices=list(STAGES), default="inter")
    subs["import-anno"].add_argument("annotations", type=Path)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        level=os.environ.get("SI_ALIGN_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = load_config(args.config, args)
        COMMANDS[args.command](cfg, args)
        return EXIT_OK
    except (ParseError, OSError, em.MissingWindowError, fi.MissingReferenceError) as exc:
        code, message = EXIT_IO, str(exc)
    except ValidationError as exc:  # sp.ContaminationError included
        code, message = EXIT_VALIDATION, str(exc)
    except MemoryError as exc:
        code, message = EXIT_VALIDATION, f"out of memory: {exc}"
    log.error("%s", message)
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
