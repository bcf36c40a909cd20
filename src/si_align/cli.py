"""Command-line pipeline: align, filter, split, curate, and benchmark.

Every subcommand reads a declarative JSON config (flags win over the file),
writes its artifacts under the output directory only once it has all of
them, and emits a machine-readable run manifest with input paths, a
parameter hash, and artifact checksums. Runs are idempotent: identical
inputs produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
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

# the values of the SI_ALIGN_LOG environment variable, in any case
LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL")

# stage -> the command whose run writes it, in pipeline order; each stage
# after the first is made from the one before it
STAGES = {"coarse": "align", "intra": "filter-intra", "inter": "filter-inter"}


class _Parser(argparse.ArgumentParser):
    # usage problems are validation errors (exit 1), not I/O errors (exit 2)
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


@dataclasses.dataclass(frozen=True)
class InterSection(fi.InterFilterParams):
    """The `inter` object: the filter's thresholds, and in `per_talk`, by
    talk id, the thresholds of one talk, read with the section's as defaults."""

    per_talk: dict[str, fi.InterFilterParams] = dataclasses.field(default_factory=dict)


@dataclasses.dataclass(frozen=True)
class PipelineConfig:
    """The config root. Each field is a key of the JSON config, and each
    section a dataclass whose fields are its keys. A path is relative to the
    config file's directory, except `embedding.path_pattern`, which is
    relative to the corpus file's directory."""

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
        for key in ("bench_talks", "jobs"):
            if getattr(self, key) < 1:
                raise ValidationError(f"{key}: must be >= 1, got {getattr(self, key)}")
        # a gold link is recovered when its similarity, in [0, 1], is above eps
        for eps in self.epsilons:
            if not 0.0 <= eps < 1.0:
                raise ValidationError(f"epsilons: must be in [0, 1), got {eps!r}")
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


# command-line flag -> (its type, the config keys it sets); `--seed` seeds the
# talks and their noise. Each command takes every flag but SYNTH_FLAGS, synth's.
FLAGS = {
    "--out-dir": (str, ("out_dir",)), "--jobs": (int, ("jobs",)),
    "--seed": (int, ("synth.seed", "noise.rng_seed")),
    "--alpha-min": (float, ("inter.alpha_min",)), "--gamma-min": (float, ("inter.gamma_min",)),
    "--gamma-max": (float, ("inter.gamma_max",)), "--eta-min": (float, ("inter.eta_min",)),
    "--prune-cost": (float, ("align.prune_cost_threshold",)),
    "--max-src-span": (int, ("align.max_src_span",)),
    "--max-tgt-span": (int, ("align.max_tgt_span",)),
    "--skip-penalty": (float, ("align.skip_penalty",)),
    "--talks": (int, ("synth.talks",)), "--sentences": (int, ("synth.sentences",)),
    "--vocab-size": (int, ("synth.vocab_size",)),
}
SYNTH_FLAGS = ("--talks", "--sentences", "--vocab-size")


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
    """The config file's object, each flag given in `args` set at its keys
    (flags win), its paths relative to the file's directory. An invalid value
    is a ValidationError naming the key, and the config file if there is one."""
    try:
        raw = {} if path is None else _typed(cm.read_json(path), {}, "root")
        for flag, (_, keys) in FLAGS.items():
            value = getattr(args, flag[2:].replace("-", "_"), None)  # argparse's dest
            if value is None:
                continue
            for dotted in keys:
                section, _, key = dotted.rpartition(".")
                obj = raw.setdefault(section, {}) if section else raw
                if isinstance(obj, dict):  # a section that is not an object is reported as such
                    obj[key] = value
        cfg = _dataclass_from(PipelineConfig(), raw, "")
    except ValidationError as exc:
        raise ValidationError(str(exc) if path is None else f"{path}: {exc}") from None
    base = Path(".") if path is None else Path(path).parent
    return dataclasses.replace(cfg, **{key: base / value for key, value in vars(cfg).items()
                                       if isinstance(value, Path)})


@dataclasses.dataclass(frozen=True)
class Stage:
    """A stage's result: per talk, the pairs it passes on and (intra, read by
    `load_stage`) the trims; its lineage, the run entry of each manifest behind it."""

    pairs: dict[str, tuple[cm.AlignedPair, ...]]
    lineage: dict[str, dict]
    trims: dict[str, dict] = dataclasses.field(default_factory=dict)


def _run_entry(manifest: dict) -> dict:
    """How a consumer's manifest records one upstream run: by what it wrote,
    so that a rerun with other settings but the same output stays current,
    and, for `align`, by the talk files it read."""
    def digest(value) -> str:
        return hashlib.sha256(json.dumps(value, sort_keys=True).encode("utf-8")).hexdigest()

    entry = {"artifacts_sha256": digest(manifest.get("artifacts"))}
    if "talks" in manifest:
        entry["talks_sha256"] = digest(manifest["talks"])
    return entry


class RunManifest:
    """Records one run's inputs, parameter hash, artifacts, the lineage
    (`upstream`) of the stages it consumed and, in `talks`, the
    `files_sha256` of each talk it aligned; writes nothing before `save`."""

    def __init__(self, command: str, cfg: PipelineConfig, *consumed: Stage):
        self.command = command
        self.out_dir = cfg.out_dir
        canon = json.dumps(dataclasses.asdict(cfg), sort_keys=True, default=_json_default)
        self.params_hash = hashlib.sha256(canon.encode("utf-8")).hexdigest()
        self.inputs: list[str] = []
        self.texts: dict[Path, str] = {}
        self.talks: dict[str, str] = {}
        self.upstream = {cmd: entry for stage in consumed for cmd, entry in stage.lineage.items()}

    def add_input(self, path) -> None:
        if path is not None:
            self.inputs.append(str(path))

    def write_artifact(self, path: Path, text: str) -> None:
        self.texts[path] = text

    def save(self) -> dict:
        """Write every artifact, then the manifest, each to a temporary file
        renamed into place; returns the lineage of this run's output."""
        digests = {str(path.relative_to(self.out_dir)): hashlib.sha256(text.encode()).hexdigest()
                   for path, text in self.texts.items()}
        obj = {"command": self.command, "params_hash": self.params_hash,
               "inputs": sorted(set(self.inputs)), "artifacts": digests}
        if self.talks:
            obj["talks"] = self.talks
        if self.upstream:
            obj["upstream"] = self.upstream
        manifest = json.dumps(obj, indent=2, sort_keys=True) + "\n"
        for path, text in [*self.texts.items(),
                           (self.out_dir / "manifests" / f"{self.command}.json", manifest)]:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_name(path.name + ".tmp")
            tmp.write_text(text, encoding="utf-8")
            os.replace(tmp, path)
        return {self.command: _run_entry(obj), **self.upstream}


def _saved_manifest(path: Path, needed_by: str) -> dict:
    if not path.is_file():
        raise ValidationError(f"{needed_by}, which is missing")
    obj = cm.read_json(path)
    if not (isinstance(obj, dict) and all(isinstance(obj.get(key, {}), dict)
                                          for key in ("artifacts", "talks", "upstream"))):
        raise ParseError("not a run manifest", path=path)
    return obj


def load_stage(cfg: PipelineConfig, stage: str, docs) -> Stage:
    """Read a stage back for every talk. The manifest of the run that wrote
    it must list the files with their checksums, every manifest it records
    upstream must be on disk as recorded, every link must lie within its
    talk, and each talk's files must be those the `align` run read;
    otherwise a ValidationError names the manifests, the link's file and
    line, or the talk. A manifest that is not a JSON object of objects is a
    ParseError."""
    path = cfg.out_dir / "manifests" / f"{STAGES[stage]}.json"
    obj = _saved_manifest(path, f"stage {stage} needs {path}")
    manifests = {STAGES[stage]: obj}
    upstream = obj.get("upstream", {})
    if not upstream and stage != next(iter(STAGES)):
        raise ValidationError(f"{path} records no upstream manifests: rerun {STAGES[stage]}")
    for command, entry in upstream.items():
        up_path = path.parent / f"{command}.json"
        manifests[command] = _saved_manifest(up_path, f"{path} was made from {up_path}")
        if _run_entry(manifests[command]) != entry:
            raise ValidationError(f"{path} was made from another {up_path}: rerun {STAGES[stage]}")
    artifacts = obj.get("artifacts", {})

    def read(name, reader, **kwargs):
        # a listed file's bytes must hash as listed before they are parsed,
        # so a hand-edited file is reported as stale, not as malformed
        if name not in artifacts:
            raise ValidationError(f"{path} does not list {name}")
        data = cm.read_file(cfg.out_dir / name)
        if hashlib.sha256(data).hexdigest() != artifacts[name]:
            raise ValidationError(f"{cfg.out_dir / name} differs from its checksum in {path}: "
                                  f"rerun {STAGES[stage]}")
        return reader(cfg.out_dir / name, data=data, **kwargs)

    pairs, trims = {}, {}
    for doc in docs:
        name = f"{stage}/{doc.talk_id}.jsonl"
        aset = read(name, al.read_alignment_jsonl, doc=doc)
        pairs[doc.talk_id] = aset.kept()
        if stage == "intra":
            trims_name = f"{stage}/{doc.talk_id}.trims.jsonl"
            trims[doc.talk_id] = read(trims_name, fa.read_trims)
            if trims[doc.talk_id].keys() != {pair.key() for pair in pairs[doc.talk_id]}:
                raise ValidationError(f"{cfg.out_dir / trims_name} does not match the links of "
                                      f"{cfg.out_dir / name}, both listed in {path}: "
                                      f"rerun {STAGES[stage]}")
    # the corpus is checked last, so that links made for a talk of another
    # shape are reported at their line
    talks = manifests.get("align", {}).get("talks", {})
    for doc in docs:
        if talks.get(doc.talk_id) != doc.files_sha256:
            raise ValidationError(f"the files of talk {doc.talk_id} are not those that "
                                  f"{path.parent / 'align.json'} records: rerun align")
    return Stage(pairs, {STAGES[stage]: _run_entry(obj), **upstream}, trims)


def _json_default(value):
    if isinstance(value, Path):
        return str(value)
    if isinstance(value, frozenset):
        return sorted(value)
    raise TypeError(f"not JSON serializable: {value!r}")


def load_corpus(cfg: PipelineConfig) -> list[cm.DocumentPair]:
    if cfg.corpus is None:
        raise ValidationError("config needs a 'corpus' path for this command")
    docs = [cm.load_document_pair(cm.read_manifest(path)) for path in cm.read_corpus(cfg.corpus)]
    seen = set()
    for doc in docs:
        if doc.talk_id in seen:
            raise ValidationError(f"duplicate talk_id {doc.talk_id!r} in corpus", path=cfg.corpus)
        seen.add(doc.talk_id)
    return docs


def _bench_one(talk: tuple[sb.NoiseParams, int], cfg: PipelineConfig) -> sb.ScoreTriple:
    """The link scores of one bench talk, given as (noise setting, index):
    the talk is generated, aligned and scored here, in the worker."""
    noise, index = talk
    gold_talk = sb.corpus_talk(cfg.synth.seed, index, cfg.synth.sentences, noise,
                               cfg.synth.vocab_size)
    return sb.score_alignment(al.align_talk(gold_talk.doc, sb.BENCH_EMBED, cfg.align),
                              gold_talk.gold)


def _map_talks(fn, talks, cfg: PipelineConfig):
    """`fn(talk, cfg)` for every talk (its `_talk_stages` job, or a bench
    talk's (noise, index)), over `cfg.jobs` worker processes; results
    returned in input order. This is si-align's only parallelism: each
    process runs one BLAS thread (see `si_align/__init__.py`). A worker
    that ends abruptly, as when the OOM killer ends it, is a ValidationError."""
    if cfg.jobs <= 1 or len(talks) <= 1:
        return [fn(t, cfg) for t in talks]
    import concurrent.futures
    from concurrent.futures.process import BrokenProcessPool

    try:
        with concurrent.futures.ProcessPoolExecutor(max_workers=min(cfg.jobs, len(talks))) as pool:
            futures = [pool.submit(fn, t, cfg) for t in talks]
            return [f.result() for f in futures]
    except BrokenProcessPool:
        raise ValidationError("a worker process ended abruptly (out of memory?); "
                              "nothing was written") from None


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


def _talk_stages(job: tuple, cfg: PipelineConfig) -> list[tuple]:
    """Run one talk's stages in order, in its worker. `job` is (doc, stages,
    the pairs and trims of the stage before the first, the talk's external
    scores or None). Per stage: the pairs it passes on and its artifact
    texts by file name."""
    doc, stages, pairs, trims, scores = job
    talk_id, results = doc.talk_id, []
    for stage in stages:
        name = f"{stage}/{talk_id}.jsonl"
        if stage == "coarse":
            aset = al.align_talk(doc, cfg.embedding, cfg.align, cfg.corpus and cfg.corpus.parent)
            pairs, texts = aset.kept(), {name: al.links_text(talk_id, aset.links)}
        elif stage == "intra":
            trimmed = fa.apply_intra_filter(pairs, doc, cfg.intra)
            texts = {name: al.links_text(talk_id, [r.pair for r in trimmed]),
                     f"intra/{talk_id}.trims.jsonl": fa.trims_text(talk_id, pairs, trimmed)}
            # trimming keeps every pair it is given
            pairs, trims = tuple(r.pair for r in trimmed), {r.pair.key(): r.trims for r in trimmed}
        else:
            ref = fi.read_reference_jsonl(cfg.refs_dir / f"{talk_id}.refs.jsonl", talk_id=talk_id)
            kept, decisions = fi.apply_inter_filter(pairs, doc, ref,
                                                    cfg.inter.per_talk.get(talk_id, cfg.inter),
                                                    scores=scores)
            texts = {name: al.links_text(talk_id, kept),
                     f"decisions/{talk_id}.jsonl": fi.decisions_text(talk_id, decisions, trims)}
            pairs = tuple(kept)
        results.append((pairs, texts))
    return results


def run_stages(cfg: PipelineConfig, stages: list[str], docs: list[cm.DocumentPair],
               upstream: Stage = Stage({}, {})) -> list[Stage]:
    """The consecutive `stages` on `upstream`, the stage before the first
    (empty before `coarse`), by `_talk_stages` over `_map_talks`. Once every
    talk has passed them all, one manifest per stage records its texts and
    is saved, in order; so the first failing talk in corpus order fails the
    run, which then writes nothing."""
    scores = {}
    if "inter" in stages:
        if cfg.refs_dir is None:
            raise ValidationError("config needs 'refs_dir' for filter-inter")
        unknown = sorted(cfg.inter.per_talk.keys() - {doc.talk_id for doc in docs})
        if unknown:
            raise ValidationError(f"inter.per_talk.{unknown[0]}: no talk of that id in the corpus",
                                  path=cfg.corpus)
        if cfg.scores_path is not None:
            scores = fi.read_external_scores(cfg.scores_path)
            for doc in docs:
                # a talk the file lacks fails at its first pair, naming the file
                scores.setdefault(doc.talk_id, fi.SpanTable(fi.SCORE, doc.talk_id,
                                                            path=str(cfg.scores_path)))
    jobs = [(doc, stages, upstream.pairs.get(doc.talk_id), upstream.trims.get(doc.talk_id),
             scores.get(doc.talk_id)) for doc in docs]
    by_talk = _map_talks(_talk_stages, jobs, cfg)
    done = [upstream]
    for i, stage in enumerate(stages):
        manifest = RunManifest(STAGES[stage], cfg, done[-1])
        manifest.add_input(cfg.corpus)
        if stage == "coarse":
            manifest.talks = {doc.talk_id: doc.files_sha256 for doc in docs}
        elif stage == "inter":
            manifest.add_input(cfg.scores_path)
            for doc in docs:
                manifest.add_input(cfg.refs_dir / f"{doc.talk_id}.refs.jsonl")
        pairs = {}
        for doc, results in zip(docs, by_talk):
            pairs[doc.talk_id], texts = results[i]
            for name, text in texts.items():
                manifest.write_artifact(cfg.out_dir / name, text)
        done.append(Stage(pairs, manifest.save()))
    # an external score has no fixed range, so a threshold may lie above all of
    # them; scores are given only to inter, the last stage, which judged done[-2]
    for doc in docs:
        table, judged = scores.get(doc.talk_id), done[-2].pairs.get(doc.talk_id)
        eta_min = cfg.inter.per_talk.get(doc.talk_id, cfg.inter).eta_min
        if table and judged and max(table.values()) < eta_min:
            log.warning("%s: inter.eta_min %r exceeds every external score of the talk, "
                        "so eta drops all %d pairs", doc.talk_id, eta_min, len(judged))
    return done[1:]


def cmd_validate(cfg: PipelineConfig, docs: list[cm.DocumentPair], coarse: Stage) -> None:
    manifest = RunManifest("validate", cfg, coarse)
    manifest.add_input(cfg.corpus)
    if cfg.gold_dir is None:
        raise ValidationError("config needs 'gold_dir' for validate")
    reports = []
    for doc in docs:
        gold_path = cfg.gold_dir / f"{doc.talk_id}.gold.jsonl"
        manifest.add_input(gold_path)
        auto = al.AlignmentSet(doc.talk_id, coarse.pairs[doc.talk_id], 0.0)
        gold = al.read_alignment_jsonl(gold_path, doc=doc)
        if not gold.links:
            raise ValidationError(f"no gold links for talk {doc.talk_id}", path=gold_path)
        reports.append(rv.recovery_accuracy(auto, gold, doc, list(cfg.epsilons)))
        manifest.write_artifact(cfg.out_dir / "reports" / f"{doc.talk_id}.recovery.json",
                                rv.report_text(reports[-1]))
    manifest.write_artifact(cfg.out_dir / "reports" / "recovery.tsv",
                            rv.summary_tsv_text(reports))
    manifest.save()


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
    """Link P/R/F1 per omission rate: every talk of every setting is
    generated, aligned and scored by `_bench_one` over `_map_talks`, and the
    scores are averaged here per setting."""
    manifest = RunManifest("bench", cfg)
    settings = [dataclasses.replace(cfg.noise, omission_rate=om)
                for om in cfg.bench_omission_rates]
    n = cfg.bench_talks
    scores = _map_talks(_bench_one, [(noise, i) for noise in settings for i in range(n)], cfg)
    rows = [(noise, n, sb.mean_score(scores[k * n:(k + 1) * n]))
            for k, noise in enumerate(settings)]
    text = sb.bench_text(rows)
    manifest.write_artifact(cfg.out_dir / "bench.tsv", text)
    manifest.save()
    print(text, end="")


def cmd_pipeline(cfg: PipelineConfig, docs: list[cm.DocumentPair]) -> None:
    """align -> intra -> inter (one task per talk) -> split -> stats, in memory."""
    stages = run_stages(cfg, list(STAGES), docs)
    cmd_split(cfg, docs)
    cmd_stats(cfg, docs, *stages)


def _upstream(cfg: PipelineConfig, *stages: str) -> tuple:
    """The corpus and the named stages, read back for a standalone command."""
    docs = load_corpus(cfg)
    return docs, *(load_stage(cfg, stage, docs) for stage in stages)


# command -> handler(cfg, parsed args); the pipeline stages take the corpus
# as loaded documents and their upstream stage in memory, so that `pipeline`
# parses the corpus once and reads no stage back
COMMANDS = {
    "synth": lambda cfg, args: cmd_synth(cfg),
    "align": lambda cfg, args: run_stages(cfg, ["coarse"], load_corpus(cfg)),
    "validate": lambda cfg, args: cmd_validate(cfg, *_upstream(cfg, "coarse")),
    "filter-intra": lambda cfg, args: run_stages(cfg, ["intra"], *_upstream(cfg, "coarse")),
    "filter-inter": lambda cfg, args: run_stages(cfg, ["inter"], *_upstream(cfg, "intra")),
    "split": lambda cfg, args: cmd_split(cfg, load_corpus(cfg)),
    "stats": lambda cfg, args: cmd_stats(cfg, *_upstream(cfg, *STAGES)),
    "export-anno": lambda cfg, args: cmd_export_anno(cfg, *_upstream(cfg, args.stage)),
    "import-anno": lambda cfg, args: cmd_import_anno(cfg, args.annotations),
    "bench": lambda cfg, args: cmd_bench(cfg),
    "pipeline": lambda cfg, args: cmd_pipeline(cfg, load_corpus(cfg)),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="si-align",
                     description="SI corpus alignment and filtering pipeline")
    sub = parser.add_subparsers(dest="command", required=True)
    subs = {name: sub.add_parser(name) for name in COMMANDS}
    for name, command in subs.items():
        command.add_argument("--config", type=Path, default=None, help="JSON config file")
        for flag, (kind, keys) in FLAGS.items():
            if name == "synth" or flag not in SYNTH_FLAGS:
                command.add_argument(flag, type=kind, help="sets " + " and ".join(keys))
    subs["export-anno"].add_argument("--stage", choices=list(STAGES), default="inter")
    subs["import-anno"].add_argument("annotations", type=Path)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        level = os.environ.get("SI_ALIGN_LOG", "WARNING")
        if level.upper() not in LOG_LEVELS:
            raise ValidationError(f"SI_ALIGN_LOG: unknown level {level!r}, "
                                  f"expected one of {', '.join(LOG_LEVELS)}")
        logging.basicConfig(level=level.upper(), format="%(levelname)s %(name)s: %(message)s")
        args = parser.parse_args(argv)
        cfg = load_config(args.config, args)
        COMMANDS[args.command](cfg, args)
        return EXIT_OK
    except (ParseError, OSError) as exc:
        code, message = EXIT_IO, str(exc)
    except ValidationError as exc:  # sp.ContaminationError included
        code, message = EXIT_VALIDATION, str(exc)
    except MemoryError as exc:
        code, message = EXIT_VALIDATION, f"out of memory: {exc}"
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
