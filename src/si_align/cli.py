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

STAGE_COARSE = "coarse"
STAGE_INTRA = "intra"
STAGE_INTER = "inter"


class _Parser(argparse.ArgumentParser):
    # usage problems are validation errors (exit 1), not I/O errors (exit 2)
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_VALIDATION)


@dataclasses.dataclass
class PipelineConfig:
    out_dir: Path
    corpus: Path | None = None
    gold_dir: Path | None = None
    refs_dir: Path | None = None
    scores_path: Path | None = None
    allowlist: Path | None = None
    dev_ids: tuple[str, ...] = ()
    test_ids: tuple[str, ...] = ()
    embedding: dict = dataclasses.field(default_factory=dict)
    align_params: al.AlignParams = al.AlignParams()
    intra_params: fa.IntraFilterParams = fa.IntraFilterParams()
    inter_params: fi.InterFilterParams = fi.InterFilterParams()
    per_talk_inter: dict[str, fi.InterFilterParams] = dataclasses.field(default_factory=dict)
    noise: sb.NoiseParams = sb.NoiseParams()
    synth_talks: int = 5
    synth_sentences: int = 40
    synth_vocab: int = 200
    synth_seed: int = 7
    epsilons: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    bench_omission_rates: tuple[float, ...] = (0.0, 0.1, 0.2, 0.3)
    bench_talks: int = 20
    jobs: int = 1


_ALIGN_FLAG_MAP = {
    "prune_cost": "prune_cost_threshold",
    "max_src_span": "max_src_span",
    "max_tgt_span": "max_tgt_span",
    "skip_penalty": "skip_penalty",
}
_INTER_FLAGS = ("alpha_min", "gamma_min", "gamma_max", "eta_min")
_SYNTH_FLAGS = ("talks", "sentences", "vocab_size", "seed")


def _typed(value, default, name: str):
    """A config value checked against its default: a number takes the
    default's type (an int is also a valid float) and must be finite, and a
    tuple of numbers takes a list of them. Other values pass unchecked."""
    if isinstance(default, tuple):
        if not isinstance(value, list):
            raise ValidationError(f"{name}: expected a list, got {value!r}")
        return tuple(_typed(v, default[0], name) for v in value)
    if isinstance(default, bool) or not isinstance(default, (int, float)):
        return value
    allowed = int if isinstance(default, int) else (int, float)
    if (isinstance(value, bool) or not isinstance(value, allowed)
            or (isinstance(value, float) and not math.isfinite(value))):
        raise ValidationError(f"{name}: expected a finite {type(default).__name__}, got {value!r}")
    return value


def _dataclass_from(cls, obj: dict, context: str):
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    unknown = set(obj) - set(defaults)
    if unknown:
        raise ValidationError(f"{context}: unknown keys {sorted(unknown)}")
    typed = {key: _typed(value, defaults[key], f"{context}.{key}") for key, value in obj.items()}
    try:
        return cls(**typed)
    except ValidationError as exc:
        raise ValidationError(f"{context}: {exc}") from None


def _pos_set(values, context: str) -> frozenset:
    try:
        return frozenset(cm.Pos(p) for p in values)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{context}: expected a list of POS tags, got {values!r}") from exc


def load_config(path: Path | None, args) -> PipelineConfig:
    """Merge config file and CLI flags; flags win."""
    raw: dict = {}
    if path is not None:
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid config JSON: {exc}", path=path) from exc
    base = Path(path).parent if path is not None else Path(".")

    def respath(key):
        value = raw.get(key)
        return (base / value) if value is not None else None

    align_obj = dict(raw.get("align", {}))
    inter_obj = dict(raw.get("inter", {}))
    per_talk_raw = inter_obj.pop("per_talk", {})
    intra_obj = dict(raw.get("intra", {}))
    if "content_pos" in intra_obj:
        intra_obj["content_pos"] = _pos_set(intra_obj["content_pos"], "intra.content_pos")
    if "coverage_pos" in inter_obj:
        inter_obj["coverage_pos"] = _pos_set(inter_obj["coverage_pos"], "inter.coverage_pos")

    for flag, field_name in _ALIGN_FLAG_MAP.items():
        value = getattr(args, flag, None)
        if value is not None:
            align_obj[field_name] = value
    for flag in _INTER_FLAGS:
        value = getattr(args, flag, None)
        if value is not None:
            inter_obj[flag] = value

    inter_params = _dataclass_from(fi.InterFilterParams, inter_obj, "inter")
    per_talk = {}
    for talk_id, overrides in per_talk_raw.items():
        merged = {**inter_obj, **overrides}
        context = f"inter.per_talk.{talk_id}"
        if "coverage_pos" in overrides:
            merged["coverage_pos"] = _pos_set(overrides["coverage_pos"], f"{context}.coverage_pos")
        per_talk[talk_id] = _dataclass_from(fi.InterFilterParams, merged, context)

    synth_obj = dict(raw.get("synth", {}))
    noise_obj = dict(raw.get("noise", {}))
    for flag in _SYNTH_FLAGS:
        value = getattr(args, flag, None)
        if value is not None:
            synth_obj[flag] = value
    if getattr(args, "seed", None) is not None:
        noise_obj["rng_seed"] = args.seed

    embedding = raw.get("embedding", {})
    for key in ("dim", "orders", "seed"):
        if key in embedding:
            _typed(embedding[key], getattr(em.FallbackParams, key), f"embedding.{key}")
    em.EmbeddingProviderSpec.from_dict(embedding)  # validate early

    def top(key, default):
        return _typed(raw[key], default, key) if key in raw else default

    def synth(key, default):
        return _typed(synth_obj[key], default, f"synth.{key}") if key in synth_obj else default

    out_dir = getattr(args, "out_dir", None) or raw.get("out_dir") or "out"
    cfg = PipelineConfig(
        out_dir=(base / out_dir) if not Path(out_dir).is_absolute() else Path(out_dir),
        corpus=respath("corpus"),
        gold_dir=respath("gold_dir"),
        refs_dir=respath("refs_dir"),
        scores_path=respath("scores_path"),
        allowlist=respath("allowlist"),
        dev_ids=tuple(raw.get("dev_ids", ())),
        test_ids=tuple(raw.get("test_ids", ())),
        embedding=embedding,
        align_params=_dataclass_from(al.AlignParams, align_obj, "align"),
        intra_params=_dataclass_from(fa.IntraFilterParams, intra_obj, "intra"),
        inter_params=inter_params,
        per_talk_inter=per_talk,
        noise=_dataclass_from(sb.NoiseParams, noise_obj, "noise"),
        synth_talks=synth("talks", PipelineConfig.synth_talks),
        synth_sentences=synth("sentences", PipelineConfig.synth_sentences),
        synth_vocab=synth("vocab_size", PipelineConfig.synth_vocab),
        synth_seed=synth("seed", PipelineConfig.synth_seed),
        epsilons=top("epsilons", PipelineConfig.epsilons),
        bench_omission_rates=top("bench_omission_rates", PipelineConfig.bench_omission_rates),
        bench_talks=top("bench_talks", PipelineConfig.bench_talks),
        jobs=getattr(args, "jobs", None) or top("jobs", PipelineConfig.jobs),
    )
    return cfg


def atomic_write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


class RunManifest:
    """Records inputs, parameter hash, and artifact checksums for one run."""

    def __init__(self, command: str, cfg: PipelineConfig):
        self.command = command
        self.out_dir = cfg.out_dir
        cfg_obj = dataclasses.asdict(cfg)
        canon = json.dumps(cfg_obj, sort_keys=True, default=_json_default)
        self.params_hash = hashlib.sha256(canon.encode("utf-8")).hexdigest()
        self.inputs: list[str] = []
        self.artifacts: dict[str, str] = {}

    def add_input(self, path) -> None:
        if path is not None:
            self.inputs.append(str(path))

    def write_artifact(self, path: Path, text: str) -> None:
        atomic_write_text(path, text)
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        self.artifacts[str(path.relative_to(self.out_dir))] = digest

    def save(self) -> Path:
        obj = {
            "command": self.command,
            "params_hash": self.params_hash,
            "inputs": sorted(set(self.inputs)),
            "artifacts": dict(sorted(self.artifacts.items())),
        }
        path = self.out_dir / "manifests" / f"{self.command}.json"
        atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")
        return path


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


def build_table(doc: cm.DocumentPair, cfg: PipelineConfig) -> em.EmbeddingTable:
    spec = em.EmbeddingProviderSpec.from_dict(cfg.embedding)
    base = Path(cfg.corpus).parent if cfg.corpus is not None else None
    return em.table_for(doc, spec, cfg.align_params.max_src_span,
                        cfg.align_params.max_tgt_span, base_dir=base)


def _align_one(doc: cm.DocumentPair, cfg: PipelineConfig) -> al.AlignmentSet:
    table = build_table(doc, cfg)
    aligned = al.dp_align(doc, table, cfg.align_params)
    return al.prune(aligned, cfg.align_params.prune_cost_threshold)


def _map_talks(fn, docs, cfg: PipelineConfig):
    """Talk-level parallelism; results returned in input order."""
    if cfg.jobs <= 1 or len(docs) <= 1:
        return [fn(d, cfg) for d in docs]
    with concurrent.futures.ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
        futures = [pool.submit(fn, d, cfg) for d in docs]
        return [f.result() for f in futures]


def cmd_synth(cfg: PipelineConfig) -> int:
    manifest = RunManifest("synth", cfg)
    talks = sb.generate_corpus(cfg.synth_seed, cfg.synth_talks, cfg.synth_sentences,
                               cfg.noise, cfg.synth_vocab)
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
        ref = sb.build_reference(talk.doc, cfg.align_params.max_src_span)
        manifest.write_artifact(out / "refs" / f"{talk_id}.refs.jsonl",
                                fi.references_text(ref))
    manifest.write_artifact(out / "corpus.json", cm.corpus_text(rels))
    manifest.write_artifact(out / "allowlist.txt",
                            sp.allowlist_text(t.doc.talk_id for t in talks))
    manifest.save()
    log.info("synthesized %d talks into %s", len(talks), out)
    return EXIT_OK


def cmd_align(cfg: PipelineConfig, docs: list[cm.DocumentPair]) -> int:
    manifest = RunManifest("align", cfg)
    manifest.add_input(cfg.corpus)
    results = _map_talks(_align_one, docs, cfg)
    for doc, aset in zip(docs, results):
        manifest.write_artifact(cfg.out_dir / STAGE_COARSE / f"{doc.talk_id}.jsonl",
                                al.links_text(doc.talk_id, aset.links))
    manifest.save()
    return EXIT_OK


def _read_stage(cfg: PipelineConfig, stage: str, talk_id: str) -> al.AlignmentSet:
    path = cfg.out_dir / stage / f"{talk_id}.jsonl"
    aset = al.read_alignment_jsonl(path)
    if aset.talk_id in ("", None):
        aset = dataclasses.replace(aset, talk_id=talk_id)
    return aset


def cmd_validate(cfg: PipelineConfig) -> int:
    manifest = RunManifest("validate", cfg)
    manifest.add_input(cfg.corpus)
    if cfg.gold_dir is None:
        raise ValidationError("config needs 'gold_dir' for validate")
    docs = load_corpus(cfg)
    reports = []
    for doc in docs:
        gold_path = cfg.gold_dir / f"{doc.talk_id}.gold.jsonl"
        manifest.add_input(gold_path)
        gold = al.read_alignment_jsonl(gold_path)
        auto = _read_stage(cfg, STAGE_COARSE, doc.talk_id)
        report = rv.recovery_accuracy(auto, gold, doc, list(cfg.epsilons))
        reports.append(report)
        manifest.write_artifact(cfg.out_dir / "reports" / f"{doc.talk_id}.recovery.json",
                                rv.report_text(report))
    manifest.write_artifact(cfg.out_dir / "reports" / "recovery.tsv",
                            rv.summary_tsv_text(reports))
    manifest.save()
    return EXIT_OK


def cmd_filter_intra(cfg: PipelineConfig, docs: list[cm.DocumentPair]) -> int:
    manifest = RunManifest("filter-intra", cfg)
    manifest.add_input(cfg.corpus)
    for doc in docs:
        pairs = _read_stage(cfg, STAGE_COARSE, doc.talk_id).kept()
        results = fa.apply_intra_filter(pairs, doc, cfg.intra_params)
        manifest.write_artifact(cfg.out_dir / STAGE_INTRA / f"{doc.talk_id}.jsonl",
                                al.links_text(doc.talk_id, [r.pair for r in results]))
        manifest.write_artifact(cfg.out_dir / STAGE_INTRA / f"{doc.talk_id}.trims.jsonl",
                                fa.trims_text(doc.talk_id, pairs, results))
    manifest.save()
    return EXIT_OK


def cmd_filter_inter(cfg: PipelineConfig, docs: list[cm.DocumentPair]) -> int:
    manifest = RunManifest("filter-inter", cfg)
    manifest.add_input(cfg.corpus)
    if cfg.refs_dir is None:
        raise ValidationError("config needs 'refs_dir' for filter-inter")
    scorer = None
    if cfg.scores_path is not None:
        manifest.add_input(cfg.scores_path)
        scorer = fi.read_external_scores(cfg.scores_path)
    for doc in docs:
        ref_path = cfg.refs_dir / f"{doc.talk_id}.refs.jsonl"
        manifest.add_input(ref_path)
        ref = fi.read_reference_jsonl(ref_path, talk_id=doc.talk_id)
        intra = _read_stage(cfg, STAGE_INTRA, doc.talk_id)
        trims = fa.read_trims(cfg.out_dir / STAGE_INTRA / f"{doc.talk_id}.trims.jsonl")
        params = cfg.per_talk_inter.get(doc.talk_id, cfg.inter_params)
        kept, decisions = fi.apply_inter_filter(
            intra.kept(), doc, ref, params, scorer=scorer, trims_by_pair=trims)
        manifest.write_artifact(cfg.out_dir / STAGE_INTER / f"{doc.talk_id}.jsonl",
                                al.links_text(doc.talk_id, kept))
        manifest.write_artifact(cfg.out_dir / "decisions" / f"{doc.talk_id}.jsonl",
                                fi.decisions_text(decisions))
    manifest.save()
    return EXIT_OK


def cmd_split(cfg: PipelineConfig, docs: list[cm.DocumentPair]) -> int:
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
    return EXIT_OK


def cmd_stats(cfg: PipelineConfig, docs: list[cm.DocumentPair]) -> int:
    manifest = RunManifest("stats", cfg)
    manifest.add_input(cfg.corpus)
    ranks = {d.talk_id: d.interpreter_rank for d in docs}
    pair_counts: dict[str, dict[str, int]] = {}
    for stage in (STAGE_COARSE, STAGE_INTRA, STAGE_INTER):
        counts = {}
        for doc in docs:
            path = cfg.out_dir / stage / f"{doc.talk_id}.jsonl"
            if not path.exists():
                continue
            aset = al.read_alignment_jsonl(path)
            counts[doc.talk_id] = sum(
                1 for l in aset.kept() if not l.src_empty and not l.tgt_empty)
        if counts:
            pair_counts[stage] = counts
    table = sp.corpus_stats(pair_counts, ranks)
    manifest.write_artifact(cfg.out_dir / "stats.tsv", table.as_tsv())
    manifest.write_artifact(cfg.out_dir / "stats.txt", table.as_text())
    manifest.save()
    return EXIT_OK


def cmd_export_anno(cfg: PipelineConfig, stage: str) -> int:
    manifest = RunManifest("export-anno", cfg)
    manifest.add_input(cfg.corpus)
    docs = load_corpus(cfg)
    by_talk = {}
    for doc in docs:
        aset = _read_stage(cfg, stage, doc.talk_id)
        pairs = [l for l in aset.kept() if not l.src_empty and not l.tgt_empty]
        by_talk[doc.talk_id] = (pairs, doc)
    manifest.write_artifact(cfg.out_dir / "annotations.tsv",
                            cu.annotations_text(cu.export_annotations(by_talk)))
    manifest.save()
    return EXIT_OK


def cmd_import_anno(cfg: PipelineConfig, anno_path: Path) -> int:
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
    return EXIT_OK


def cmd_bench(cfg: PipelineConfig) -> int:
    manifest = RunManifest("bench", cfg)
    rows = []
    for om in cfg.bench_omission_rates:
        noise = dataclasses.replace(cfg.noise, omission_rate=om)
        triple = sb.run_bench_setting(cfg.synth_seed, cfg.bench_talks,
                                      cfg.synth_sentences, noise, cfg.synth_vocab,
                                      params=cfg.align_params)
        rows.append((noise, cfg.bench_talks, triple))
    text = sb.bench_text(rows)
    manifest.write_artifact(cfg.out_dir / "bench.tsv", text)
    manifest.save()
    print(text, end="")
    return EXIT_OK


def cmd_pipeline(cfg: PipelineConfig, docs: list[cm.DocumentPair]) -> int:
    for step in (cmd_align, cmd_filter_intra, cmd_filter_inter, cmd_split, cmd_stats):
        step(cfg, docs)
    return EXIT_OK


# command -> handler(cfg, parsed args); the five pipeline stages take the
# corpus as loaded documents so that `pipeline` parses it once
COMMANDS = {
    "synth": lambda cfg, args: cmd_synth(cfg),
    "align": lambda cfg, args: cmd_align(cfg, load_corpus(cfg)),
    "validate": lambda cfg, args: cmd_validate(cfg),
    "filter-intra": lambda cfg, args: cmd_filter_intra(cfg, load_corpus(cfg)),
    "filter-inter": lambda cfg, args: cmd_filter_inter(cfg, load_corpus(cfg)),
    "split": lambda cfg, args: cmd_split(cfg, load_corpus(cfg)),
    "stats": lambda cfg, args: cmd_stats(cfg, load_corpus(cfg)),
    "export-anno": lambda cfg, args: cmd_export_anno(cfg, args.stage),
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
    subs["export-anno"].add_argument("--stage", choices=(STAGE_COARSE, STAGE_INTRA, STAGE_INTER),
                                     default=STAGE_INTER)
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
        return COMMANDS[args.command](cfg, args)
    except (ParseError, FileNotFoundError, em.MissingWindowError,
            fi.MissingReferenceError) as exc:
        log.error("%s", exc)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValidationError, sp.ContaminationError) as exc:
        log.error("%s", exc)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
