#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the si-align batch pipeline.

    python3 perfbench/run.py --workload many_talks --seed 1 --seconds 45 --trace 0

Run it from the root of a source checkout; the program is imported from
``src/`` and nothing needs installing. For the chosen workload the script
generates a synthetic corpus from ``--seed`` (the set-up, timed three times),
runs one untimed warm-up, then repeats ``si-align pipeline`` followed by
``si-align validate`` for ``--seconds`` seconds. Every command runs in a
fresh ``python -m si_align.cli`` process with ``--jobs 1``, because users pay
for a cold process; BLAS keeps its default thread count. Every repetition
must leave the same artifact checksums and quality figures as the warm-up.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates an
untraced repetition with one run through ``traced_cli.py``, which records a
span around each layer's public functions, and prints per-layer metrics,
including the tracing overhead. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give the run context and a readable table.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import threading
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 3
MIN_REPEATS = 3
VALIDATE_REPEATS = 3   # validate is short, so it needs more samples per run
RUN_LIMIT_S = 170.0    # a child still running this long after start is killed
VECTOR_DIM = 768

FALLBACK_EMBEDDING = {"kind": "fallback_hash", "dim": 2048, "orders": [3, 4], "seed": 17}
PRECOMPUTED_EMBEDDING = {"kind": "precomputed_file", "path_pattern": "vectors/{talk_id}.tsv"}


@dataclasses.dataclass(frozen=True)
class Workload:
    talks: int
    sentences: int
    noise: dict
    precomputed: bool = False    # vectors read from TSV files instead of hashed


# many_talks is dominated by per-talk overhead (corpus loads, n-gram hashing,
# reference reading, filtering); precomputed_vectors swaps hashing for
# parsing vector files, so a change to the embedding table shows on both
# providers. long_talk is dominated by the O(M*N) DP fill and its cosine
# grids. It is not in BENCHMARK.json: the DP runs on one thread, so its time
# follows the speed of a single shared vCPU, and its ten-run spread reached
# the largest allowed bound. Run it by hand for paired comparisons.
WORKLOADS = {
    "long_talk": Workload(1, 400, {
        "omission_rate": 0.015, "mistranslation_rate": 0.015, "split_rate": 0.025,
        "merge_rate": 0.025, "filler_rate": 0.025}),
    "many_talks": Workload(30, 30, {
        "omission_rate": 0.08, "mistranslation_rate": 0.08, "split_rate": 0.12,
        "merge_rate": 0.10, "filler_rate": 0.12}),
    "precomputed_vectors": Workload(7, 60, {
        "omission_rate": 0.05, "mistranslation_rate": 0.05, "split_rate": 0.10,
        "merge_rate": 0.05, "filler_rate": 0.10}, precomputed=True),
}

# Lower bounds on the quality figures; a run below them is not correct.
QUALITY_FLOORS = {"link_f1": 0.5, "recovery_acc_0.5": 0.5,
                  "inter_precision": 0.5, "inter_yield": 0.3}

END_TO_END_UNITS = {
    "setup_s": "s", "pipeline_s": "s", "pipeline_cpu_s": "s", "validate_s": "s",
    "src_sents_per_s": "1/s", "peak_rss_mb": "MB", "link_f1": "ratio",
    "recovery_acc_0.5": "ratio", "inter_precision": "ratio", "inter_yield": "ratio",
}

# Spans recorded directly under the traced `pipeline` span; with cli.self_s
# they add up to cli.pipeline_span_s.
PIPELINE_LAYER_SPANS = (
    "corpus.load", "embeddings.table", "align.dp_align", "align.prune", "cli.read_stage",
    "intra.apply", "inter.read_refs", "inter.apply", "splitter.stats", "cli.write_artifact",
)
PIPELINE_COUNTS = (
    "corpus.load_calls", "embeddings.windows", "embeddings.bytes_read", "align.dp_cells",
    "align.dp_moves", "align.grid_bytes", "align.links", "align.pruned_cost",
    "align.pruned_empty", "intra.pairs_in", "intra.trims", "inter.pairs_in",
    "inter.pairs_kept", "inter.drop_alpha", "inter.drop_gamma", "inter.drop_eta",
    "cli.artifacts_written", "cli.artifact_bytes",
)
COUNT_METRICS = (*PIPELINE_COUNTS, "recovery.gold_links")
COUNT_UNITS = {"embeddings.bytes_read": "bytes", "align.grid_bytes": "bytes",
               "cli.artifact_bytes": "bytes"}


class SetupError(RuntimeError):
    """The corpus for a workload could not be generated."""


@dataclasses.dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float


@dataclasses.dataclass
class Rep:
    pipeline: Child
    validates: list[Child]
    ok: bool
    trace: dict | None = None      # layer metrics of a traced repetition


class Run:
    """One benchmark run: a work directory, its inputs and its checks."""

    def __init__(self, name: str, workload: Workload, seed: int, deadline: float):
        self.name, self.workload, self.seed, self.deadline = name, workload, seed, deadline
        self.embedding = PRECOMPUTED_EMBEDDING if workload.precomputed else FALLBACK_EMBEDDING
        self.dir = WORK / f"{name}-{seed}-{os.getpid()}"
        self.inputs = self.dir / "inputs"
        self.out = self.dir / "out"
        self.config = self.dir / "config.json"
        self.log = self.dir / "children.log"
        self.talks: list[tuple[str, int, int]] = []     # (talk_id, M, N)
        self.reference: tuple[dict, dict] | None = None  # (artifacts, quality)
        self.reference_counts: dict | None = None         # of traced repetitions

    def prepare(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.config.write_text(json.dumps({
            "out_dir": "out", "corpus": "inputs/corpus.json", "gold_dir": "inputs/gold",
            "refs_dir": "inputs/refs", "allowlist": "inputs/allowlist.txt",
            "embedding": self.embedding, "noise": self.workload.noise,
        }, indent=2), encoding="utf-8")

    def spawn(self, argv: list[str]) -> Child:
        """Run `python argv...` to completion; rusage is this child's alone."""
        env = dict(os.environ, PYTHONPATH=str(SRC), SI_ALIGN_LOG="WARNING")
        actions = [(os.POSIX_SPAWN_OPEN, 1, str(self.log),
                    os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644),
                   (os.POSIX_SPAWN_DUP2, 1, 2)]
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env,
                             file_actions=actions)
        killer = threading.Timer(max(self.deadline - start, 1.0), os.kill,
                                 (pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        return Child(os.waitstatus_to_exitcode(status), wall,
                     usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)

    def cli(self, command: str, *extra: str, trace: Path | None = None) -> Child:
        args = [command, "--config", str(self.config), "--jobs", "1", *extra]
        if trace is None:
            return self.spawn(["-m", "si_align.cli", *args])
        return self.spawn([str(HERE / "traced_cli.py"), str(trace), *args])

    def setup(self) -> float:
        """Synthesize the corpus, gold and references (and vector files)."""
        shutil.rmtree(self.inputs, ignore_errors=True)
        steps = [self.cli("synth", "--out-dir", "inputs", "--seed", str(self.seed),
                          "--talks", str(self.workload.talks),
                          "--sentences", str(self.workload.sentences))]
        if self.workload.precomputed and steps[0].code == 0:
            steps.append(self.spawn([str(HERE / "write_vectors.py"),
                                     str(self.inputs / "corpus.json"),
                                     str(self.inputs / "vectors"), str(VECTOR_DIM)]))
        if any(s.code != 0 for s in steps):
            raise SetupError(f"set-up of {self.name} failed: "
                             + self.log.read_text(encoding="utf-8")[-2000:])
        return sum(s.wall_s for s in steps)

    def load_sizes(self) -> None:
        from si_align import cli
        docs = cli.load_corpus(cli.PipelineConfig(out_dir=self.out,
                                                  corpus=self.inputs / "corpus.json"))
        self.talks = [(d.talk_id, len(d.source_units), len(d.target_units)) for d in docs]

    def repetition(self, traced: bool) -> Rep:
        shutil.rmtree(self.out, ignore_errors=True)
        traces = {c: self.dir / f"trace-{c}.json" for c in ("pipeline", "validate")}
        pipeline = self.cli("pipeline", trace=traces["pipeline"] if traced else None)
        if traced:
            validates = [self.cli("validate", trace=traces["validate"])]
        else:
            validates = [self.cli("validate") for _ in range(VALIDATE_REPEATS)]
        if pipeline.code != 0 or any(v.code != 0 for v in validates):
            return Rep(pipeline, validates, ok=False)
        try:
            observed = (self.artifacts(), self.quality())
        except (OSError, ValueError, KeyError) as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            return Rep(pipeline, validates, ok=False)
        if self.reference is None:
            self.reference = observed
        ok = observed == self.reference and all(
            observed[1][k] >= floor for k, floor in QUALITY_FLOORS.items())
        if not traced:
            return Rep(pipeline, validates, ok=ok)
        trace = layer_metrics(*(json.loads(p.read_text(encoding="utf-8"))
                                for p in traces.values()))
        counts = {k: trace[k] for k in COUNT_METRICS}
        if self.reference_counts is None:
            self.reference_counts = counts
        return Rep(pipeline, validates, ok=ok and counts == self.reference_counts,
                   trace=trace)

    def artifacts(self) -> dict:
        """Artifact checksums of every manifest; params_hash embeds the output
        path, so it is left out."""
        return {p.name: json.loads(p.read_text(encoding="utf-8"))["artifacts"]
                for p in sorted((self.out / "manifests").glob("*.json"))}

    def quality(self) -> dict:
        """Alignment quality of the outputs against the gold alignments."""
        from si_align import align, synth

        def read(path, talk_id):
            return dataclasses.replace(align.read_alignment_jsonl(path), talk_id=talk_id)

        f1s, kept, hits, gold_total = [], 0, 0, 0
        for talk_id, m, n in self.talks:
            gold = read(self.inputs / "gold" / f"{talk_id}.gold.jsonl", talk_id)
            coarse = read(self.out / "coarse" / f"{talk_id}.jsonl", talk_id)
            align.validate_alignment(coarse, m, n)
            f1s.append(synth.score_alignment(coarse, gold).f1)
            # intra trims only narrow a target span, so an inter pair is
            # right when it has a gold link's source span and lies within
            # that link's target span; links are monotone, so each gold
            # link is hit at most once
            gold_links = {(g.src_start, g.src_len): g for g in gold.links
                          if not g.src_empty and not g.tgt_empty}
            pairs = [p for p in read(self.out / "inter" / f"{talk_id}.jsonl", talk_id).kept()
                     if not p.src_empty and not p.tgt_empty]
            kept += len(pairs)
            hits += sum(1 for p in pairs if _within(p, gold_links))
            gold_total += len(gold_links)
        rows = (self.out / "reports" / "recovery.tsv").read_text(encoding="utf-8").splitlines()
        header = rows[0].split("\t")
        accuracies = [float(r.split("\t")[header.index("acc@0.5")]) for r in rows[1:]]
        if len(accuracies) != len(self.talks):
            raise ValueError(f"recovery.tsv has {len(accuracies)} talks, "
                             f"expected {len(self.talks)}")
        return {
            "link_f1": statistics.fmean(f1s),
            "recovery_acc_0.5": statistics.fmean(accuracies),
            "inter_precision": hits / kept,
            "inter_yield": hits / gold_total,
        }


def _within(pair, gold_links) -> bool:
    gold = gold_links.get((pair.src_start, pair.src_len))
    return gold is not None and gold.tgt_start <= pair.tgt_start and \
        pair.tgt_start + pair.tgt_len <= gold.tgt_start + gold.tgt_len


def layer_metrics(pipeline_trace: dict, validate_trace: dict) -> dict:
    """Per-layer seconds and counts of one traced pipeline (plus recovery,
    which only validate runs)."""
    spans = pipeline_trace["spans"]
    seconds = Counter()
    for name, _parent, start, end in spans:
        seconds[name] += end - start
    root = next(i for i, s in enumerate(spans) if s[1] is None)
    root_s = spans[root][3] - spans[root][2]
    children_s = sum(end - start for _, parent, start, end in spans if parent == root)
    metrics = {f"{name}_s": seconds[name] for name in PIPELINE_LAYER_SPANS}
    metrics["align.denominator_s"] = seconds["align.denominator"]
    metrics["cli.self_s"] = root_s - children_s
    metrics["cli.pipeline_span_s"] = root_s
    metrics["cli.startup_s"] = pipeline_trace["startup_s"]
    metrics["recovery.accuracy_s"] = sum(end - start for name, _, start, end
                                         in validate_trace["spans"]
                                         if name == "recovery.accuracy")
    counts = pipeline_trace["counts"]
    metrics.update({name: counts.get(name, 0) for name in PIPELINE_COUNTS})
    metrics["recovery.gold_links"] = validate_trace["counts"].get("recovery.gold_links", 0)
    return metrics


def metric_unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    return COUNT_UNITS.get(name, "count")


def context(run: Run) -> dict:
    import numpy
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "workload": run.name, "seed": run.seed,
        "talks": len(run.talks),
        "src_sentences_M": sum(m for _, m, _ in run.talks),
        "tgt_units_N": sum(n for _, _, n in run.talks),
        "max_talk_M": max(m for _, m, _ in run.talks),
        "embedding_provider": run.embedding["kind"],
        "embedding_dim": run.embedding.get("dim", VECTOR_DIM),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {k: os.environ.get(k, "unset") for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_sha": git_sha(), "platform": platform.platform(),
    }


def git_sha() -> str:
    """HEAD of the checkout, read without running git; 'unknown' outside a
    repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure(name: str, workload: Workload, seed: int, seconds: float, trace: bool,
            started: float) -> tuple[dict, dict]:
    """Set up, repeat for `seconds`, and return (result line, context)."""
    run = Run(name, workload, seed, deadline=started + RUN_LIMIT_S)
    run.prepare()
    try:
        setups = [run.setup() for _ in range(1 if trace else SETUP_REPEATS)]
        run.load_sizes()
        # The first repetition after set-up reads freshly written files and
        # runs measurably slower; it sets the reference outputs, untimed.
        warmup = run.repetition(traced=False)
        reps: list[Rep] = []
        start, rounds = time.perf_counter(), 0
        while True:
            reps.append(run.repetition(traced=False))
            if trace:
                reps.append(run.repetition(traced=True))
            rounds += 1
            elapsed = time.perf_counter() - start
            # stop once another round would end more than half a round late
            if len(reps) >= MIN_REPEATS and elapsed + elapsed / rounds / 2 >= seconds:
                break
            if time.perf_counter() >= run.deadline - 20.0:
                break
        ctx = context(run)
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)

    failed = sum(not r.ok for r in (warmup, *reps))
    good = [r for r in reps if r.ok]
    plain = [r for r in good if r.trace is None]
    traced = [r for r in good if r.trace is not None]
    metrics: dict[str, float] = {}
    if trace and plain and traced:
        metrics = layer_summary(plain, traced)
    elif not trace and plain:
        metrics = {"setup_s": statistics.median(setups),
                   **end_to_end(plain, ctx["src_sentences_M"]), **run.reference[1]}
        ctx["pipeline_s_samples"] = [r.pipeline.wall_s for r in plain]
        ctx["validate_s_samples"] = [v.wall_s for r in plain for v in r.validates]
    ctx["setup_s_samples"] = setups
    ctx["error_rate"] = failed / (len(reps) + 1)
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": len(reps) + 1, "failed": failed,
        "metrics": {k: {"value": v, "unit": metric_unit(k)} for k, v in metrics.items()},
    }
    return result, ctx


def end_to_end(reps: list[Rep], src_sentences: int) -> dict:
    """Times are means over the run's repetitions. On a shared host a
    repetition's time swings by up to 1.5x with the speed of the vCPU it
    lands on; with five or six samples the median jumps between those
    levels, while the mean follows the share of slow time, which is steadier
    from run to run."""
    pipeline_s = statistics.fmean(r.pipeline.wall_s for r in reps)
    return {
        "pipeline_s": pipeline_s,
        "pipeline_cpu_s": statistics.fmean(r.pipeline.cpu_s for r in reps),
        "validate_s": statistics.fmean(v.wall_s for r in reps for v in r.validates),
        "src_sents_per_s": src_sentences / pipeline_s,
        "peak_rss_mb": statistics.median(r.pipeline.rss_mb for r in reps),
    }


def layer_summary(plain: list[Rep], traced: list[Rep]) -> dict:
    """Layer metrics of the traced repetition with the median pipeline span,
    so that they still add up, plus the tracing overhead: mean traced minus
    mean untraced `pipeline` wall time, as in `end_to_end`."""
    by_span = sorted(traced, key=lambda r: r.trace["cli.pipeline_span_s"])
    metrics = dict(by_span[(len(by_span) - 1) // 2].trace)
    metrics["trace.overhead_s"] = (statistics.fmean(r.pipeline.wall_s for r in traced)
                                   - statistics.fmean(r.pipeline.wall_s for r in plain))
    return metrics


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops its child and removes its work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "si_align" / "cli.py").is_file():
        print(f"error: no si_align sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        result, ctx = measure(args.workload, WORKLOADS[args.workload], args.seed,
                              args.seconds, bool(args.trace), started)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("context " + json.dumps(ctx, sort_keys=True))
    for name, entry in result["metrics"].items():
        print(f"{name:28s} {entry['value']:>16.6g} {entry['unit']}")
    print(f"{'error_rate':28s} {ctx['error_rate']:>16.6g} ratio")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
