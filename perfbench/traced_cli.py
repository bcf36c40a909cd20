"""Run one si-align command in this process and record per-layer spans.

    PYTHONPATH=src python perfbench/traced_cli.py TRACE.json pipeline --config CFG

The program is not edited. Before ``cli.main`` runs, each layer's public
functions are replaced on their module objects by wrappers that record a
span (name, parent, start, end) and, for some, count the work they did.
Spans are kept in memory and written to TRACE.json when the command ends.
The exit code is the command's own.
"""

import time

_PROCESS_T0 = time.perf_counter()

import functools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402

from si_align import align, cli, corpus, embeddings, inter, intra, recovery, splitter  # noqa: E402

# Fresh-interpreter import of the CLI with numpy and every layer module.
STARTUP_S = time.perf_counter() - _PROCESS_T0


class Tracer:
    """Spans as [name, parent index or None, start, end], plus counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def run(self, name, fn, *args, **kwargs):
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, parent, time.perf_counter(), None])
        self.stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self.stack.pop()
            self.spans[index][3] = time.perf_counter()

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.run(name, fn, *args, **kwargs)
            if count is not None:
                count(self.counts, result, *args)
            return result

        setattr(owner, attr, traced)


def _count_loads(counts, doc, manifest):
    counts["corpus.load_calls"] += 1


def _count_windows(counts, table, *args):
    counts["embeddings.windows"] += len(table.entries)


def _count_bytes(counts, table, path, *args):
    counts["embeddings.bytes_read"] += os.path.getsize(path)


def _count_dp(counts, aset, doc, table, params):
    m, n = len(doc.source_units), len(doc.target_units)
    cells = (m + 1) * (n + 1)
    counts["align.dp_cells"] += cells
    counts["align.dp_moves"] += cells * (2 + params.max_src_span * params.max_tgt_span)
    counts["align.grid_bytes"] += 8 * sum(
        max(m - a + 1, 0) * max(n - b + 1, 0)
        for a in range(1, params.max_src_span + 1)
        for b in range(1, params.max_tgt_span + 1))
    counts["align.links"] += len(aset.links)


def _count_pruned(counts, aset, *args):
    for link in aset.links:
        if link.drop_reason == align.DROP_COST:
            counts["align.pruned_cost"] += 1
        elif link.drop_reason == align.DROP_EMPTY:
            counts["align.pruned_empty"] += 1


def _count_trims(counts, results, pairs, *args):
    counts["intra.pairs_in"] += len(pairs)
    counts["intra.trims"] += sum(len(r.trims) for r in results)


def _count_inter(counts, result, *args):
    kept, decisions = result
    counts["inter.pairs_in"] += len(decisions)
    counts["inter.pairs_kept"] += len(kept)
    for d in decisions:
        counts["inter.drop_alpha"] += inter.REASON_ALPHA in d.reasons
        counts["inter.drop_gamma"] += (inter.REASON_GAMMA_LOW in d.reasons
                                       or inter.REASON_GAMMA_HIGH in d.reasons)
        counts["inter.drop_eta"] += inter.REASON_ETA in d.reasons


def _count_gold(counts, report, *args):
    counts["recovery.gold_links"] += len(report.per_sentence)


def _count_artifact(counts, result, manifest, path, text):
    counts["cli.artifacts_written"] += 1
    counts["cli.artifact_bytes"] += len(text.encode("utf-8"))


def install(tracer: Tracer) -> None:
    """Wrap the functions the CLI calls on each layer. Every call site goes
    through the module attribute, so replacing the attribute is enough."""
    tracer.wrap(corpus, "read_manifest", "corpus.load")
    tracer.wrap(corpus, "load_document_pair", "corpus.load", _count_loads)
    tracer.wrap(embeddings, "table_for", "embeddings.table", _count_windows)
    tracer.wrap(embeddings, "load_precomputed", "embeddings.load_precomputed", _count_bytes)
    tracer.wrap(align, "dp_align", "align.dp_align", _count_dp)
    tracer.wrap(align, "normalization_denominator", "align.denominator")
    tracer.wrap(align, "prune", "align.prune", _count_pruned)
    tracer.wrap(align, "read_alignment_jsonl", "cli.read_stage")
    tracer.wrap(intra, "apply_intra_filter", "intra.apply", _count_trims)
    tracer.wrap(inter, "read_reference_jsonl", "inter.read_refs")
    tracer.wrap(inter, "apply_inter_filter", "inter.apply", _count_inter)
    tracer.wrap(recovery, "recovery_accuracy", "recovery.accuracy", _count_gold)
    for name in ("read_allowlist", "make_split", "corpus_stats"):
        tracer.wrap(splitter, name, "splitter.stats")
    tracer.wrap(cli.RunManifest, "write_artifact", "cli.write_artifact", _count_artifact)


def main(argv) -> int:
    trace_path, command = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    code = tracer.run(f"cli.{command[0]}", cli.main, command)
    with open(trace_path, "w", encoding="utf-8") as handle:
        json.dump({"startup_s": STARTUP_S, "spans": tracer.spans,
                   "counts": dict(tracer.counts)}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
