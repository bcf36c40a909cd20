"""Stage-1 coarse alignment: monotone DP over window-embedding similarities.

The DP segments [0, M) x [0, N) into an ordered sequence of links. A link
either pairs a source window with a target window (cost proportional to
normalized embedding distance, scaled by merged size) or skips one unit on
one side (flat penalty). Pruning then flags links that are too costly or
one-sided, mirroring the removal of no-translation candidates.
"""

from __future__ import annotations

import json
import logging
import random
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .corpus import AlignedPair, DocumentPair, ParseError, ValidationError
from .embeddings import SOURCE, TARGET, EmbeddingTable, cosine

log = logging.getLogger(__name__)

DENOM_FLOOR = 1e-6
COST_SUM_TOL = 1e-9

DROP_COST = "cost"
DROP_EMPTY = "empty"


@dataclass(frozen=True)
class AlignParams:
    max_src_span: int = 4
    max_tgt_span: int = 4
    skip_penalty: float = 0.70
    prune_cost_threshold: float = 1.0
    norm_sample_size: int = 256
    rng_seed: int = 17

    def __post_init__(self):
        if self.max_src_span < 1 or self.max_tgt_span < 1:
            raise ValidationError("span limits must be >= 1")
        if self.skip_penalty < 0:
            raise ValidationError(f"skip_penalty must be non-negative, got {self.skip_penalty}")
        if self.prune_cost_threshold <= 0:
            raise ValidationError("prune_cost_threshold must be positive")
        # so that untranslated units are routed into skips instead of forcing bad links
        if self.skip_penalty >= self.prune_cost_threshold:
            raise ValidationError(f"skip_penalty {self.skip_penalty} must be below "
                                  f"prune_cost_threshold {self.prune_cost_threshold}")
        if self.norm_sample_size < 1:
            raise ValidationError("norm_sample_size must be >= 1")


@dataclass(frozen=True)
class AlignmentSet:
    talk_id: str
    links: tuple[AlignedPair, ...]
    params_used: AlignParams | None
    total_cost: float

    def kept(self) -> tuple[AlignedPair, ...]:
        return tuple(l for l in self.links if not l.dropped)


def normalization_denominator(table: EmbeddingTable, sample_size: int, seed: int) -> float:
    """Mean (1 - cosine) over seeded random source/target singleton pairs.

    Fixes the scale on which the prune threshold of 1 is meaningful: a cost
    of 1 is "as dissimilar as a random sentence pair". One (source, target)
    index pair is drawn per iteration, source index first.
    """
    if table.n_source_units < 1 or table.n_target_units < 1:
        raise ValidationError("denominator needs at least one singleton window per side")
    rng = random.Random(seed)
    acc = 0.0
    for _ in range(sample_size):
        i = rng.randrange(table.n_source_units)
        j = rng.randrange(table.n_target_units)
        acc += 1.0 - cosine(table.vector(SOURCE, i, 1), table.vector(TARGET, j, 1))
    return max(acc / sample_size, DENOM_FLOOR)


def _cosine_grid(table: EmbeddingTable, max_a: int,
                 max_b: int) -> dict[tuple[int, int], np.ndarray]:
    """cos[(a, b)][i, j] = cosine of source window (i, a) and target window (j, b),
    one matmul of two table blocks per span-size pair."""
    return {(a, b): np.clip(table.windows(SOURCE, a) @ table.windows(TARGET, b).T, -1.0, 1.0)
            for a in range(1, max_a + 1) for b in range(1, max_b + 1)}


def dp_align(doc: DocumentPair, table: EmbeddingTable, params: AlignParams) -> AlignmentSet:
    """Minimum-cost monotone segmentation of the two documents into links.

    Ties are broken deterministically: smaller source span, then smaller
    target span, then non-skip over skip. The result is identical across
    runs and platforms for identical inputs.
    """
    m, n = len(doc.source_units), len(doc.target_units)
    if params.max_src_span > table.max_src_window or params.max_tgt_span > table.max_tgt_window:
        raise ValidationError(
            f"span limits ({params.max_src_span}, {params.max_tgt_span}) exceed table windows "
            f"({table.max_src_window}, {table.max_tgt_window})"
        )
    max_a, max_b = params.max_src_span, params.max_tgt_span

    denom = 1.0
    if m > 0 and n > 0:
        denom = normalization_denominator(table, params.norm_sample_size, params.rng_seed)
        grids = _cosine_grid(table, max_a, max_b)

    # transitions in tie-break preference order: (src_span, tgt_span, is_skip)
    moves = [(0, 1, True), (1, 0, True)]
    moves += [(a, b, False) for a in range(1, max_a + 1) for b in range(1, max_b + 1)]
    moves.sort(key=lambda t: (t[0], t[1], t[2]))

    inf = float("inf")
    cost = [[inf] * (n + 1) for _ in range(m + 1)]
    back: list[list[tuple[int, int, bool] | None]] = [[None] * (n + 1) for _ in range(m + 1)]
    cost[0][0] = 0.0
    for i in range(m + 1):
        for j in range(n + 1):
            if i == 0 and j == 0:
                continue
            best, best_move = inf, None
            for a, b, is_skip in moves:
                pi, pj = i - a, j - b
                if pi < 0 or pj < 0 or cost[pi][pj] == inf:
                    continue
                if is_skip:
                    step = params.skip_penalty * (a + b)
                else:
                    step = (1.0 - grids[(a, b)][pi, pj]) / denom * (a + b) / 2.0
                total = cost[pi][pj] + step
                if total < best:
                    best, best_move = total, (a, b, is_skip)
            cost[i][j] = best
            back[i][j] = best_move

    links: list[AlignedPair] = []
    i, j = m, n
    while i > 0 or j > 0:
        a, b, _ = back[i][j]
        pi, pj = i - a, j - b
        links.append(AlignedPair(
            src_start=pi, src_len=a, tgt_start=pj, tgt_len=b,
            cost=cost[i][j] - cost[pi][pj],
        ))
        i, j = pi, pj
    links.reverse()

    total = cost[m][n] if (m or n) else 0.0
    result = AlignmentSet(talk_id=doc.talk_id, links=tuple(links),
                          params_used=params, total_cost=total)
    validate_alignment(result, m, n)
    return result


def prune(alignment: AlignmentSet, threshold: float) -> AlignmentSet:
    """Flag links with cost above threshold or with an empty side.

    Flags are recomputed from scratch, so pruning is idempotent and pruning
    at a lower threshold drops a superset of a higher one.
    """
    pruned = []
    for link in alignment.links:
        if link.src_empty or link.tgt_empty:
            pruned.append(replace(link, dropped=True, drop_reason=DROP_EMPTY))
        elif link.cost > threshold:
            pruned.append(replace(link, dropped=True, drop_reason=DROP_COST))
        else:
            pruned.append(replace(link, dropped=False, drop_reason=None))
    return replace(alignment, links=tuple(pruned))


def validate_alignment(alignment: AlignmentSet, m: int, n: int) -> None:
    """Coverage, monotonicity, and cost-sum invariants over all links."""
    next_src, next_tgt = 0, 0
    for link in alignment.links:
        if link.src_start != next_src or link.tgt_start != next_tgt:
            raise ValidationError(
                f"{alignment.talk_id}: link at ({link.src_start},{link.tgt_start}) "
                f"expected ({next_src},{next_tgt})"
            )
        next_src += link.src_len
        next_tgt += link.tgt_len
    if next_src != m or next_tgt != n:
        raise ValidationError(
            f"{alignment.talk_id}: links cover ({next_src},{next_tgt}) of ({m},{n})"
        )
    total = sum(l.cost for l in alignment.links)
    if abs(total - alignment.total_cost) > COST_SUM_TOL:
        raise ValidationError(
            f"{alignment.talk_id}: total_cost {alignment.total_cost} != link sum {total}"
        )


def links_text(talk_id: str, links) -> str:
    """JSON Lines, one link per row, in the given order."""
    return "".join(json.dumps({
        "talk_id": talk_id,
        "src_start": link.src_start, "src_len": link.src_len,
        "tgt_start": link.tgt_start, "tgt_len": link.tgt_len,
        "cost": link.cost,
        "dropped": link.dropped, "drop_reason": link.drop_reason,
    }, ensure_ascii=False, sort_keys=True) + "\n" for link in links)


def read_alignment_jsonl(path) -> AlignmentSet:
    path = Path(path)
    links, talk_id = [], None
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            if not raw.strip():
                continue
            try:
                obj = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise ParseError(f"invalid JSON: {exc}", path=path, line=lineno) from exc
            try:
                link = AlignedPair(
                    src_start=obj["src_start"], src_len=obj["src_len"],
                    tgt_start=obj["tgt_start"], tgt_len=obj["tgt_len"],
                    cost=obj["cost"], dropped=obj.get("dropped", False),
                    drop_reason=obj.get("drop_reason"),
                )
            except (KeyError, ValidationError) as exc:
                raise ParseError(f"bad link row: {exc}", path=path, line=lineno) from exc
            if talk_id is None:
                talk_id = obj.get("talk_id")
            elif obj.get("talk_id") != talk_id:
                raise ParseError(
                    f"mixed talk_ids {talk_id!r} and {obj.get('talk_id')!r}",
                    path=path, line=lineno,
                )
            links.append(link)
    return AlignmentSet(
        talk_id=talk_id or "", links=tuple(links), params_used=None,
        total_cost=sum(l.cost for l in links),
    )
