"""Stage-1 coarse alignment: monotone DP over window-embedding similarities.

The DP segments [0, M) x [0, N) into an ordered sequence of links. A link
either pairs a source window with a target window (cost proportional to
normalized embedding distance, scaled by merged size) or skips one unit on
one side (flat penalty). Pruning then flags links that are too costly or
one-sided, mirroring the removal of no-translation candidates.

The DP table is filled one source row at a time. Every move with a source
span reads only earlier rows, so its totals for the whole row are one numpy
addition, `cost[i - a, j - b] + step`; the moves are stacked in tie-break
preference order and `argmin` keeps the first minimum. Only the (0, 1) skip
reads the row being filled; it runs as a scalar pass and, being first in
preference order, keeps a cell unless another move is strictly cheaper.
Each total is the same float operations on the same values as a cell-by-cell
scan with a strict `<`, so costs and links are identical to it bit for bit.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass, replace

from . import embeddings as em
from .corpus import (AlignedPair, DocumentPair, ValidationError, check_span, jsonl_text,
                     read_jsonl)
from .embeddings import SOURCE, TARGET, EmbeddingTable

# numpy is imported by the functions that compute with it, so that importing
# this module imports neither numpy nor `typing` (for its TYPE_CHECKING)
TYPE_CHECKING = False
if TYPE_CHECKING:
    import numpy as np

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
        # a span limit is the longest window the table holds
        for key in ("max_src_span", "max_tgt_span"):
            if not 1 <= getattr(self, key) <= em.MAX_WINDOW_LIMIT:
                raise ValidationError(f"{key}: must be in 1..{em.MAX_WINDOW_LIMIT}, "
                                      f"got {getattr(self, key)}")
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
    total_cost: float

    def kept(self) -> tuple[AlignedPair, ...]:
        return tuple(l for l in self.links if not l.dropped)


def normalization_denominator(table: EmbeddingTable, sample_size: int, seed: int) -> float:
    """Mean (1 - cosine) over seeded random source/target singleton pairs.

    Fixes the scale on which the prune threshold of 1 is meaningful: a cost
    of 1 is "as dissimilar as a random sentence pair". One (source, target)
    index pair is drawn per iteration, source index first. Each distinct row
    is normed once; the samples are summed in drawing order.
    """
    import numpy as np

    if table.n_source_units < 1 or table.n_target_units < 1:
        raise ValidationError("denominator needs at least one singleton window per side")
    rng = random.Random(seed)
    pairs = [(rng.randrange(table.n_source_units), rng.randrange(table.n_target_units))
             for _ in range(sample_size)]
    src, tgt = table.windows(SOURCE, 1), table.windows(TARGET, 1)
    src_norm = {i: np.linalg.norm(src[i]) for i in {i for i, _ in pairs}}
    tgt_norm = {j: np.linalg.norm(tgt[j]) for j in {j for _, j in pairs}}
    if 0.0 in src_norm.values() or 0.0 in tgt_norm.values():
        raise ValidationError("cosine undefined for zero vector")
    acc = 0.0
    for i, j in pairs:
        sim = np.dot(src[i], tgt[j]) / (src_norm[i] * tgt_norm[j])
        acc += 1.0 - min(max(float(sim), -1.0), 1.0)
    return max(acc / sample_size, DENOM_FLOOR)


def _cosine_grid(table: EmbeddingTable, max_a: int,
                 max_b: int) -> dict[tuple[int, int], np.ndarray]:
    """cos[(a, b)][i, j] = cosine of source window (i, a) and target window (j, b),
    one matmul of two table blocks per span-size pair."""
    import numpy as np

    return {(a, b): np.clip(table.windows(SOURCE, a) @ table.windows(TARGET, b).T, -1.0, 1.0)
            for a in range(1, max_a + 1) for b in range(1, max_b + 1)}


def dp_align(doc: DocumentPair, table: EmbeddingTable, params: AlignParams) -> AlignmentSet:
    """Minimum-cost monotone segmentation of the two documents into links.

    Ties are broken deterministically by a fixed preference order of the
    moves: the (0, 1) skip, the (1, 0) skip, then links by source span and
    then target span. The cheapest move earliest in that order wins, so the
    result is identical across runs and platforms for identical inputs.
    """
    import numpy as np

    m, n = len(doc.source_units), len(doc.target_units)
    if params.max_src_span > table.max_src_window or params.max_tgt_span > table.max_tgt_window:
        raise ValidationError(
            f"span limits ({params.max_src_span}, {params.max_tgt_span}) exceed table windows "
            f"({table.max_src_window}, {table.max_tgt_window})"
        )
    max_a, max_b = params.max_src_span, params.max_tgt_span
    skip = params.skip_penalty

    # (src_span, tgt_span) in tie-break preference order; back[i, j] indexes it
    moves = [(0, 1), (1, 0)] + [(a, b) for a in range(1, max_a + 1) for b in range(1, max_b + 1)]
    steps = {}
    if m > 0 and n > 0:
        denom = normalization_denominator(table, params.norm_sample_size, params.rng_seed)
        steps = _cosine_grid(table, max_a, max_b)
        for (a, b), grid in steps.items():
            # the step (1.0 - cos) / denom * (a + b) / 2.0, one operation at a time, in place
            np.subtract(1.0, grid, out=grid)
            grid /= denom
            grid *= a + b
            grid /= 2.0
    link_moves = [(k, a, b) for k, (a, b) in enumerate(moves) if (a, b) in steps and b <= n]

    cost = np.empty((m + 1, n + 1))
    back = np.zeros((m + 1, n + 1), dtype=np.int8)
    # totals of each move into each cell of the current row, one row per move;
    # the (0, 1) skip's row stays inf, as does a slot whose move would start
    # left of column 0 or above row 0
    cand = np.full((len(moves), n + 1), np.inf)
    cols = np.arange(n + 1)
    for i in range(m + 1):
        if i == 0:
            row, row_back = [0.0] + [np.inf] * n, [0] * (n + 1)
        else:
            np.add(cost[i - 1], skip, out=cand[1])
            for k, a, b in link_moves:
                if a <= i:
                    np.add(cost[i - a, :n + 1 - b], steps[(a, b)][i - a], out=cand[k, b:])
            best = cand.argmin(axis=0)  # the first minimum, as a strict-< scan keeps
            row, row_back = cand[best, cols].tolist(), best.tolist()
        # the (0, 1) skip reads this row, so it runs left to right; being first
        # in preference order, it loses only to a strictly cheaper move
        for j in range(1, n + 1):
            total = row[j - 1] + skip
            if not row[j] < total:
                row[j], row_back[j] = total, 0
        cost[i], back[i] = row, row_back

    links: list[AlignedPair] = []
    i, j = m, n
    while i > 0 or j > 0:
        a, b = moves[back[i, j]]
        pi, pj = i - a, j - b
        links.append(AlignedPair(
            src_start=pi, src_len=a, tgt_start=pj, tgt_len=b,
            cost=float(cost[i, j] - cost[pi, pj]),
        ))
        i, j = pi, pj
    links.reverse()

    result = AlignmentSet(talk_id=doc.talk_id, links=tuple(links), total_cost=float(cost[m, n]))
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


def align_talk(doc: DocumentPair, spec: em.EmbeddingProviderSpec, params: AlignParams,
               base_dir=None) -> AlignmentSet:
    """The coarse alignment of one talk: its window table under `spec` (a
    relative vector file is found under `base_dir`), the DP, then pruning at
    `params.prune_cost_threshold`."""
    table = em.table_for(doc, spec, params.max_src_span, params.max_tgt_span, base_dir)
    return prune(dp_align(doc, table, params), params.prune_cost_threshold)


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
    return jsonl_text({
        "talk_id": talk_id, **link.span_row(), "cost": link.cost,
        "dropped": link.dropped, "drop_reason": link.drop_reason,
    } for link in links)


def read_alignment_jsonl(path, doc: DocumentPair | None = None,
                         data: bytes | None = None) -> AlignmentSet:
    """The links of one talk; every row must name the same talk_id. Given
    the talk `doc`, a row naming another talk, or a link outside it, is a
    ValidationError naming its line. `data` is as for `corpus.read_lines`."""
    talk_id = None

    def link(obj) -> AlignedPair:
        nonlocal talk_id
        row_talk = obj.get("talk_id")
        if row_talk is not None and not isinstance(row_talk, str):
            raise TypeError(f"talk_id must be a string, got {row_talk!r}")
        if talk_id is None:
            talk_id = row_talk
        elif row_talk != talk_id:
            raise ValueError(f"mixed talk_ids {talk_id!r} and {row_talk!r}")
        if obj.get("drop_reason") not in (None, DROP_COST, DROP_EMPTY):
            raise ValueError(f"unknown drop_reason {obj['drop_reason']!r}")
        return AlignedPair(
            src_start=obj["src_start"], src_len=obj["src_len"],
            tgt_start=obj["tgt_start"], tgt_len=obj["tgt_len"],
            cost=obj["cost"], dropped=obj.get("dropped", False),
            drop_reason=obj.get("drop_reason"),
        )

    def check(pair: AlignedPair) -> None:
        if talk_id != doc.talk_id:
            raise ValidationError(f"link of talk {talk_id!r} where {doc.talk_id!r} was expected")
        check_span(doc, pair.key())

    links = tuple(read_jsonl(path, link, None if doc is None else check, data))
    return AlignmentSet(talk_id=talk_id or "", links=links, total_cost=sum(l.cost for l in links))
