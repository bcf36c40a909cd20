"""Stage-1 coarse alignment: monotone DP over window-embedding similarities.

The DP segments [0, M) x [0, N) into an ordered sequence of links. A link
either pairs a source window with a target window (cost proportional to
normalized embedding distance, scaled by merged size) or skips one unit on
one side (flat penalty). Pruning then flags links that are too costly or
one-sided, mirroring the removal of no-translation candidates.

A talk's cosines are one matmul in the table's dtype: the table rows of
every source window up to the source span limit against those of every
target window up to the target span limit, upcast to float64, divided by
the outer product of the rows' norms and clipped in place. A fallback
table's rows are integer n-gram counts whose products are exact in that
dtype, so its cosines have the same bits under every BLAS kernel. Each
(source span, target span) block of steps is a view of that one grid, which
takes `1 - cos` and the division by the talk's denominator as a whole, and
then its own size factor, so every cell goes through the same operations in
the same order. The denominator reads the singleton block before that.

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

MAX_NORM_SAMPLE_SIZE = 1 << 16


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
        # normalization_denominator draws this many index pairs per talk
        if not 1 <= self.norm_sample_size <= MAX_NORM_SAMPLE_SIZE:
            raise ValidationError(f"norm_sample_size: must be in 1..{MAX_NORM_SAMPLE_SIZE}, "
                                  f"got {self.norm_sample_size}")


@dataclass(frozen=True)
class AlignmentSet:
    talk_id: str
    links: tuple[AlignedPair, ...]
    total_cost: float

    def kept(self) -> tuple[AlignedPair, ...]:
        """The links a stage passes on: those not dropped that pair two
        non-empty spans. Every consumer of a stage or a gold file reads these."""
        return tuple(l for l in self.links
                     if not (l.dropped or l.src_empty or l.tgt_empty))


def normalization_denominator(cosines: np.ndarray, sample_size: int, seed: int) -> float:
    """Mean (1 - cosine) over seeded random source/target singleton pairs.

    Fixes the scale on which the prune threshold of 1 is meaningful: a cost
    of 1 is "as dissimilar as a random sentence pair". `cosines` is the
    singleton block of `_cosine_grid`, cosines[i, j] that of source unit i
    and target unit j. One (i, j) pair is drawn per iteration, source index
    first, and the samples are summed in drawing order.
    """
    n_source, n_target = cosines.shape
    if n_source < 1 or n_target < 1:
        raise ValidationError("denominator needs at least one singleton window per side")
    rng = random.Random(seed)
    acc = 0.0
    for _ in range(sample_size):
        i, j = rng.randrange(n_source), rng.randrange(n_target)
        acc += 1.0 - float(cosines[i, j])
    return max(acc / sample_size, DENOM_FLOOR)


def _cosine_grid(table: EmbeddingTable, max_a: int,
                 max_b: int) -> dict[tuple[int, int], np.ndarray]:
    """cos[(a, b)][i, j] = cosine of source window (i, a) and target window (j, b).

    `window_rows` keeps the source blocks of lengths 1..max_a, and the target
    blocks of lengths 1..max_b, in consecutive rows, so one matmul of those two
    row ranges holds every block's dot products. The product is taken in the
    table's dtype, exact for a fallback table's counts, upcast to float64
    (exactly), its cell (i, j) divided by norms[i] * norms[j], the outer
    product of the two ranges' norms, and clipped in place; each block is a
    view of that one grid, whose cells are exactly the blocks' cells.
    """
    import numpy as np

    rows = table.rows
    first_tgt = rows[(TARGET, 1)].start
    src_rows = slice(0, rows[(SOURCE, max_a)].stop)
    tgt_rows = slice(first_tgt, rows[(TARGET, max_b)].stop)
    product = table.entries[src_rows] @ table.entries[tgt_rows].T
    grid = product.astype(np.float64, copy=False)
    # a row at a time, so a float64 product is divided in place, with no second
    # array of its size
    tgt_norms = table.norms[tgt_rows]
    for row, norm in zip(grid, table.norms[src_rows]):
        row /= norm * tgt_norms
    np.clip(grid, -1.0, 1.0, out=grid)
    grids = {}
    for a in range(1, max_a + 1):
        src = rows[(SOURCE, a)]
        for b in range(1, max_b + 1):
            tgt = rows[(TARGET, b)]
            grids[(a, b)] = grid[src.start:src.stop, tgt.start - first_tgt:tgt.stop - first_tgt]
    return grids


def dp_align(doc: DocumentPair, table: EmbeddingTable, params: AlignParams) -> AlignmentSet:
    """Minimum-cost monotone segmentation of the two documents into links.

    Ties are broken deterministically by a fixed preference order of the
    moves: the (0, 1) skip, the (1, 0) skip, then links by source span and
    then target span. The cheapest move earliest in that order wins, so the
    result is identical across runs for identical inputs. A fallback table's
    costs are the same bits under every BLAS kernel; a vector-file table's
    products are float64 sums of rounded terms, so another kernel can change
    the last bits of its costs.
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
        steps = _cosine_grid(table, max_a, max_b)
        denom = normalization_denominator(steps[(1, 1)], params.norm_sample_size,
                                          params.rng_seed)
        # the step (1.0 - cos) / denom * (a + b) / 2.0, one operation at a time, in
        # place: the first two on the one product every block views, the last two per block
        product = steps[(1, 1)].base
        np.subtract(1.0, product, out=product)
        product /= denom
        for (a, b), grid in steps.items():
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
            pruned.append(replace(link, drop_reason=DROP_EMPTY))
        elif link.cost > threshold:
            pruned.append(replace(link, drop_reason=DROP_COST))
        else:
            pruned.append(replace(link, drop_reason=None))
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
        reason = obj.get("drop_reason")
        if reason not in (None, DROP_COST, DROP_EMPTY):
            raise ValueError(f"unknown drop_reason {reason!r}")
        # a link is dropped exactly when it has a drop_reason
        if obj.get("dropped", reason is not None) is not (reason is not None):
            raise ValueError(f"dropped {obj['dropped']!r} disagrees with drop_reason {reason!r}")
        return AlignedPair(
            src_start=obj["src_start"], src_len=obj["src_len"],
            tgt_start=obj["tgt_start"], tgt_len=obj["tgt_len"],
            cost=obj["cost"], drop_reason=reason,
        )

    def check(pair: AlignedPair) -> None:
        if talk_id != doc.talk_id:
            raise ValidationError(f"link of talk {talk_id!r} where {doc.talk_id!r} was expected")
        check_span(doc, pair.key())

    links = tuple(read_jsonl(path, link, None if doc is None else check, data))
    return AlignmentSet(talk_id=talk_id or "", links=links, total_cost=sum(l.cost for l in links))
