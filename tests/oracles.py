"""Independent reference implementations used to check the package's fast
paths. These deliberately avoid the library's own algorithms: plain DP
tables, explicit enumeration, per-window loops, and dict counting."""

import logging
import random
from collections import Counter
from pathlib import Path

import numpy as np

from si_align.align import DENOM_FLOOR, AlignmentSet, _cosine_grid, validate_alignment
from si_align.corpus import (AlignedPair, ParseError, TextUnit, ValidationError,
                             normalize_text, read_lines)
from si_align.embeddings import (RENORM_WARN_TOL, SOURCE, TARGET, EmbeddingProviderSpec,
                                 EmbeddingTable, MissingWindowError, _gram_slot,
                                 build_fallback_table, window_rows)
from si_align.inter import CHRF_BETA, CHRF_MAX_ORDER

from conftest import doc

log = logging.getLogger(__name__)


def enumerate_windows(units, max_window: int) -> list[tuple[int, int, str]]:
    """All (start, window_length, concatenated_text) windows, shortest first.

    Texts of consecutive units are joined with a single space. Yields
    sum over w of max(0, len(units) - w + 1) entries.
    """
    if max_window < 1:
        raise ValidationError(f"max_window must be >= 1, got {max_window}")
    texts = [u.text if isinstance(u, TextUnit) else str(u) for u in units]
    out = []
    for w in range(1, max_window + 1):
        for start in range(0, len(texts) - w + 1):
            out.append((start, w, " ".join(texts[start : start + w])))
    return out


def fallback_embed(text: str, params: EmbeddingProviderSpec) -> np.ndarray:
    """Signed hashed bag of character n-grams of one window text, L2-normalized.

    Text yielding no n-grams (in particular the empty string) maps to basis
    vector 0 so downstream cosines stay defined.
    """
    vec = np.zeros(params.dim)
    stripped = text.strip()
    for n in params.orders:
        for i in range(len(stripped) - n + 1):
            bucket, sign = _gram_slot(stripped[i : i + n], params.seed, params.dim)
            vec[bucket] += sign
    norm = np.linalg.norm(vec)
    if norm == 0.0:
        vec[0] = 1.0
        return vec
    return vec / norm


def window_vector(table: EmbeddingTable, side: str, start: int, window_len: int) -> np.ndarray:
    """The row of window (side, start, window_len) of a table."""
    block = table.rows.get((side, window_len), range(0))
    if not 0 <= start < len(block):
        raise MissingWindowError(side, start, window_len)
    return table.entries[block[start]]


def reference_load_precomputed(path, n_source: int, n_target: int,
                     max_src_window: int, max_tgt_window: int) -> EmbeddingTable:
    """The vector-file loader parsing one row at a time, each value with
    `float()`: load an external-encoder vector file covering every window of
    the table.

    Rows may come in any order; rows for windows the table does not hold are
    ignored. Every row must be valid UTF-8 with finite values. Vectors whose
    norm strays beyond a loose tolerance are renormalized with a warning.
    """
    path = Path(path)
    rows = window_rows(n_source, n_target, max_src_window, max_tgt_window)
    filled = np.zeros(rows[(TARGET, max_tgt_window)].stop, dtype=bool)
    entries = None
    for lineno, line in read_lines(path):
        if not line.strip():
            continue
        cols = line.split("\t")
        if len(cols) != 4:
            raise ParseError(f"expected 4 columns, got {len(cols)}", path=path, line=lineno)
        side = cols[0]
        if side not in (SOURCE, TARGET):
            raise ParseError(f"unknown side {side!r}", path=path, line=lineno)
        try:
            start, w = int(cols[1]), int(cols[2])
            vec = np.array([float(x) for x in cols[3].split(",")])
        except ValueError as exc:
            raise ParseError(f"bad numeric field: {exc}", path=path, line=lineno) from exc
        if not np.isfinite(vec).all():
            raise ParseError("non-finite vector value", path=path, line=lineno)
        if entries is None:
            entries = np.empty((len(filled), vec.shape[0]))
        elif vec.shape[0] != entries.shape[1]:
            raise ParseError(
                f"dimension {vec.shape[0]} differs from first row's {entries.shape[1]}",
                path=path, line=lineno,
            )
        block = rows.get((side, w), range(0))
        if not 0 <= start < len(block):
            continue
        key = (side, start, w)
        norm = float(np.linalg.norm(vec))
        if norm == 0.0 or not np.isfinite(norm):
            raise ParseError(f"window {key} has norm {norm}", path=path, line=lineno)
        if abs(norm - 1.0) > RENORM_WARN_TOL:
            log.warning("%s:%d: window %s has norm %.6g, renormalizing", path, lineno, key, norm)
        entries[block[start]] = vec / norm
        filled[block[start]] = True
    for (side, w), block in rows.items():
        for start, row in enumerate(block):
            if not filled[row]:
                raise MissingWindowError(side, start, w, path)
    return EmbeddingTable(n_source, n_target, max_src_window, max_tgt_window,
                          entries if entries is not None else np.empty((0, 0)))


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity clamped to [-1, 1]."""
    if u.shape != v.shape:
        raise ValidationError(f"dimension mismatch: {u.shape} vs {v.shape}")
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise ValidationError("cosine undefined for zero vector")
    return float(np.clip(np.dot(u, v) / (nu * nv), -1.0, 1.0))


def reference_denominator(table: EmbeddingTable, sample_size: int, seed: int) -> float:
    """Mean (1 - cosine) over seeded random source/target singleton pairs,
    one `cosine` call per sample."""
    if table.n_source_units < 1 or table.n_target_units < 1:
        raise ValidationError("denominator needs at least one singleton window per side")
    rng = random.Random(seed)
    acc = 0.0
    for _ in range(sample_size):
        i = rng.randrange(table.n_source_units)
        j = rng.randrange(table.n_target_units)
        acc += 1.0 - cosine(window_vector(table, SOURCE, i, 1),
                            window_vector(table, TARGET, j, 1))
    return max(acc / sample_size, DENOM_FLOOR)


def reference_dp_align(doc, table, params) -> AlignmentSet:
    """The aligner's DP filled cell by cell: every move of every cell is
    scanned in tie-break preference order and kept only when strictly
    cheaper than the best so far."""
    m, n = len(doc.source_units), len(doc.target_units)
    if params.max_src_span > table.max_src_window or params.max_tgt_span > table.max_tgt_window:
        raise ValidationError(
            f"span limits ({params.max_src_span}, {params.max_tgt_span}) exceed table windows "
            f"({table.max_src_window}, {table.max_tgt_window})"
        )
    max_a, max_b = params.max_src_span, params.max_tgt_span

    denom = 1.0
    if m > 0 and n > 0:
        denom = reference_denominator(table, params.norm_sample_size, params.rng_seed)
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
    result = AlignmentSet(talk_id=doc.talk_id, links=tuple(links), total_cost=total)
    validate_alignment(result, m, n)
    return result


def quadratic_lcs(a, b):
    """Classic O(|a|*|b|) longest-common-substring table."""
    best = 0
    prev = [0] * (len(b) + 1)
    for i in range(1, len(a) + 1):
        cur = [0] * (len(b) + 1)
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                cur[j] = prev[j - 1] + 1
                if cur[j] > best:
                    best = cur[j]
        prev = cur
    return best


def link_cost(src_span, tgt_span, table, denom, skip_penalty):
    """Cost of one link, the aligner's step cost written out for one pair.

    Both spans non-empty: (1 - cos) / denom scaled by (|src| + |tgt|) / 2 so
    merged links pay proportionally. One empty span: skip_penalty per unit.
    """
    (si, sl), (ti, tl) = src_span, tgt_span
    if sl == 0 and tl == 0:
        raise ValidationError("link needs at least one non-empty span")
    if sl == 0 or tl == 0:
        return skip_penalty * (sl + tl)
    if sl > table.max_src_window:
        raise MissingWindowError(SOURCE, si, sl)
    if tl > table.max_tgt_window:
        raise MissingWindowError(TARGET, ti, tl)
    sim = cosine(window_vector(table, SOURCE, si, sl), window_vector(table, TARGET, ti, tl))
    return (1.0 - sim) / denom * (sl + tl) / 2.0


def step_cost_table(table, params, denom, m, n):
    """Cost of every possible link, precomputed so the exhaustive search is
    pure float addition."""
    costs = {}
    for i in range(m + 1):
        costs[(i, 0, 1, 0)] = params.skip_penalty
    for j in range(n + 1):
        costs[(0, j, 0, 1)] = params.skip_penalty
    for a in range(1, params.max_src_span + 1):
        for b in range(1, params.max_tgt_span + 1):
            for i in range(m - a + 1):
                for j in range(n - b + 1):
                    sim = cosine(window_vector(table, SOURCE, i, a),
                                 window_vector(table, TARGET, j, b))
                    costs[(i, j, a, b)] = (1.0 - sim) / denom * (a + b) / 2.0
    return costs


def exhaustive_best(m, n, params, costs, tol=1e-9):
    """Exact search over every monotone segmentation of [0,m) x [0,n).

    Returns (min cost, one optimal link list, unique flag). Branches whose
    partial cost already exceeds the incumbent are cut; costs are
    non-negative, so the search stays exact.
    """
    moves = [(0, 1), (1, 0)]
    moves += [(a, b) for a in range(1, params.max_src_span + 1)
              for b in range(1, params.max_tgt_span + 1)]

    def get_cost(i, j, a, b):
        if a == 0 or b == 0:
            return params.skip_penalty
        return costs[(i, j, a, b)]

    best = [float("inf")]

    def pass_min(i, j, acc):
        if acc >= best[0]:
            return
        if i == m and j == n:
            best[0] = acc
            return
        for a, b in moves:
            if i + a <= m and j + b <= n:
                pass_min(i + a, j + b, acc + get_cost(i, j, a, b))

    pass_min(0, 0, 0.0)

    optima = []

    def pass_collect(i, j, acc, links):
        if acc > best[0] + tol or len(optima) > 1:
            return
        if i == m and j == n:
            optima.append(list(links))
            return
        for a, b in moves:
            if i + a <= m and j + b <= n:
                links.append((i, a, j, b))
                pass_collect(i + a, j + b, acc + get_cost(i, j, a, b), links)
                links.pop()

    pass_collect(0, 0, 0.0, [])
    return best[0], optima[0], len(optima) == 1


def random_instance(rng, dim=256, max_window=3):
    """Small document pair whose target units are faithful copies, garbled
    chunks, omissions, or spurious extras of source units; embedded with the
    fallback embedder at module defaults."""
    words = ["kamo", "tesu", "rindo", "bakel", "stogu", "pimra", "donek", "urtha"]
    m = rng.randint(1, 5)
    src = [" ".join(rng.choice(words) for _ in range(rng.randint(2, 5))) for _ in range(m)]
    tgt = []
    for text in src:
        r = rng.random()
        if r < 0.2:
            continue
        if r < 0.4:
            tgt.append(" ".join(rng.choice(words) for _ in range(3)))
        else:
            tgt.append(text)
        if rng.random() < 0.25 and len(tgt) < 7:
            tgt.append(rng.choice(words))
    tgt = tgt[:7]
    if not tgt:
        tgt = [rng.choice(words)]
    document = doc(src, tgt, talk_id=f"rand{rng.randrange(1 << 30)}")
    table = build_fallback_table(document, EmbeddingProviderSpec(dim=dim),
                                 max_window, max_window)
    return document, table


def _char_ngrams(text: str, n: int) -> Counter:
    return Counter(text[i : i + n] for i in range(len(text) - n + 1))


def reference_chrf(f_text: str, t_text: str, max_order: int = CHRF_MAX_ORDER,
                   beta: float = CHRF_BETA) -> float:
    """Character n-gram F-measure of F against reference T.

    Whitespace is removed before n-gram extraction (the usual convention,
    and the right one for unsegmented scripts). Precision and recall are
    averaged uniformly over orders 1..max_order, skipping orders where
    neither side has any n-gram; F is the beta-weighted harmonic mean.
    """
    hyp = "".join(normalize_text(f_text).split())
    ref = "".join(normalize_text(t_text).split())
    if not hyp and not ref:
        return 1.0
    precisions, recalls = [], []
    for n in range(1, max_order + 1):
        hyp_grams = _char_ngrams(hyp, n)
        ref_grams = _char_ngrams(ref, n)
        hyp_total = sum(hyp_grams.values())
        ref_total = sum(ref_grams.values())
        if hyp_total == 0 and ref_total == 0:
            continue
        matched = sum(min(count, ref_grams[g]) for g, count in hyp_grams.items())
        precisions.append(matched / hyp_total if hyp_total else 0.0)
        recalls.append(matched / ref_total if ref_total else 0.0)
    if not precisions:
        return 0.0
    p = sum(precisions) / len(precisions)
    r = sum(recalls) / len(recalls)
    if p == 0.0 and r == 0.0:
        return 0.0
    b2 = beta * beta
    return (1 + b2) * p * r / (b2 * p + r)
