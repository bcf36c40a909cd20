"""Independent reference implementations used to check the package's fast
paths. These deliberately avoid the library's own algorithms: plain DP
tables, explicit enumeration, per-window loops, and dict counting."""

import numpy as np

from si_align.corpus import TextUnit, ValidationError
from si_align.embeddings import (SOURCE, TARGET, FallbackParams, MissingWindowError,
                                 _gram_slot, build_fallback_table, cosine)

from conftest import doc


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


def fallback_embed(text: str, params: FallbackParams) -> np.ndarray:
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
    sim = cosine(table.vector(SOURCE, si, sl), table.vector(TARGET, ti, tl))
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
                    sim = cosine(table.vector(SOURCE, i, a), table.vector(TARGET, j, b))
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
    table = build_fallback_table(document, FallbackParams(dim=dim), max_window, max_window)
    return document, table
