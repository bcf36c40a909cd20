"""Independent reference implementations used to check the package's fast
paths. These deliberately avoid the library's own algorithms: plain DP
tables, explicit enumeration, and dict counting."""

from si_align.corpus import ValidationError
from si_align.embeddings import (SOURCE, TARGET, FallbackParams, MissingWindowError,
                                 build_fallback_table, cosine)

from conftest import doc


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
