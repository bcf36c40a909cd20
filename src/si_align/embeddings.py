"""Embeddings for windows of consecutive text units: a row per window and
the row's L2 norm.

Two providers: vectors precomputed by an external encoder and loaded from a
TSV file (the production path), stored as unit rows of norm 1, or a
deterministic hashed character-n-gram embedder (the hermetic test path),
stored as each window's exact signed n-gram counts and their norm. Either
way the aligner only ever sees an EmbeddingTable, and a cosine is a dot
product of two rows over the product of their norms.
"""

from __future__ import annotations

import functools
import hashlib
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path

from .corpus import DocumentPair, ParseError, ValidationError, read_lines

# numpy is imported by the functions that compute with it, so that importing
# this module imports neither numpy nor `typing` (for its TYPE_CHECKING)
TYPE_CHECKING = False
if TYPE_CHECKING:
    import numpy as np

log = logging.getLogger(__name__)

SOURCE = "source"
TARGET = "target"

MAX_WINDOW_LIMIT = 6
RENORM_WARN_TOL = 1e-3
# bounds that turn an absurd `embedding.dim` into a validation error instead
# of an allocation failure: the hashed dimension, and one talk's windows x dim
# table (2**26 float64 cells are 512 MiB)
MAX_FALLBACK_DIM = 1 << 16
MAX_TABLE_CELLS = 1 << 26
# n-gram positions of one window, summed over orders, below which a fallback
# table is float32, and the bound on them: a window of p positions has counts
# of L1 norm at most p, so every partial sum of a dot product of two rows is
# an integer below p**2, exact in float32 below 2**24 and in float64 below 2**52
FLOAT32_WINDOW_POSITIONS = 1 << 12
MAX_WINDOW_POSITIONS = 1 << 26
# vector texts parsed per numpy call, so a chunk's strings and values stay
# small next to the table; a chunk ends at whichever bound it reaches first
PARSE_CHUNK_ROWS = 16
PARSE_CHUNK_CHARS = 128 << 10


PROVIDER_FALLBACK = "fallback_hash"
PROVIDER_PRECOMPUTED = "precomputed_file"


@dataclass(frozen=True)
class EmbeddingProviderSpec:
    """The `embedding` config object: where window vectors come from, an
    external-encoder file (`path_pattern`, which may contain `{talk_id}`) or
    the built-in hashed character-n-gram embedder (`dim`, `orders`, `seed`)."""

    kind: str = PROVIDER_FALLBACK
    dim: int = 256
    orders: tuple[int, ...] = (2, 3)
    seed: int = 17
    path_pattern: str = ""

    def __post_init__(self):
        if self.kind == PROVIDER_FALLBACK:
            if not 64 <= self.dim <= MAX_FALLBACK_DIM:
                raise ValidationError(
                    f"embedding.dim must be in 64..{MAX_FALLBACK_DIM}, got {self.dim}")
            if (not self.orders or len(set(self.orders)) < len(self.orders)
                    or any(n < 1 or n > 5 for n in self.orders)):
                raise ValidationError("orders: must be a non-empty subset of 1..5, each order "
                                      f"once, got {list(self.orders)}")
            if not -(1 << 63) <= self.seed < 1 << 63:  # the n-gram hash key is 8 bytes
                raise ValidationError(f"seed: must be in -2**63..2**63-1, got {self.seed}")
        elif self.kind != PROVIDER_PRECOMPUTED:
            raise ValidationError(f"unknown embedding provider kind {self.kind!r}")
        elif not self.path_pattern:
            raise ValidationError("precomputed_file provider needs a path_pattern")


# another name for the spec, under which perfbench/write_vectors.py builds its vector tables
FallbackParams = EmbeddingProviderSpec


def table_for(doc: DocumentPair, spec: EmbeddingProviderSpec,
              max_src_window: int, max_tgt_window: int,
              base_dir=None) -> EmbeddingTable:
    """Build or load the table for one document under the given provider."""
    if spec.kind == PROVIDER_FALLBACK:
        return build_fallback_table(doc, spec, max_src_window, max_tgt_window)
    path = Path(spec.path_pattern.replace("{talk_id}", doc.talk_id))
    if not path.is_absolute() and base_dir is not None:
        path = Path(base_dir) / path
    return load_precomputed(path, len(doc.source_units), len(doc.target_units),
                            max_src_window, max_tgt_window)


def _gram_slot(gram: str, seed: int, dim: int) -> tuple[int, int]:
    """Seeded stable hash of one n-gram: (bucket, sign). blake2b keeps this
    identical across platforms and Python versions, unlike hash(). Each
    call hashes from a copy of the seed's keyed state, the digest that
    hashing with the key from scratch gives."""
    state = _keyed_blake2b(seed).copy()
    state.update(gram.encode("utf-8"))
    value = int.from_bytes(state.digest(), "little")
    return value % dim, 1 if value >> 63 else -1


@functools.lru_cache(maxsize=8)
def _keyed_blake2b(seed: int):
    """The blake2b state keyed by `seed`, before any data; callers hash from
    a copy and never update it."""
    return hashlib.blake2b(digest_size=8, key=seed.to_bytes(8, "little", signed=True))


class SlotTable(dict):
    """n-gram -> its packed slot under `spec`, (seed, dim): the bucket, or
    ~bucket (negative) when the sign is -1, hashed by `_gram_slot` on the
    first lookup. One table per process, `SLOTS`, serves every fallback
    table; it is cleared when the spec changes, and before it would hold
    more than MAX_SLOT_GRAMS n-grams."""

    spec: tuple[int, int] | None = None

    def __missing__(self, gram):
        bucket, sign = _gram_slot(gram, *self.spec)
        if len(self) >= MAX_SLOT_GRAMS:
            self.clear()
        self[gram] = slot = bucket if sign > 0 else ~bucket
        return slot


MAX_SLOT_GRAMS = 1 << 20
SLOTS = SlotTable()


def _packed_slots(grams: list[str], seed: int, dim: int) -> np.ndarray:
    """The packed slot of each n-gram of `grams`, hashing only those not
    seen before in this process under (seed, dim)."""
    import numpy as np

    if SLOTS.spec != (seed, dim):
        SLOTS.clear()
        SLOTS.spec = (seed, dim)
    return np.fromiter(map(SLOTS.__getitem__, grams), dtype=np.int64, count=len(grams))


@dataclass
class EmbeddingTable:
    """Vectors for every window of both documents: one row per window of the
    `[windows, dim]` matrix `entries`, laid out by `window_rows`, and its
    float64 L2 norm in `norms`. A fallback table's rows are integer n-gram
    counts, float32 unless a window is too long for float32 to sum them
    exactly; a vector file's rows are float64 unit vectors of norm 1. The
    cosine of two rows is their dot product over the product of their norms."""

    n_source_units: int
    n_target_units: int
    max_src_window: int
    max_tgt_window: int
    entries: np.ndarray
    norms: np.ndarray
    rows: dict[tuple[str, int], range] = field(init=False, repr=False)

    def __post_init__(self):
        self.rows = window_rows(self.n_source_units, self.n_target_units,
                                self.max_src_window, self.max_tgt_window)


def window_rows(n_source: int, n_target: int,
                max_src_window: int, max_tgt_window: int) -> dict[tuple[str, int], range]:
    """Row range of each (side, window length) block of an EmbeddingTable.

    Rows go source before target, then by window length, then by start, so
    window (side, start, w) is row `rows[(side, w)][start]`.
    """
    rows, stop = {}, 0
    for side, count, max_w in ((SOURCE, n_source, max_src_window),
                               (TARGET, n_target, max_tgt_window)):
        if max_w < 1 or max_w > MAX_WINDOW_LIMIT:
            raise ValidationError(f"{side} max window {max_w} outside 1..{MAX_WINDOW_LIMIT}")
        for w in range(1, max_w + 1):
            rows[(side, w)] = range(stop, stop + max(count - w + 1, 0))
            stop = rows[(side, w)].stop
    return rows


def build_fallback_table(doc: DocumentPair, spec: EmbeddingProviderSpec,
                         max_src_window: int = 4, max_tgt_window: int = 4) -> EmbeddingTable:
    """Signed hashed bags of character n-grams of every window: exact counts
    and their L2 norms.

    A window's text is its units' texts joined with single spaces; its row
    adds each n-gram's sign into the n-gram's bucket. Each side's units are
    joined once and the packed slot of every n-gram position of that text is
    read from `SLOTS`, which hashes each distinct n-gram once per process; a
    window is a character range of the text. Window (i, w) gets only the
    n-grams that window (i, w - 1) lacks, the ones ending in its last unit,
    and `np.add.at` adds them into the table; then each block, by increasing
    window length, adds the rows of the block one shorter. Counts are small
    integers, so every row equals a count of the window's own n-grams
    whatever the order of the sums.

    The table is float32 when every window has fewer than
    FLOAT32_WINDOW_POSITIONS n-gram positions, summed over orders, and
    float64 otherwise, so that any dot product of two rows is exact in the
    table's dtype under any BLAS kernel; a window of MAX_WINDOW_POSITIONS or
    more is a ValidationError. Each norm is the square root of the row's
    exact float64 sum of squares. A window yielding no n-grams (shorter than
    every order) counts 1 in bucket 0, of norm 1, so downstream cosines stay
    defined.
    """
    import numpy as np

    rows = window_rows(len(doc.source_units), len(doc.target_units),
                       max_src_window, max_tgt_window)
    n_rows, dim = rows[(TARGET, max_tgt_window)].stop, spec.dim
    if n_rows * dim > MAX_TABLE_CELLS:
        raise ValidationError(f"{doc.talk_id}: embedding.dim {dim} x {n_rows} windows exceeds "
                              f"the table limit of {MAX_TABLE_CELLS} cells")
    sides = [(side, units, max_w, np.cumsum([0] + [len(u.text) + 1 for u in units]))
             for side, units, max_w in ((SOURCE, doc.source_units, max_src_window),
                                        (TARGET, doc.target_units, max_tgt_window))]
    # window (i, w) is characters [starts[i], starts[i + w] - 1) of its side's text,
    # so a side's longest window is one of its most units
    longest = 0
    for _, units, max_w, starts in sides:
        w = min(max_w, len(units))
        if w:
            longest = max(longest, int((starts[w:] - starts[:-w]).max()) - 1)
    positions = sum(max(longest - n + 1, 0) for n in spec.orders)
    if positions >= MAX_WINDOW_POSITIONS:
        raise ValidationError(f"{doc.talk_id}: a window of {positions} n-gram positions "
                              f"exceeds the limit of {MAX_WINDOW_POSITIONS}")
    dtype = np.float32 if positions < FLOAT32_WINDOW_POSITIONS else np.float64
    cells, signs = [], []
    for side, units, max_w, starts in sides:
        text = " ".join(u.text for u in units)
        row, first, prev, end = [], [], [], []
        for w in range(1, max_w + 1):
            block = rows[(side, w)]
            # window (i, w - 1) ends before character starts[i + w - 1] - 1
            row.append(np.arange(block.start, block.stop))
            first.append(starts[:len(block)])
            prev.append(starts[w - 1:w - 1 + len(block)])
            end.append(starts[w:w + len(block)])
        row, first, prev, end = map(np.concatenate, (row, first, prev, end))
        for n in spec.orders:
            slots = _packed_slots([text[i:i + n] for i in range(len(text) - n + 1)],
                                  spec.seed, dim)
            # the n-grams window (i, w) has and window (i, w - 1) has not
            lo = np.maximum(first, prev - n)
            count = np.maximum(end - n - lo, 0)
            offset = np.cumsum(count) - count
            packed = slots[np.repeat(lo - offset, count) + np.arange(count.sum())]
            negative = packed < 0
            cells.append(np.repeat(row * dim, count) + np.where(negative, ~packed, packed))
            signs.append(np.where(negative, np.int8(-1), np.int8(1)))
    # concatenate one array at a time, so each list of pieces is freed before the next copy
    cells = np.concatenate(cells)
    signs = np.concatenate(signs, dtype=dtype)
    entries = np.zeros((n_rows, dim), dtype=dtype)
    np.add.at(entries.reshape(-1), cells, signs)
    # window (i, w) adds the counts of window (i, w - 1), complete once block w - 1 is
    for (side, w), block in rows.items():
        if w > 1:
            shorter = rows[(side, w - 1)].start
            entries[block.start:block.stop] += entries[shorter:shorter + len(block)]
    norms = np.sqrt(np.einsum("ij,ij->i", entries, entries, dtype=np.float64))
    empty = norms == 0.0
    norms[empty] = 1.0
    entries[empty, 0] = 1.0
    return EmbeddingTable(len(doc.source_units), len(doc.target_units),
                          max_src_window, max_tgt_window, entries, norms)


def write_table_file(table: EmbeddingTable, path) -> None:
    """TSV rows `side<TAB>start<TAB>window_len<TAB>v1,v2,...` in table order:
    each row's unit vector, its entries over its norm in float64, each value
    the `repr` of its float."""
    import numpy as np

    with open(path, "w", encoding="utf-8") as handle:
        for (side, w), block in table.rows.items():
            for start, row in enumerate(block):
                unit = np.divide(table.entries[row], table.norms[row], dtype=np.float64)
                values = ",".join(map(repr, unit.tolist()))
                handle.write(f"{side}\t{start}\t{w}\t{values}\n")


def load_precomputed(path, n_source: int, n_target: int,
                     max_src_window: int, max_tgt_window: int) -> EmbeddingTable:
    """Load an external-encoder vector file covering every window of the table.

    Rows may come in any order; the last row of a duplicated window wins, and
    rows for windows the table does not hold are ignored. Every row must be
    valid UTF-8 with finite values. Every vector is stored divided by its
    norm, with a warning where the norm strays beyond a loose tolerance, and
    the table's norms are 1.

    Each row's columns, side, start and length, and a vector field that is
    blank or holds an information separator, are checked as the row is read;
    the first row's value count sizes the table. The vector texts are then
    parsed by numpy's float parser, `PARSE_CHUNK_ROWS` rows at a time, and
    `settle_vectors` checks and stores each parsed block: it is the one
    place that stores rows. A block numpy rejects, or whose width is not
    the first row's, is parsed again row by row, checking each row's
    values, then their finiteness, then its width. Values are ASCII decimal,
    `inf` or `nan` literals, optionally padded with whitespace; unlike
    `float()`, the parser takes no `_` digit separators and no non-ASCII
    digits. Every error names the first bad line of the file, or the file
    alone for a window that has no row.
    """
    import numpy as np

    path = Path(path)
    rows = window_rows(n_source, n_target, max_src_window, max_tgt_window)
    index = {(side, start, w): row for (side, w), block in rows.items()
             for start, row in enumerate(block)}
    filled = np.zeros(len(index), dtype=bool)
    entries = None
    # rows read but not yet parsed: (line number, window, table row or -1) and vector text
    pending: list[tuple[int, tuple[str, int, int], int]] = []
    texts: list[str] = []
    chars = 0

    def flush():
        items, chunk = pending.copy(), texts.copy()
        pending.clear()
        texts.clear()
        if not items:
            return
        try:
            block = _parse_vectors(chunk)
        except ValueError:
            block = None
        if block is not None and block.shape[1] == entries.shape[1]:
            settle_vectors(path, block, items, entries, filled)
            return
        # row by row, so the first bad row is the one named, and for what the
        # row-by-row `float()` reader names first: a bad value, then a non-finite
        # one (which `settle_vectors` raises), then the width
        for item, text in zip(items, chunk):
            try:
                block = _parse_vectors([text])
            except ValueError as exc:
                raise ParseError(f"bad numeric field: {exc}", path=path, line=item[0]) from exc
            if block.shape[1] != entries.shape[1] and np.isfinite(block).all():
                raise ParseError(f"dimension {block.shape[1]} differs from first row's "
                                 f"{entries.shape[1]}", path=path, line=item[0])
            settle_vectors(path, block, [item], entries, filled)

    try:
        for lineno, line in read_lines(path):
            if not line.strip():
                continue
            cols = line.split("\t")
            if len(cols) != 4:
                raise ParseError(f"expected 4 columns, got {len(cols)}", path=path, line=lineno)
            side, start, w, text = cols
            if side not in (SOURCE, TARGET):
                raise ParseError(f"unknown side {side!r}", path=path, line=lineno)
            try:
                start, w = int(start), int(w)
            except ValueError as exc:
                raise ParseError(f"bad numeric field: {exc}", path=path, line=lineno) from exc
            if not text.strip():
                raise ParseError("bad numeric field: no values", path=path, line=lineno)
            # information separators: numpy's float parser strips them as
            # whitespace, `float()` rejects them, so a vector holding one is a bad field
            if "\x1c" in text or "\x1d" in text or "\x1e" in text or "\x1f" in text:
                raise ParseError("bad numeric field: an information separator (U+001C..U+001F)",
                                 path=path, line=lineno)
            if "\r" in text:  # whitespace to `float()`, a line end to numpy
                text = text.replace("\r", " ")
            if entries is None:
                dim = text.count(",") + 1
                if len(filled) * dim > MAX_TABLE_CELLS:
                    raise ParseError(f"{dim} values x {len(filled)} windows exceeds the table "
                                     f"limit of {MAX_TABLE_CELLS} cells", path=path, line=lineno)
                entries = np.empty((len(filled), dim))
            key = (side, start, w)
            pending.append((lineno, key, index.get(key, -1)))
            texts.append(text)
            chars += len(text)
            if len(texts) == PARSE_CHUNK_ROWS or chars >= PARSE_CHUNK_CHARS:
                flush()
                chars = 0
    except ParseError:
        flush()  # a bad row still pending lies on an earlier line, so it is the one reported
        raise
    flush()
    missing = np.flatnonzero(~filled)
    if missing.size:  # `index` is in table order, so this is the first window without a row
        side, start, w = next(key for key, row in index.items() if row == missing[0])
        raise ParseError(f"no vector for window ({side}, start={start}, len={w})", path=path)
    if entries is None:
        entries = np.empty((0, 0))
    return EmbeddingTable(n_source, n_target, max_src_window, max_tgt_window,
                          entries, np.ones(len(entries)))


def settle_vectors(path, block: np.ndarray, items: list[tuple[int, tuple, int]],
                   entries: np.ndarray, filled: np.ndarray) -> None:
    """Check a block of parsed vectors and store each as a unit row of `entries`.

    `block[k]` was read from line `items[k][0]` of `path` for window
    `items[k][1]`, and belongs in table row `items[k][2]`, or in none when
    that is -1. In file order, a row with a non-finite value, or a stored
    row whose norm is 0 or overflows, raises a ParseError naming its line,
    after a warning for each earlier stored row whose norm strays beyond
    `RENORM_WARN_TOL`. Then every stored row is divided by its norm, the
    last row of a window repeated in the block winning, in one scatter, and
    marked in `filled`. A norm is `sqrt(v.dot(v))`, bit for bit
    `np.linalg.norm(v)`.
    """
    import numpy as np

    finite = np.isfinite(block).all(axis=1)
    with np.errstate(over="ignore"):  # an overflowing norm is the error below
        norms = np.sqrt([v.dot(v) for v in block])
    if not finite.all() or (np.abs(norms - 1.0) > RENORM_WARN_TOL).any():
        for (lineno, key, row), ok, norm in zip(items, finite, norms.tolist()):
            if not ok:
                raise ParseError("non-finite vector value", path=path, line=lineno)
            if row < 0:
                continue
            if norm == 0.0 or norm == math.inf:
                raise ParseError(f"window {key} has norm {norm}", path=path, line=lineno)
            if abs(norm - 1.0) > RENORM_WARN_TOL:
                log.warning("%s:%d: window %s has norm %.6g, renormalizing",
                            path, lineno, key, norm)
    # numpy keeps no promised value for a repeated index, so each table row is stored once
    last = {row: k for k, (_, _, row) in enumerate(items) if row >= 0}
    stored, picked = list(last), list(last.values())
    unit = block[picked]
    unit /= norms[picked, None]
    entries[stored] = unit
    filled[stored] = True


def _parse_vectors(texts: list[str]) -> np.ndarray:
    """The `[len(texts), dim]` float64 values of comma-separated vector texts."""
    import numpy as np

    return np.loadtxt(texts, delimiter=",", dtype=np.float64, ndmin=2, comments=None)
