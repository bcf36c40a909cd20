"""Unit-normalized embeddings for windows of consecutive text units.

Two providers: vectors precomputed by an external encoder and loaded from a
TSV file (the production path), or a deterministic hashed character-n-gram
embedder (the hermetic test path). Either way the aligner only ever sees an
EmbeddingTable.
"""

from __future__ import annotations

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
            if not self.orders or any(n < 1 or n > 5 for n in self.orders):
                raise ValidationError(
                    f"n-gram orders must be a non-empty subset of 1..5: {self.orders}")
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
    identical across platforms and Python versions, unlike hash()."""
    digest = hashlib.blake2b(
        gram.encode("utf-8"), digest_size=8, key=seed.to_bytes(8, "little", signed=True)
    ).digest()
    value = int.from_bytes(digest, "little")
    return value % dim, 1 if value >> 63 else -1


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
    """Vectors for every window of both documents: one unit-norm row per
    window of the `[windows, dim]` matrix `entries`, laid out by `window_rows`."""

    n_source_units: int
    n_target_units: int
    max_src_window: int
    max_tgt_window: int
    entries: np.ndarray
    rows: dict[tuple[str, int], range] = field(init=False, repr=False)

    def __post_init__(self):
        self.rows = window_rows(self.n_source_units, self.n_target_units,
                                self.max_src_window, self.max_tgt_window)

    def windows(self, side: str, window_len: int) -> np.ndarray:
        """View of the rows of every window of one side and length, by start."""
        block = self.rows[(side, window_len)]
        return self.entries[block.start:block.stop]


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
    """Signed hashed bags of character n-grams of every window, L2-normalized.

    A window's text is its units' texts joined with single spaces, stripped
    of surrounding whitespace; its vector adds each n-gram's sign into the
    n-gram's bucket. Each side's units are joined once and the packed slot
    of every n-gram position of that text is read from `SLOTS`, which
    hashes each distinct n-gram once per process; a window is a character
    range of the text and the whole table is one weighted `bincount`.
    Counts are small integers, exact in float64, so the sums do not depend
    on order. A window yielding no n-grams (all whitespace, or shorter than
    every order) maps to basis vector 0 so downstream cosines stay defined.
    """
    import numpy as np

    rows = window_rows(len(doc.source_units), len(doc.target_units),
                       max_src_window, max_tgt_window)
    n_rows, dim = rows[(TARGET, max_tgt_window)].stop, spec.dim
    if n_rows * dim > MAX_TABLE_CELLS:
        raise ValidationError(f"{doc.talk_id}: embedding.dim {dim} x {n_rows} windows exceeds "
                              f"the table limit of {MAX_TABLE_CELLS} cells")
    cells, signs = [], []
    for side, units, max_w in ((SOURCE, doc.source_units, max_src_window),
                               (TARGET, doc.target_units, max_tgt_window)):
        text = " ".join(u.text for u in units)
        starts = np.cumsum([0] + [len(u.text) + 1 for u in units])
        first, last = _stripped_bounds(text)
        row, lo, hi = [], [], []
        for w in range(1, max_w + 1):
            block = rows[(side, w)]
            # [a, b): each window's characters in `text`, before stripping
            a, b = starts[:len(block)], starts[w:w + len(block)] - 1
            row.append(np.arange(block.start, block.stop))
            lo.append(np.minimum(first[a], b))
            hi.append(np.maximum(last[b], lo[-1]))
        row, lo, hi = np.concatenate(row), np.concatenate(lo), np.concatenate(hi)
        for n in spec.orders:
            slots = _packed_slots([text[i:i + n] for i in range(len(text) - n + 1)],
                                  spec.seed, dim)
            count = np.maximum(hi - lo - n + 1, 0)
            offset = np.cumsum(count) - count
            packed = slots[np.repeat(lo - offset, count) + np.arange(count.sum())]
            negative = packed < 0
            cells.append(np.repeat(row * dim, count) + np.where(negative, ~packed, packed))
            signs.append(np.where(negative, np.int8(-1), np.int8(1)))
    # concatenate one array at a time, so each list of pieces is freed before the next copy
    cells = np.concatenate(cells)
    signs = np.concatenate(signs, dtype=float)
    # astype: bincount of no values returns integer zeros whatever the weights
    entries = np.bincount(cells, weights=signs, minlength=n_rows * dim
                          ).astype(float, copy=False).reshape(n_rows, dim)
    norms = np.sqrt(np.einsum("ij,ij->i", entries, entries))
    empty = norms == 0.0
    norms[empty] = 1.0
    entries /= norms[:, None]
    entries[empty, 0] = 1.0
    return EmbeddingTable(len(doc.source_units), len(doc.target_units),
                          max_src_window, max_tgt_window, entries)


def _stripped_bounds(text: str) -> tuple[np.ndarray, np.ndarray]:
    """For each position p in 0..len(text): `first[p]`, the first
    non-whitespace position at or after p (len(text) if none), and
    `last[p]`, one past the last non-whitespace position before p (0 if
    none). Range [a, b) stripped as `str.strip` does is
    [min(first[a], b), max(last[b], that))."""
    import numpy as np

    solid = ~np.fromiter(map(str.isspace, text), dtype=bool, count=len(text))
    pos = np.arange(len(text) + 1)
    first = np.minimum.accumulate(np.where(np.append(solid, True), pos, len(text))[::-1])[::-1]
    last = np.maximum.accumulate(np.where(np.insert(solid, 0, True), pos, 0))
    return first, last


def write_table_file(table: EmbeddingTable, path) -> None:
    """TSV rows `side<TAB>start<TAB>window_len<TAB>v1,v2,...` in table order,
    each value the `repr` of its float."""
    with open(path, "w", encoding="utf-8") as handle:
        for (side, w), block in table.rows.items():
            for start, row in enumerate(block):
                values = ",".join(map(repr, table.entries[row].tolist()))
                handle.write(f"{side}\t{start}\t{w}\t{values}\n")


def load_precomputed(path, n_source: int, n_target: int,
                     max_src_window: int, max_tgt_window: int) -> EmbeddingTable:
    """Load an external-encoder vector file covering every window of the table.

    Rows may come in any order; the last row of a duplicated window wins, and
    rows for windows the table does not hold are ignored. Every row must be
    valid UTF-8 with finite values. Vectors whose norm strays beyond a loose
    tolerance are renormalized with a warning.

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
    return EmbeddingTable(n_source, n_target, max_src_window, max_tgt_window,
                          entries if entries is not None else np.empty((0, 0)))


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
