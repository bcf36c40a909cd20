"""Unit-normalized embeddings for windows of consecutive text units.

Two providers: vectors precomputed by an external encoder and loaded from a
TSV file (the production path), or a deterministic hashed character-n-gram
embedder (the hermetic test path). Either way the aligner only ever sees an
EmbeddingTable.
"""

from __future__ import annotations

import functools
import hashlib
import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import DocumentPair, ParseError, TextUnit, ValidationError

log = logging.getLogger(__name__)

SOURCE = "source"
TARGET = "target"

MAX_WINDOW_LIMIT = 6
RENORM_WARN_TOL = 1e-3


class MissingWindowError(KeyError):
    def __init__(self, side: str, start: int, window_len: int, path=None):
        where = f" in {path}" if path is not None else ""
        super().__init__(
            f"no embedding for window ({side}, start={start}, len={window_len}){where}")
        self.window = (side, start, window_len)


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


@dataclass(frozen=True)
class FallbackParams:
    """Hashed character-n-gram embedder settings."""

    dim: int = 256
    orders: tuple[int, ...] = (2, 3)
    seed: int = 17

    def __post_init__(self):
        if self.dim < 64:
            raise ValidationError(f"fallback dim must be >= 64, got {self.dim}")
        if not self.orders or any(n < 1 or n > 5 for n in self.orders):
            raise ValidationError(f"n-gram orders must be a non-empty subset of 1..5: {self.orders}")


PROVIDER_FALLBACK = "fallback_hash"
PROVIDER_PRECOMPUTED = "precomputed_file"


@dataclass(frozen=True)
class EmbeddingProviderSpec:
    """Where window vectors come from: an external-encoder file or the
    built-in hashed embedder. `path_pattern` may contain `{talk_id}`."""

    kind: str = PROVIDER_FALLBACK
    fallback: FallbackParams = FallbackParams()
    path_pattern: str | None = None

    def __post_init__(self):
        if self.kind not in (PROVIDER_FALLBACK, PROVIDER_PRECOMPUTED):
            raise ValidationError(f"unknown embedding provider kind {self.kind!r}")
        if self.kind == PROVIDER_PRECOMPUTED and not self.path_pattern:
            raise ValidationError("precomputed_file provider needs a path_pattern")

    @classmethod
    def from_dict(cls, obj: dict) -> "EmbeddingProviderSpec":
        kind = obj.get("kind", PROVIDER_FALLBACK)
        fallback = FallbackParams(
            dim=obj.get("dim", FallbackParams.dim),
            orders=tuple(obj.get("orders", FallbackParams.orders)),
            seed=obj.get("seed", FallbackParams.seed),
        ) if kind == PROVIDER_FALLBACK else FallbackParams()
        return cls(kind=kind, fallback=fallback, path_pattern=obj.get("path_pattern"))


def table_for(doc: DocumentPair, spec: EmbeddingProviderSpec,
              max_src_window: int, max_tgt_window: int,
              base_dir=None) -> EmbeddingTable:
    """Build or load the table for one document under the given provider."""
    if spec.kind == PROVIDER_FALLBACK:
        return build_fallback_table(doc, spec.fallback, max_src_window, max_tgt_window)
    path = Path(spec.path_pattern.replace("{talk_id}", doc.talk_id))
    if not path.is_absolute() and base_dir is not None:
        path = Path(base_dir) / path
    return load_precomputed(path, len(doc.source_units), len(doc.target_units),
                            max_src_window, max_tgt_window)


@functools.lru_cache(maxsize=1 << 20)
def _gram_slot(gram: str, seed: int, dim: int) -> tuple[int, int]:
    """Seeded stable hash of one n-gram: (bucket, sign). blake2b keeps this
    identical across platforms and Python versions, unlike hash()."""
    digest = hashlib.blake2b(
        gram.encode("utf-8"), digest_size=8, key=seed.to_bytes(8, "little", signed=True)
    ).digest()
    value = int.from_bytes(digest, "little")
    return value % dim, 1 if value >> 63 else -1


def fallback_embed(text: str, params: FallbackParams) -> np.ndarray:
    """Signed hashed bag of character n-grams, L2-normalized.

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


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity clamped to [-1, 1]."""
    if u.shape != v.shape:
        raise ValidationError(f"dimension mismatch: {u.shape} vs {v.shape}")
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise ValidationError("cosine undefined for zero vector")
    return float(np.clip(np.dot(u, v) / (nu * nv), -1.0, 1.0))


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

    def vector(self, side: str, start: int, window_len: int) -> np.ndarray:
        block = self.rows.get((side, window_len), range(0))
        if not 0 <= start < len(block):
            raise MissingWindowError(side, start, window_len)
        return self.entries[block[start]]


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


def build_fallback_table(doc: DocumentPair, params: FallbackParams,
                         max_src_window: int = 4, max_tgt_window: int = 4) -> EmbeddingTable:
    rows = window_rows(len(doc.source_units), len(doc.target_units),
                       max_src_window, max_tgt_window)
    entries = np.empty((rows[(TARGET, max_tgt_window)].stop, params.dim))
    for side, units, max_w in ((SOURCE, doc.source_units, max_src_window),
                               (TARGET, doc.target_units, max_tgt_window)):
        for start, w, text in enumerate_windows(units, max_w):
            entries[rows[(side, w)][start]] = fallback_embed(text, params)
    return EmbeddingTable(len(doc.source_units), len(doc.target_units),
                          max_src_window, max_tgt_window, entries)


def write_table_file(table: EmbeddingTable, path) -> None:
    """TSV rows `side<TAB>start<TAB>window_len<TAB>v1,v2,...` in table order."""
    with open(path, "w", encoding="utf-8") as handle:
        for (side, w), block in table.rows.items():
            for start, row in enumerate(block):
                values = ",".join(repr(float(x)) for x in table.entries[row])
                handle.write(f"{side}\t{start}\t{w}\t{values}\n")


def load_precomputed(path, n_source: int, n_target: int,
                     max_src_window: int, max_tgt_window: int) -> EmbeddingTable:
    """Load an external-encoder vector file covering every window of the table.

    Rows may come in any order; rows for windows the table does not hold are
    ignored. Every row must be valid UTF-8 with finite values. Vectors whose
    norm strays beyond a loose tolerance are renormalized with a warning.
    """
    path = Path(path)
    rows = window_rows(n_source, n_target, max_src_window, max_tgt_window)
    filled = np.zeros(rows[(TARGET, max_tgt_window)].stop, dtype=bool)
    entries = None
    with open(path, "rb") as handle:
        for lineno, raw in enumerate(handle, start=1):
            try:
                line = raw.decode("utf-8").rstrip("\n")
            except UnicodeDecodeError as exc:
                raise ParseError(f"not UTF-8: {exc}", path=path, line=lineno) from exc
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
