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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import DocumentPair, ParseError, TextUnit, ValidationError

log = logging.getLogger(__name__)

SOURCE = "source"
TARGET = "target"

MAX_WINDOW_LIMIT = 6
UNIT_NORM_TOL = 1e-6
RENORM_WARN_TOL = 1e-3


class MissingWindowError(KeyError):
    def __init__(self, side: str, start: int, window_len: int):
        super().__init__(f"no embedding for window ({side}, start={start}, len={window_len})")
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
            dim=int(obj.get("dim", FallbackParams.dim)),
            orders=tuple(obj.get("orders", FallbackParams.orders)),
            seed=int(obj.get("seed", FallbackParams.seed)),
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
    expected = list(expected_window_keys(
        len(doc.source_units), len(doc.target_units), max_src_window, max_tgt_window))
    return load_precomputed(path, expected, len(doc.source_units),
                            len(doc.target_units), max_src_window, max_tgt_window)


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
    """Vectors for every window of both documents, keyed (side, start, len)."""

    dim: int
    n_source_units: int
    n_target_units: int
    max_src_window: int
    max_tgt_window: int
    entries: dict[tuple[str, int, int], np.ndarray]

    def vector(self, side: str, start: int, window_len: int) -> np.ndarray:
        try:
            return self.entries[(side, start, window_len)]
        except KeyError:
            raise MissingWindowError(side, start, window_len) from None

    def validate(self) -> None:
        for key in expected_window_keys(
            self.n_source_units, self.n_target_units, self.max_src_window, self.max_tgt_window
        ):
            if key not in self.entries:
                raise MissingWindowError(*key)
        for key, vec in self.entries.items():
            if vec.shape != (self.dim,):
                raise ValidationError(f"window {key}: dimension {vec.shape} != ({self.dim},)")
            norm = float(np.linalg.norm(vec))
            if abs(norm - 1.0) > UNIT_NORM_TOL:
                raise ValidationError(f"window {key}: norm {norm} not unit")


def expected_window_keys(n_source: int, n_target: int,
                         max_src_window: int, max_tgt_window: int):
    """Every (side, start, window_len) key an aligner may ask for."""
    for side, count, max_w in ((SOURCE, n_source, max_src_window),
                               (TARGET, n_target, max_tgt_window)):
        if max_w < 1 or max_w > MAX_WINDOW_LIMIT:
            raise ValidationError(f"{side} max window {max_w} outside 1..{MAX_WINDOW_LIMIT}")
        for w in range(1, max_w + 1):
            for start in range(0, count - w + 1):
                yield (side, start, w)


def build_fallback_table(doc: DocumentPair, params: FallbackParams,
                         max_src_window: int = 4, max_tgt_window: int = 4) -> EmbeddingTable:
    entries = {}
    for side, units, max_w in ((SOURCE, doc.source_units, max_src_window),
                               (TARGET, doc.target_units, max_tgt_window)):
        if max_w < 1 or max_w > MAX_WINDOW_LIMIT:
            raise ValidationError(f"{side} max window {max_w} outside 1..{MAX_WINDOW_LIMIT}")
        for start, w, text in enumerate_windows(units, max_w):
            entries[(side, start, w)] = fallback_embed(text, params)
    return EmbeddingTable(
        dim=params.dim,
        n_source_units=len(doc.source_units),
        n_target_units=len(doc.target_units),
        max_src_window=max_src_window,
        max_tgt_window=max_tgt_window,
        entries=entries,
    )


def write_table_file(table: EmbeddingTable, path) -> None:
    """TSV rows `side<TAB>start<TAB>window_len<TAB>v1,v2,...` in key order."""
    path = Path(path)
    with open(path, "w", encoding="utf-8") as handle:
        for (side, start, w) in sorted(table.entries):
            values = ",".join(repr(float(x)) for x in table.entries[(side, start, w)])
            handle.write(f"{side}\t{start}\t{w}\t{values}\n")


def load_precomputed(path, expected_windows, n_source: int, n_target: int,
                     max_src_window: int, max_tgt_window: int) -> EmbeddingTable:
    """Load an external-encoder vector file covering exactly expected_windows.

    Vectors whose norm strays beyond a loose tolerance are renormalized with
    a warning; rows for unexpected windows are ignored.
    """
    path = Path(path)
    expected = set(expected_windows)
    entries: dict[tuple[str, int, int], np.ndarray] = {}
    dim = None
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.rstrip("\n")
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
            if dim is None:
                dim = vec.shape[0]
            elif vec.shape[0] != dim:
                raise ParseError(
                    f"dimension {vec.shape[0]} differs from first row's {dim}",
                    path=path, line=lineno,
                )
            key = (side, start, w)
            if key not in expected:
                continue
            norm = float(np.linalg.norm(vec))
            if norm == 0.0:
                raise ParseError(f"zero vector for window {key}", path=path, line=lineno)
            if abs(norm - 1.0) > RENORM_WARN_TOL:
                log.warning("%s:%d: window %s has norm %.6g, renormalizing", path, lineno, key, norm)
            entries[key] = vec / norm
    missing = expected - set(entries)
    if missing:
        raise MissingWindowError(*sorted(missing)[0])
    return EmbeddingTable(
        dim=dim,
        n_source_units=n_source,
        n_target_units=n_target,
        max_src_window=max_src_window,
        max_tgt_window=max_tgt_window,
        entries=entries,
    )
