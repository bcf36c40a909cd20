"""Train/dev/test partitioning with contamination guards, plus corpus stats.

Dev and test talks are hand-picked inputs, never sampled. The allowlist is
the set of talk ids known to be safe for training (talks present in the
external corpus's own training split); evaluation talks must stay out of it.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path

from .corpus import Rank, ValidationError, read_lines

log = logging.getLogger(__name__)

SUBSETS = ("all", "S-rank")


class ContaminationError(ValidationError):
    pass


@dataclass(frozen=True)
class SplitManifest:
    train_ids: frozenset[str]
    dev_ids: frozenset[str]
    test_ids: frozenset[str]
    allowlist_id_source: str


def make_split(talks, allowlist, dev_ids, test_ids,
               allowlist_source: str = "") -> SplitManifest:
    """Partition talks into train/dev/test.

    Train is every talk not in dev/test, restricted to the allowlist. A dev
    or test talk found in the allowlist is a hard contamination error: it
    would overlap the external training data the allowlist represents.
    """
    talks = set(talks)
    allowlist = set(allowlist)
    dev_ids = set(dev_ids)
    test_ids = set(test_ids)
    overlap = dev_ids & test_ids
    if overlap:
        raise ValidationError(f"dev and test overlap: {sorted(overlap)}")
    unknown = (dev_ids | test_ids) - talks
    if unknown:
        raise ValidationError(f"unknown talk ids: {sorted(unknown)}")
    contaminated = (dev_ids | test_ids) & allowlist
    if contaminated:
        raise ContaminationError(
            f"dev/test talks present in the training allowlist: {sorted(contaminated)}"
        )
    train = (talks - dev_ids - test_ids) & allowlist
    excluded = talks - train - dev_ids - test_ids
    if excluded:
        log.info("%d talks outside the allowlist excluded from train: %s",
                 len(excluded), sorted(excluded)[:10])
    return SplitManifest(
        train_ids=frozenset(train),
        dev_ids=frozenset(dev_ids),
        test_ids=frozenset(test_ids),
        allowlist_id_source=allowlist_source,
    )


def split_text(split: SplitManifest) -> str:
    """split.json. Only the allowlist's file name is recorded, so the bytes
    do not depend on the directory the run used."""
    obj = {
        "train_ids": sorted(split.train_ids),
        "dev_ids": sorted(split.dev_ids),
        "test_ids": sorted(split.test_ids),
        "allowlist_id_source": Path(split.allowlist_id_source).name,
    }
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def allowlist_text(talk_ids) -> str:
    return "".join(talk_id + "\n" for talk_id in talk_ids)


def read_allowlist(path) -> set[str]:
    """Plain text, one talk id per line; blank lines ignored."""
    return {line.strip() for _, line in read_lines(path) if line.strip()}


@dataclass(frozen=True)
class StatsTable:
    """Rows of (variant, subset, talk count, pair count)."""

    rows: tuple[tuple[str, str, int, int], ...]

    def as_tsv(self) -> str:
        lines = ["variant\tsubset\ttalks\tpairs"]
        lines += [f"{v}\t{s}\t{t}\t{p}" for v, s, t, p in self.rows]
        return "\n".join(lines) + "\n"

    def as_text(self) -> str:
        header = ("variant", "subset", "talks", "pairs")
        table = [header] + [(v, s, str(t), str(p)) for v, s, t, p in self.rows]
        widths = [max(len(row[c]) for row in table) for c in range(4)]
        return "\n".join(
            "  ".join(cell.ljust(widths[c]) for c, cell in enumerate(row)) for row in table
        ) + "\n"


def corpus_stats(pair_counts: dict[str, dict[str, int]],
                 ranks: dict[str, Rank]) -> StatsTable:
    """Talk and pair counts per pipeline variant, for all talks and the
    S-rank subset. pair_counts maps variant -> talk_id -> surviving pairs;
    rows follow its order."""
    rows = []
    for variant, counts in pair_counts.items():
        for subset in SUBSETS:
            if subset == "S-rank":
                talk_ids = [t for t in counts if ranks.get(t) == Rank.S]
            else:
                talk_ids = list(counts)
            n_talks = sum(1 for t in talk_ids if counts[t] > 0)
            n_pairs = sum(counts[t] for t in talk_ids)
            rows.append((variant, subset, n_talks, n_pairs))
    return StatsTable(rows=tuple(rows))
