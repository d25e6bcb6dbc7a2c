"""Tag-assignment dataset ingestion.

Parses HetRec-style interaction files (user, item, tag triples with a header
line), selects the densest items and users, builds the item/key-term
bipartite graph from each item's most widely related tags, and derives
d-dimensional features by truncated SVD of the binary feedback matrix.  The
same factorization supplies the hidden preference vectors, so regret on real
data is measured against a ground truth consistent with the features.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .env import EnvironmentSet, check_link
from .errors import ConfigError, DataFormatError, StructuralError
from .glm import WeightGraph, get_link

__all__ = ["RawInteractions", "IngestConfig", "parse_hetrec", "build_environment"]


@dataclass
class RawInteractions:
    """Deduplicated (user, item, tag) triples with dense ids."""

    user: np.ndarray
    item: np.ndarray
    tag: np.ndarray
    user_ids: np.ndarray  # original id of each dense user index
    item_ids: np.ndarray
    tag_ids: np.ndarray
    n_raw: int  # records parsed before deduplication

    @property
    def n_users(self) -> int:
        return len(self.user_ids)

    @property
    def n_items(self) -> int:
        return len(self.item_ids)

    @property
    def n_tags(self) -> int:
        return len(self.tag_ids)

    def __len__(self) -> int:
        return len(self.user)


@dataclass(frozen=True)
class IngestConfig:
    n_items: int = 2000
    n_users: int = 100
    tags_per_item: int = 20
    dim: int = 10
    link: str = "sigmoid"

    def __post_init__(self):
        for name in ("n_items", "n_users", "tags_per_item", "dim"):
            value = getattr(self, name)
            if not value >= 1:
                raise ConfigError(f"{name} must be at least 1, got {value!r}")
        check_link(self.link)


def parse_hetrec(path) -> RawInteractions:
    """Parse one tag-assignment file.

    The first line is a header.  The delimiter is sniffed (tab or comma);
    each data line needs at least user, item, and tag columns, extra columns
    (timestamps) are ignored.  Exact duplicate triples collapse to one.
    """
    try:
        with open(path, encoding="utf-8", errors="replace") as fh:
            lines = fh.read().splitlines()
    except FileNotFoundError:
        raise DataFormatError(f"dataset file not found: {path}") from None
    if not lines:
        raise DataFormatError(f"{path} is empty")
    header = lines[0]
    delimiter = "\t" if "\t" in header else ("," if "," in header else None)
    if delimiter is None:
        raise DataFormatError(f"{path}: cannot detect delimiter from header {header!r}")

    triples = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(delimiter)
        if len(parts) < 3:
            raise DataFormatError(f"{path}:{lineno}: expected at least 3 columns")
        try:
            triples.append((int(parts[0]), int(parts[1]), int(parts[2])))
        except ValueError:
            raise DataFormatError(f"{path}:{lineno}: non-integer id in {line!r}") from None
    if not triples:
        raise DataFormatError(f"{path} contains no data rows")

    raw = np.array(triples, dtype=np.int64)
    dedup = np.unique(raw, axis=0)
    user_ids, user = np.unique(dedup[:, 0], return_inverse=True)
    item_ids, item = np.unique(dedup[:, 1], return_inverse=True)
    tag_ids, tag = np.unique(dedup[:, 2], return_inverse=True)
    return RawInteractions(
        user=user,
        item=item,
        tag=tag,
        user_ids=user_ids,
        item_ids=item_ids,
        tag_ids=tag_ids,
        n_raw=len(raw),
    )


def _top_k(counts: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest counts, ties to the smallest index."""
    order = np.lexsort((np.arange(len(counts)), -counts))
    return np.sort(order[:k])


def _normalize_rows(rows: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(rows, axis=1)
    out = rows.copy()
    zero = norms <= 1e-12
    # interactions can vanish under the row/column caps; give those rows a
    # deterministic unit direction instead of dividing by zero
    out[zero] = 1.0 / np.sqrt(rows.shape[1])
    out[~zero] = rows[~zero] / norms[~zero, None]
    return out


def build_environment(raw: RawInteractions, config: IngestConfig = IngestConfig()) -> EnvironmentSet:
    """Build the simulation universe from parsed interactions.

    Selection: the ``n_items`` items with the most distinct tag assignments
    and the ``n_users`` users with the most assignments (independent top-k,
    ties by id).  Each kept item keeps its ``tags_per_item`` most widely
    related tags; the union forms the key-term set with equal per-item
    weights.  Features come from a rank-``dim`` SVD of the binary
    user-by-item feedback matrix; rows are unit-normalized and the matching
    left factors become the users' hidden preference vectors.  The
    construction has no randomness.
    """
    if raw.n_items < config.n_items or raw.n_users < config.n_users:
        raise StructuralError(
            f"dataset has {raw.n_items} items and {raw.n_users} users; "
            f"caps ({config.n_items}, {config.n_users}) require more - "
            "lower n_items / n_users in the configuration"
        )

    item_counts = np.bincount(raw.item, minlength=raw.n_items)
    user_counts = np.bincount(raw.user, minlength=raw.n_users)
    kept_items = _top_k(item_counts, config.n_items)
    kept_users = _top_k(user_counts, config.n_users)

    item_pos = -np.ones(raw.n_items, dtype=np.int64)
    item_pos[kept_items] = np.arange(config.n_items)
    user_pos = -np.ones(raw.n_users, dtype=np.int64)
    user_pos[kept_users] = np.arange(config.n_users)

    keep = (item_pos[raw.item] >= 0) & (user_pos[raw.user] >= 0)
    r_user = user_pos[raw.user[keep]]
    r_item = item_pos[raw.item[keep]]
    r_tag = raw.tag[keep]

    feedback = np.zeros((config.n_users, config.n_items))
    feedback[r_user, r_item] = 1.0

    # tag relatedness: number of kept items the tag is attached to
    pair_item, pair_tag = np.unique(np.column_stack([r_item, r_tag]), axis=0).T
    relatedness = np.bincount(pair_tag, minlength=raw.n_tags)

    per_item_tags: list[list[int]] = [[] for _ in range(config.n_items)]
    for it, tg in zip(pair_item, pair_tag):
        per_item_tags[it].append(tg)
    if not len(pair_tag):
        raise StructuralError("no tag assignments survive the item/user caps")
    global_top_tag = int(_top_k(relatedness, 1)[0])

    kept_tags: set[int] = set()
    item_tag_choice: list[list[int]] = []
    for it in range(config.n_items):
        cand = np.array(sorted(per_item_tags[it]), dtype=np.int64)
        if cand.size == 0:
            chosen = [global_top_tag]  # item lost all its taggers to the caps
        else:
            order = np.lexsort((cand, -relatedness[cand]))
            chosen = cand[order[: config.tags_per_item]].tolist()
        item_tag_choice.append(chosen)
        kept_tags.update(chosen)

    tag_list = np.array(sorted(kept_tags), dtype=np.int64)
    tag_pos = {int(t): i for i, t in enumerate(tag_list)}
    triples = []
    for it, chosen in enumerate(item_tag_choice):
        w = 1.0 / len(chosen)
        triples.extend((it, tag_pos[int(t)], w) for t in chosen)
    graph = WeightGraph.from_triples(config.n_items, len(tag_list), triples)

    u, s, vt = np.linalg.svd(feedback, full_matrices=False)
    k = min(config.dim, len(s))
    u, s, vt = u[:, :k], s[:k], vt[:k]
    # deterministic sign: largest-magnitude entry of each right vector positive
    for j in range(k):
        pivot = np.argmax(np.abs(vt[j]))
        if vt[j, pivot] < 0:
            vt[j] = -vt[j]
            u[:, j] = -u[:, j]
    scale = np.sqrt(s)
    item_feats = np.zeros((config.n_items, config.dim))
    item_feats[:, :k] = vt.T * scale
    user_vecs = np.zeros((config.n_users, config.dim))
    user_vecs[:, :k] = u * scale

    return EnvironmentSet(
        arms=_normalize_rows(item_feats),
        graph=graph,
        link=get_link(config.link),
        theta_stars=_normalize_rows(user_vecs),
        provenance={
            "source": "hetrec",
            "n_raw_records": int(raw.n_raw),
            "n_deduplicated": int(len(raw)),
            "n_keyterms": int(len(tag_list)),
            "kept_item_ids": raw.item_ids[kept_items].tolist(),
            "kept_user_ids": raw.user_ids[kept_users].tolist(),
            "keyterm_vocabulary": raw.tag_ids[tag_list].tolist(),
            "singular_values": [float(x) for x in s],
            "caps": {
                "n_items": config.n_items,
                "n_users": config.n_users,
                "tags_per_item": config.tags_per_item,
                "dim": config.dim,
            },
        },
    )
