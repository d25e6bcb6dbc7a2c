"""Environment file round-trips.

A single self-describing JSON document holding the arm/key-term universe and
every user's preference vector.  Floating-point values are written as text
with 17 significant digits so import(export(x)) is bit-identical, and the
body carries a content checksum verified on import.

Layout (field names are the contract):

    format            "conduel-environment"
    version           1
    d, link, n_arms, n_keyterms, n_users
    theta_star        list of space-joined rows, one per user
    arms              list of space-joined rows, one per arm
    weights           list of "arm key weight" triples
    provenance        free-form JSON (source, seed, selection diagnostics)
    checksum          sha256 of the canonical body
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

from .env import EnvironmentSet
from .errors import DataFormatError
from .glm import WeightGraph, get_link

__all__ = [
    "FORMAT_NAME",
    "FORMAT_VERSION",
    "export_environment",
    "import_environment",
    "fmt17",
    "write_text",
]

FORMAT_NAME = "conduel-environment"
FORMAT_VERSION = 1

# Header counts, and every field an import reads besides the optional
# provenance.
_COUNTS = ("d", "n_arms", "n_keyterms", "n_users")
_FIELDS = _COUNTS + ("link", "theta_star", "arms", "weights")


def fmt17(x: float) -> str:
    """Shortest text that still round-trips any float64: 17 significant digits."""
    return format(float(x), ".17g")


def write_text(path, text: str) -> None:
    """Write through a temporary file and ``os.replace``, so an interrupted
    write never leaves a truncated file at ``path``."""
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _rows_to_text(matrix: np.ndarray) -> list:
    return [" ".join(fmt17(v) for v in row) for row in np.asarray(matrix, dtype=float)]


def _text_to_rows(rows, n_cols: int, what: str) -> np.ndarray:
    try:
        out = np.array([[float(v) for v in row.split()] for row in rows], dtype=float)
    except (AttributeError, ValueError) as exc:  # a row that is not text, or not numbers
        raise DataFormatError(f"malformed {what} row: {exc}") from exc
    if out.size == 0:
        out = out.reshape(0, n_cols)
    if out.ndim != 2 or out.shape[1] != n_cols:
        raise DataFormatError(f"{what} rows must have {n_cols} columns")
    return out


def _checksum(body: dict) -> str:
    canon = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def export_environment(envset: EnvironmentSet, path) -> str:
    """Write the environment set; returns the content checksum."""
    g = envset.graph
    body = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "d": int(envset.dim),
        "link": envset.link.kind,
        "n_arms": int(envset.n_arms),
        "n_keyterms": int(envset.n_keyterms),
        "n_users": int(envset.n_users),
        "theta_star": _rows_to_text(envset.theta_stars),
        "arms": _rows_to_text(envset.arms),
        "weights": [
            f"{int(a)} {int(k)} {fmt17(w)}"
            for a, k, w in zip(g.arm_idx, g.key_idx, g.weight)
        ],
        "provenance": envset.provenance,
    }
    digest = _checksum(body)
    doc = dict(body)
    doc["checksum"] = digest
    write_text(path, json.dumps(doc, indent=1) + "\n")
    return digest


def import_environment(path) -> EnvironmentSet:
    """Read an environment file, verifying version and checksum."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise DataFormatError(f"environment file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"environment file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
        raise DataFormatError(f"{path} is not an environment file")
    if doc.get("version") != FORMAT_VERSION:
        raise DataFormatError(
            f"unsupported environment file version {doc.get('version')!r} "
            f"(expected {FORMAT_VERSION})"
        )
    stated = doc.pop("checksum", None)
    if stated != _checksum(doc):
        raise DataFormatError(f"checksum mismatch in {path}: file is corrupt or edited")

    missing = [key for key in _FIELDS if key not in doc]
    if missing:
        raise DataFormatError(f"{path} has no {missing[0]!r} field")
    for key in _COUNTS:
        if type(doc[key]) is not int:
            raise DataFormatError(f"{key} must be an integer, got {doc[key]!r}")
    d = doc["d"]
    theta = _text_to_rows(doc["theta_star"], d, "theta_star")
    arms = _text_to_rows(doc["arms"], d, "arms")
    if theta.shape[0] != doc["n_users"] or arms.shape[0] != doc["n_arms"]:
        raise DataFormatError("stated counts disagree with row counts")
    triples = []
    for line in doc["weights"]:
        try:
            arm, key, weight = line.split()
            triples.append((int(arm), int(key), float(weight)))
        except (AttributeError, ValueError):
            raise DataFormatError(f"malformed weight triple: {line!r}") from None
    return EnvironmentSet(
        arms=arms,
        graph=WeightGraph.from_triples(doc["n_arms"], doc["n_keyterms"], triples),
        link=get_link(doc["link"]),
        theta_stars=theta,
        provenance=doc.get("provenance", {}),
    )
