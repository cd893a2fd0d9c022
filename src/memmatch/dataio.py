"""Text file formats: embedding files, key=value records (configs, specs).

Embedding file layout: a header line ``d=<int>`` followed by one record per
sample, ``<modality>,<true_id or -1>,<f_1>,...,<f_d>`` in decimal text.
Floats are written with ``repr`` so a write/read round trip is exact.
"""
from __future__ import annotations

from dataclasses import fields, replace
from pathlib import Path
from typing import Mapping, get_args, get_type_hints

import numpy as np

from .model import MODALITIES, EmbeddingSet, PipelineConfig


class DataFormatError(ValueError):
    """Malformed input file or config entry."""


def write_embeddings(path, embedding_set: EmbeddingSet) -> None:
    lines = [f"d={embedding_set.dim}"]
    ids = embedding_set.true_identity
    for i in range(len(embedding_set)):
        tid = -1 if ids is None else int(ids[i])
        coords = ",".join(repr(float(x)) for x in embedding_set.features[i])
        lines.append(f"{embedding_set.modality[i]},{tid},{coords}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_embeddings(path) -> EmbeddingSet:
    text = Path(path).read_text()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("d="):
        raise DataFormatError(f"{path}: missing 'd=<int>' header line")
    try:
        dim = int(lines[0][2:])
    except ValueError:
        raise DataFormatError(f"{path}: bad dimension header {lines[0]!r}") from None
    if dim < 1:
        raise DataFormatError(f"{path}: dimension header {lines[0]!r} must be at least 1")
    feats, tags, ids = [], [], []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != dim + 2:
            raise DataFormatError(f"{path}:{lineno}: expected {dim + 2} fields, got {len(parts)}")
        tag = parts[0].strip()
        if tag not in MODALITIES:
            raise DataFormatError(f"{path}:{lineno}: modality {tag!r} is not one of {MODALITIES}")
        try:
            tid = int(parts[1])
            row = [float(x) for x in parts[2:]]
        except ValueError as exc:
            raise DataFormatError(f"{path}:{lineno}: {exc}") from None
        tags.append(tag)
        ids.append(tid)
        feats.append(row)
    if not feats:
        raise DataFormatError(f"{path}: no sample records")
    id_arr = np.array(ids)
    if np.all(id_arr == -1):
        truth = None
    elif np.any(id_arr == -1):
        missing = int(np.flatnonzero(id_arr == -1)[0])
        raise DataFormatError(
            f"{path}: true identities must be present for all rows or none (row {missing} has -1)"
        )
    else:
        truth = id_arr
    return EmbeddingSet(features=np.array(feats), modality=np.array(tags), true_identity=truth)


def parse_kv_text(text: str) -> dict[str, str]:
    """Parse flat ``key=value`` lines; blank lines and '#' comments skipped."""
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise DataFormatError(f"line {lineno}: expected key=value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        out[key.strip()] = value.strip()
    return out


def _parse_bool(value: str) -> bool:
    low = value.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {value!r}")


def record_from_entries(base, entries: Mapping[str, str], noun: str):
    """The dataclass ``base`` with each string entry parsed by its field's
    type hint: int, bool, float, or ``"median"`` for a ``float | str``
    field.  An unknown key is rejected with the full list of valid keys so
    typos are caught immediately; ``noun`` names the record in messages."""
    kinds = get_type_hints(type(base))
    updates: dict[str, object] = {}
    for key, raw in entries.items():
        if key not in kinds:
            raise DataFormatError(f"unknown {noun} key {key!r}; valid keys: {', '.join(kinds)}")
        kind = kinds[key]
        try:
            if kind is int:
                updates[key] = int(raw)
            elif kind is bool:
                updates[key] = _parse_bool(raw)
            elif raw == "median" and str in get_args(kind):
                updates[key] = raw
            else:
                updates[key] = float(raw)
        except ValueError as exc:
            raise DataFormatError(f"{noun} key {key!r}: {exc}") from None
    return replace(base, **updates)


def record_to_text(record) -> str:
    """The dataclass ``record`` as ``key=value`` lines in field order;
    ``record_from_entries`` reads them back exactly."""
    return "".join(f"{f.name}={getattr(record, f.name)}\n" for f in fields(record))


def config_from_entries(entries: Mapping[str, str], base: PipelineConfig | None = None) -> PipelineConfig:
    """Build a PipelineConfig from string entries on top of ``base``
    (``record_from_entries``), then validate it."""
    cfg = record_from_entries(PipelineConfig() if base is None else base, entries, "config")
    problems = cfg.validate()
    if problems:
        raise DataFormatError("invalid config: " + "; ".join(problems))
    return cfg


def read_config(path, base: PipelineConfig | None = None) -> PipelineConfig:
    return config_from_entries(parse_kv_text(Path(path).read_text()), base)
