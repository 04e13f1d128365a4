"""Dataset items: manifest rows joined with their audio feature matrices."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import archive


@dataclass
class DatasetItem:
    id: str
    split: str
    features: np.ndarray  # (D_a, T)
    captions: list[str]

    @property
    def caption(self) -> str:
        """Primary caption (used for similarity labeling and retrieval)."""
        return self.captions[0]


def load_dataset(manifest_path: str, d_a: int | None = None,
                 t: int | None = None) -> list[DatasetItem]:
    """Load every manifest row and its feature archive, validating dims and
    rejecting non-finite values."""
    rows = archive.load_manifest(manifest_path)
    items = []
    for row in rows:
        tensors = archive.read_archive(row.feature_path)
        if "features" not in tensors:
            raise archive.ArchiveFormatError(
                f"{row.feature_path}: no tensor named 'features'")
        feats = tensors["features"]
        if feats.ndim != 2:
            raise archive.ArchiveFormatError(
                f"{row.feature_path}: features must be 2-d, got {feats.shape}")
        if d_a is not None and feats.shape[0] != d_a:
            raise archive.ArchiveFormatError(
                f"{row.feature_path}: expected D_a={d_a}, got {feats.shape[0]}")
        if t is not None and feats.shape[1] != t:
            raise archive.ArchiveFormatError(
                f"{row.feature_path}: expected T={t}, got {feats.shape[1]}")
        if not np.all(np.isfinite(feats)):
            raise archive.ArchiveFormatError(
                f"{row.feature_path}: non-finite feature values")
        items.append(DatasetItem(row.id, row.split, feats, row.captions))
    return items
