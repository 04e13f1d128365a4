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


def read_features(path: str, d_a: int, t: int) -> np.ndarray:
    """The (D_a, T) `features` tensor of one feature archive, with its dims
    validated and non-finite values rejected."""
    feats = archive.read_archive(path, require=("features",))["features"]
    if feats.ndim != 2:
        raise archive.ArchiveFormatError(
            f"{path}: features must be 2-d, got {feats.shape}")
    if feats.shape[0] != d_a:
        raise archive.ArchiveFormatError(
            f"{path}: expected D_a={d_a}, got {feats.shape[0]}")
    if feats.shape[1] != t:
        raise archive.ArchiveFormatError(
            f"{path}: expected T={t}, got {feats.shape[1]}")
    if not np.all(np.isfinite(feats)):
        raise archive.ArchiveFormatError(f"{path}: non-finite feature values")
    return feats


def load_dataset(manifest_path: str, d_a: int, t: int) -> list[DatasetItem]:
    """Load every manifest row and its checked feature archive."""
    return [DatasetItem(row.id, row.split,
                        read_features(row.feature_path, d_a, t), row.captions)
            for row in archive.load_manifest(manifest_path)]
