"""Dataset persistence.

ExaGeoStat reads/writes location+measurement files; downstream users of
this reproduction need the same plumbing to run the MLE on their own
data.  The format is CSV, ``x,y[,z],value`` (header optional), the
common exchange format for scattered spatial data.
"""

from __future__ import annotations

import csv

import numpy as np

from .covariance import get_model
from .generator import Dataset

__all__ = ["save_dataset_csv", "load_dataset_csv"]


def save_dataset_csv(dataset: Dataset, path: str) -> str:
    """Write ``x,y[,z],value`` rows with a header."""
    dim = dataset.locations.shape[1]
    headers = ["x", "y", "z"][:dim] + ["value"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(headers)
        for loc, val in zip(dataset.locations, dataset.z):
            writer.writerow([*(f"{c!r}" for c in loc.tolist()), repr(float(val))])
    return path


def load_dataset_csv(path: str, model_name: str, *, nugget: float = 0.0) -> Dataset:
    """Read a ``x,y[,z],value`` CSV into a :class:`Dataset`.

    ``model_name`` picks the covariance family (``2d-sqexp``,
    ``2d-matern``, ``3d-sqexp``); its dimension must match the file.
    Only the first non-blank line may be a header; any later row that is
    not numbers, or not as wide as the first, is a :class:`ValueError`
    naming the line.
    """
    model = get_model(model_name)
    rows: list[list[float]] = []
    header_allowed = True
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row:
                continue
            is_first, header_allowed = header_allowed, False
            try:
                values = [float(c) for c in row]
            except ValueError:
                if is_first:
                    continue  # header line
                raise ValueError(
                    f"{path}, line {reader.line_num}: not a row of numbers: {row!r}"
                ) from None
            if rows and len(values) != len(rows[0]):
                raise ValueError(
                    f"{path}, line {reader.line_num}: {len(values)} columns, "
                    f"expected {len(rows[0])}"
                )
            rows.append(values)
    if not rows:
        raise ValueError(f"no data rows in {path}")
    data = np.asarray(rows, dtype=np.float64)
    if data.shape[1] != model.dim + 1:
        raise ValueError(
            f"{path} has {data.shape[1]} columns; model {model.name} expects "
            f"{model.dim} coordinates + 1 value"
        )
    return Dataset(locations=data[:, :-1], z=data[:, -1], model=model, nugget=nugget)

