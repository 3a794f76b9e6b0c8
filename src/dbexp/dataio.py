"""File formats: experiment CSVs, design descriptors, reports, run manifests."""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from . import __version__
from .design import Design, _key, design_from_dict, make_bernoulli, make_cluster, make_complete


class CsvFormatError(ValueError):
    """Malformed experiment CSV; carries row/column diagnostics."""

    def __init__(self, message: str, row: int | None = None, column: str | None = None):
        where = []
        if row is not None:
            where.append(f"row {row}")
        if column is not None:
            where.append(f"column {column!r}")
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(message + suffix)
        self.row = row
        self.column = column


@dataclass(frozen=True)
class ExperimentTable:
    outcome: np.ndarray
    treatment: np.ndarray
    covariates: np.ndarray  # n x k (k may be 0)
    covariate_labels: tuple[str, ...]
    cluster_ids: np.ndarray | None

    @property
    def n(self) -> int:
        return self.outcome.shape[0]


def read_experiment_csv(path) -> ExperimentTable:
    """One row per unit; header must name 'outcome' and 'treatment'.

    An optional 'cluster_id' column holds integer cluster ids; every other
    column is read as a numeric covariate.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvFormatError("empty file; a header row is required") from None
        header = [h.strip() for h in header]
        for required in ("outcome", "treatment"):
            if required not in header:
                raise CsvFormatError(f"missing required column {required!r}")
        out_col = header.index("outcome")
        trt_col = header.index("treatment")
        clu_col = header.index("cluster_id") if "cluster_id" in header else None
        cov_cols = [
            j for j in range(len(header)) if j not in (out_col, trt_col, clu_col)
        ]
        outcome, treatment, clusters = [], [], []
        covariates = []
        for row_number, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(header):
                raise CsvFormatError(
                    f"expected {len(header)} fields, found {len(row)}", row=row_number
                )
            outcome.append(_parse_float(row[out_col], row_number, "outcome"))
            z = _parse_float(row[trt_col], row_number, "treatment")
            if z not in (0.0, 1.0):
                raise CsvFormatError(
                    f"treatment must be 0 or 1, found {row[trt_col]!r}",
                    row=row_number,
                    column="treatment",
                )
            treatment.append(int(z))
            if clu_col is not None:
                raw = row[clu_col].strip()
                try:
                    clusters.append(int(raw))
                except ValueError:
                    raise CsvFormatError(
                        f"cluster id must be an integer, found {raw!r}",
                        row=row_number,
                        column="cluster_id",
                    ) from None
            covariates.append(
                [_parse_float(row[j], row_number, header[j]) for j in cov_cols]
            )
    if not outcome:
        raise CsvFormatError("no data rows found")
    cov = np.asarray(covariates, dtype=float)
    if cov.size == 0:
        cov = np.empty((len(outcome), 0))
    return ExperimentTable(
        outcome=np.asarray(outcome, dtype=float),
        treatment=np.asarray(treatment, dtype=np.int8),
        covariates=cov,
        covariate_labels=tuple(header[j] for j in cov_cols),
        cluster_ids=np.asarray(clusters, dtype=np.int64) if clu_col is not None else None,
    )


def _parse_float(cell: str, row_number: int, column: str) -> float:
    text = cell.strip()
    if not text:
        raise CsvFormatError("empty numeric field", row=row_number, column=column)
    try:
        value = float(text)
    except ValueError:
        raise CsvFormatError(
            f"could not parse {cell!r} as a number", row=row_number, column=column
        ) from None
    if not math.isfinite(value):
        raise CsvFormatError(f"{cell!r} is not a finite number", row=row_number, column=column)
    return value


# -- design descriptors --------------------------------------------------------


#: The keys each descriptor kind accepts, each at most once.
_DESCRIPTOR_KEYS = {"complete": ("n1", "n"), "bernoulli": ("file",), "cluster": ("m1",),
                    "custom": ("file",)}


def parse_design_descriptor(descriptor: str, table: ExperimentTable | None = None) -> Design:
    """Build a design from a compact descriptor string.

    Forms: ``complete:n1=K[,n=N]``, ``bernoulli:file=PATH``, ``cluster:m1=K``
    (cluster ids come from the data CSV), ``custom:file=PATH`` (enumerated
    support JSON with keys n, assignments, probabilities).  Any other key,
    or a key given twice, is an error.
    """
    kind, _, rest = descriptor.partition(":")
    if kind not in _DESCRIPTOR_KEYS:
        raise ValueError(f"unknown design kind {kind!r}")
    what = f"{kind} design descriptor"
    params = {}
    for item in rest.split(",") if rest else ():
        key, _, value = (part.strip() for part in item.partition("="))
        if not value:
            raise ValueError(f"malformed design descriptor item {item!r}")
        if key not in _DESCRIPTOR_KEYS[kind]:
            raise ValueError(f"{what} has an unknown key {key!r}; choose from "
                             + ", ".join(_DESCRIPTOR_KEYS[kind]))
        if key in params:
            raise ValueError(f"{what} gives the key {key!r} twice")
        params[key] = value
    if kind == "complete":
        if table is None and "n" not in params:
            raise ValueError("complete design needs the data table or an explicit n")
        n = int(params["n"]) if "n" in params else table.n
        return make_complete(n, int(_key(params, "n1", what)))
    if kind == "bernoulli":
        return make_bernoulli(load_numeric_vector(_key(params, "file", what)))
    if kind == "cluster":
        if table is None or table.cluster_ids is None:
            raise ValueError("cluster design needs a cluster_id column in the data CSV")
        return make_cluster(table.cluster_ids, int(_key(params, "m1", what)))
    with open(_key(params, "file", what)) as fh:  # custom
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError(f"{what} file must hold a JSON object, not a {type(payload).__name__}")
    if "kind" not in payload:  # a bare enumerated support
        payload = {**payload, "kind": "enumerated", "params": payload}
    return design_from_dict(payload)


def load_numeric_vector(path) -> np.ndarray:
    """A numeric vector stored either as a flat JSON array or one value per
    line; every entry must be finite."""
    with open(path) as fh:
        text = fh.read().strip()
    if not text:
        raise ValueError(f"{path}: empty vector file")
    if text.startswith("["):
        values = np.asarray(json.loads(text), dtype=float)
        if values.ndim != 1:
            raise ValueError(f"{path}: expected a flat vector, found an array of shape "
                             f"{values.shape}")
    else:
        values = np.asarray([float(line) for line in text.splitlines() if line.strip()])
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ValueError(f"{path}: non-finite entries at positions "
                         + ", ".join(str(int(i)) for i in bad))
    return values


# -- reports and manifests -----------------------------------------------------


def write_csv(path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_value(v) for v in row])


def _format_value(value):
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (np.floating,)):
        return repr(float(value))
    return value


def write_manifest(out_dir, command: str, params: dict) -> str:
    """Record versions, resolved configuration, and seeds for reproducibility."""
    manifest = {
        "command": command,
        "versions": {"dbexp": __version__, "numpy": np.__version__},
        "params": params,
    }
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, default=_jsonable)
        fh.write("\n")
    return path


def _jsonable(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    return str(value)
