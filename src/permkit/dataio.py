"""CSV input and JSON output for the command-line interface.

On-disk conventions (documented in the README):

* Two-sample files: a header row, a ``group`` column with values 1 and 2,
  and one or more feature columns.  Categorical data is a single feature
  column of positive integers 1..d (converted to 0-based internally);
  continuous data is one float column per coordinate.
* Paired (independence) files: a header row, y-columns named ``y`` or
  ``y1..yk`` and z-columns named ``z`` or ``z1..zk``.
* Poisson count files: a header row, a ``group`` column and nonnegative
  integer count columns ``c1..cd``, one individual per row with equal group
  sizes.

Results serialize as one flat JSON record per test.
"""

from __future__ import annotations

import csv
import json
import re

import numpy as np

from .perm_core import TestOutcome
from .testing import AdaptiveOutcome
from .ustats import Categorical, Continuous, PairedSample, PoissonCounts, TwoSamplePooled

__all__ = [
    "load_two_sample_csv",
    "load_paired_csv",
    "load_poisson_csv",
    "outcome_record",
    "write_outcome_json",
]


def _read_table(path) -> tuple[list[str], list[list[str]]]:
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row or row[0].lstrip().startswith("#"):
                continue
            if rows and len(row) != len(rows[0]):
                raise ValueError(f"{path}: line {reader.line_num} has {len(row)} fields, "
                                 f"the header has {len(rows[0])}")
            rows.append(row)
    if len(rows) < 2:
        raise ValueError(f"{path}: need a header row and at least one data row")
    header = [h.strip() for h in rows[0]]
    return header, rows[1:]


def _column(rows: list[list[str]], index: int) -> list[str]:
    return [row[index].strip() for row in rows]


def _is_integral(values: list[str]) -> bool:
    return all(re.fullmatch(r"[+-]?\d+", v) for v in values)


def _to_categorical(values: list[str], name: str) -> np.ndarray:
    arr = np.array([int(v) for v in values], dtype=np.int64)
    if arr.min() < 1:
        raise ValueError(f"{name}: categorical values must be positive integers (1-based)")
    return arr - 1


def load_two_sample_csv(path, categories: int | None = None, kind: str | None = None) -> TwoSamplePooled:
    """Load a labeled two-sample CSV into a :class:`TwoSamplePooled`.

    ``kind`` forces 'categorical' or 'continuous'; by default a single
    all-integer feature column is treated as categorical.  ``categories``
    overrides the inferred category count; continuous data refuses it.
    """
    header, rows = _read_table(path)
    if "group" not in header:
        raise ValueError(f"{path}: missing 'group' column")
    gi = header.index("group")
    features = [i for i in range(len(header)) if i != gi]
    if not features:
        raise ValueError(f"{path}: no feature columns")
    groups = _column(rows, gi)
    if not set(groups) <= {"1", "2"}:
        raise ValueError(f"{path}: group column must contain only 1 and 2")
    mask_y = np.array([g == "1" for g in groups])
    if kind is None:
        kind = (
            "categorical"
            if len(features) == 1 and _is_integral(_column(rows, features[0]))
            else "continuous"
        )
    if kind == "categorical":
        if len(features) != 1:
            raise ValueError(f"{path}: categorical data must have one feature column")
        values = _to_categorical(_column(rows, features[0]), path)
        d = categories if categories is not None else int(values.max()) + 1
        return TwoSamplePooled(y=values[mask_y], z=values[~mask_y], domain=Categorical(d))
    if categories is not None:
        raise ValueError("categories apply only to categorical data")
    mat = np.array(
        [[float(row[i]) for i in features] for row in rows], dtype=float
    )
    return TwoSamplePooled(
        y=mat[mask_y], z=mat[~mask_y], domain=Continuous(len(features))
    )


def _prefixed_columns(header: list[str], prefix: str) -> list[int]:
    exact = [i for i, h in enumerate(header) if h == prefix]
    if exact:
        return exact
    numbered = [(int(h[len(prefix) :]), i) for i, h in enumerate(header)
                if h.startswith(prefix) and h[len(prefix) :].isdigit()]
    return [i for _, i in sorted(numbered)]


def load_paired_csv(
    path,
    categories: tuple[int | None, int | None] = (None, None),
    kind: str | None = None,
) -> PairedSample:
    """Load a paired CSV (columns y*/z*) into a :class:`PairedSample`.

    ``categories`` overrides the inferred (y, z) category counts; continuous
    data refuses it.
    """
    header, rows = _read_table(path)
    y_cols = _prefixed_columns(header, "y")
    z_cols = _prefixed_columns(header, "z")
    if not y_cols or not z_cols:
        raise ValueError(f"{path}: need y and z columns (y, y1.. / z, z1..)")
    if kind is None:
        kind = (
            "categorical"
            if len(y_cols) == 1
            and len(z_cols) == 1
            and _is_integral(_column(rows, y_cols[0]))
            and _is_integral(_column(rows, z_cols[0]))
            else "continuous"
        )
    if kind == "categorical":
        if len(y_cols) != 1 or len(z_cols) != 1:
            raise ValueError(f"{path}: categorical pairs must be single columns")
        y = _to_categorical(_column(rows, y_cols[0]), path)
        z = _to_categorical(_column(rows, z_cols[0]), path)
        d1 = categories[0] if categories[0] is not None else int(y.max()) + 1
        d2 = categories[1] if categories[1] is not None else int(z.max()) + 1
        return PairedSample(
            y=y, z=z, y_domain=Categorical(d1), z_domain=Categorical(d2)
        )
    if any(c is not None for c in categories):
        raise ValueError("categories apply only to categorical data")
    y = np.array([[float(row[i]) for i in y_cols] for row in rows])
    z = np.array([[float(row[i]) for i in z_cols] for row in rows])
    return PairedSample(
        y=y,
        z=z,
        y_domain=Continuous(len(y_cols)),
        z_domain=Continuous(len(z_cols)),
    )


def load_poisson_csv(path) -> PoissonCounts:
    """Load per-individual count rows into a :class:`PoissonCounts`."""
    header, rows = _read_table(path)
    if "group" not in header:
        raise ValueError(f"{path}: missing 'group' column")
    gi = header.index("group")
    count_cols = _prefixed_columns(header, "c")
    if not count_cols:
        raise ValueError(f"{path}: need count columns c1..cd")
    groups = _column(rows, gi)
    if not set(groups) <= {"1", "2"}:
        raise ValueError(f"{path}: group column must contain only 1 and 2")
    mat = np.array([[int(row[i]) for i in count_cols] for row in rows], dtype=np.int64)
    if mat.min() < 0:
        raise ValueError(f"{path}: counts must be nonnegative")
    mask_y = np.array([g == "1" for g in groups])
    return PoissonCounts.from_individuals(mat[mask_y], mat[~mask_y])


def outcome_record(test: str, outcome, plan_seed: int | None = None) -> dict:
    """Flat JSON-ready record for a test outcome (adaptive gets a breakdown).

    The seed comes from the outcome's plan; ``plan_seed`` is accepted for
    older callers and ignored.
    """
    if isinstance(outcome, AdaptiveOutcome):
        plan = outcome.components[0][1].plan
        return {
            "test": test,
            "statistic": None,
            "critical_value": None,
            "p_value": outcome.p_value,
            "reject": outcome.reject,
            "alpha": outcome.alpha,
            "gamma_max": outcome.gamma_max,
            "per_test_alpha": outcome.per_test_alpha,
            "B": plan.replicates,
            "seed": plan.seed if plan.mode == "monte_carlo" else None,
            "components": [
                {
                    "kappa": kappa,
                    "statistic": o.statistic,
                    "critical_value": o.critical_value,
                    "p_value": o.p_value,
                    "reject": o.reject,
                }
                for kappa, o in outcome.components
            ],
        }
    assert isinstance(outcome, TestOutcome)
    return {
        "test": test,
        "statistic": outcome.statistic,
        "critical_value": outcome.critical_value,
        "p_value": outcome.p_value,
        "reject": outcome.reject,
        "alpha": outcome.alpha,
        "B": outcome.plan.replicates,
        "seed": outcome.plan.seed if outcome.plan.mode == "monte_carlo" else None,
    }


def write_outcome_json(record: dict, output=None) -> str:
    """Serialize the record; write to ``output`` when given, return the text."""
    text = json.dumps(record, indent=2, sort_keys=False)
    if output is not None:
        with open(output, "w") as fh:
            fh.write(text + "\n")
    return text
