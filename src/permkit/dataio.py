"""CSV input, JSON output and versioned CSV output.

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

Input is read with one ``csv.reader`` pass and then parsed one column at a
time: a column is tested for integrality by one test of its joined text and
converted by one ``int`` or ``float`` map.  The per-value sign rule runs only
when that test fails, and a column is stripped only when it holds whitespace.

Results serialize as one flat JSON record per test; experiment and report
tables as versioned ``permkit-csv v1`` files.
"""

from __future__ import annotations

import csv
import json
from itertools import chain
from operator import itemgetter

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
    "write_csv",
]


def _read_table(path) -> tuple[list[str], list[tuple[str, ...]]]:
    """The stripped header names and the data columns, each a tuple of raw field strings.

    One ``csv.reader`` pass reads the file; blank rows and rows whose first
    field starts with ``#`` (after leading whitespace) are skipped.  A row
    whose field count differs from the header's is refused with its line
    number, which a second pass finds only then.
    """
    with open(path, newline="") as fh:
        rows = list(filter(None, csv.reader(fh)))
    # a comment row needs a "#" in its first field: filter row by row only if one holds it
    if "#" in "".join(map(itemgetter(0), rows)):
        rows = [row for row in rows if not _is_comment(row)]
    if len(set(map(len, rows))) > 1:
        _raise_ragged(path)
    if len(rows) < 2:
        raise ValueError(f"{path}: need a header row and at least one data row")
    header = [h.strip() for h in rows[0]]
    return header, list(zip(*rows[1:]))


def _is_comment(row: list[str]) -> bool:
    return row[0].lstrip().startswith("#")


def _raise_ragged(path) -> None:
    """Refuse the first data row whose field count differs from the header's."""
    width = None
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row or _is_comment(row):
                continue
            if width is not None and len(row) != width:
                raise ValueError(f"{path}: line {reader.line_num} has {len(row)} fields, "
                                 f"the header has {width}")
            width = len(row)


def _stripped(values: tuple[str, ...]) -> tuple[str, ...] | list[str]:
    """``values`` with surrounding whitespace stripped; ``values`` itself when it holds none."""
    joined = "".join(values)
    return values if joined.split() == [joined] else [v.strip() for v in values]


def _is_integral(values: tuple[str, ...]) -> bool:
    """Every value, stripped, is a run of decimal digits with at most one leading sign.

    A decimal digit is any Unicode digit ``str.isdecimal`` (and ``int``)
    accepts.
    """
    if "".join(values).isdecimal() and all(values):
        return True
    return all((v[1:] if v[:1] in ("+", "-") else v).isdecimal() for v in map(str.strip, values))


def _int64_column(path, header: list[str], columns: list[tuple[str, ...]], index: int) -> np.ndarray:
    """Column ``index`` as int64, refused if a value is outside the int64 range."""
    try:
        return np.array(list(map(int, _stripped(columns[index]))), dtype=np.int64)
    except OverflowError:
        raise ValueError(
            f"{path}: column {header[index]!r} holds an integer outside int64"
        ) from None


def _group_one(path, header: list[str], columns: list[tuple[str, ...]]) -> np.ndarray:
    """Mask of the rows whose ``group`` column is 1 (the others are 2)."""
    if "group" not in header:
        raise ValueError(f"{path}: missing 'group' column")
    groups = _stripped(columns[header.index("group")])
    if not set(groups) <= {"1", "2"}:
        raise ValueError(f"{path}: group column must contain only 1 and 2")
    # every group is now one ASCII character, so the joined text holds one byte per row
    return np.frombuffer("".join(groups).encode("ascii"), dtype=np.uint8) == ord("1")


def _read_sides(path, header, columns, sides: list[list[int]], categories: tuple, kind: str | None) -> list:
    """``(values, domain)`` of each column group in ``sides``.

    ``categories`` has one entry per side.  By default the data is
    categorical when every side is a single all-integer column.
    """
    if kind is None:
        single = all(len(cols) == 1 and _is_integral(columns[cols[0]]) for cols in sides)
        kind = "categorical" if single else "continuous"
    if kind != "categorical":
        if any(c is not None for c in categories):
            raise ValueError("categories apply only to categorical data")
        # converted row by row, so a bad value is reported as a row-wise loop would meet it
        return [(np.array(list(map(float, chain.from_iterable(zip(*(columns[i] for i in cols))))))
                 .reshape(-1, len(cols)), Continuous(len(cols)))
                for cols in sides]
    if any(len(cols) != 1 for cols in sides):
        raise ValueError(f"{path}: categorical data needs a single column per variable")
    out = []
    for cols, d in zip(sides, categories):
        values = _int64_column(path, header, columns, cols[0])
        if values.min() < 1:
            raise ValueError(f"{path}: categorical values must be positive integers (1-based)")
        # 1-based on disk, so the largest value is the inferred category count
        out.append((values - 1, Categorical(d if d is not None else int(values.max()))))
    return out


def load_two_sample_csv(path, categories: int | None = None, kind: str | None = None) -> TwoSamplePooled:
    """Load a labeled two-sample CSV into a :class:`TwoSamplePooled`.

    ``kind`` forces 'categorical' or 'continuous'; by default a single
    all-integer feature column is treated as categorical.  ``categories``
    overrides the inferred category count; continuous data refuses it.
    """
    header, columns = _read_table(path)
    mask_y = _group_one(path, header, columns)
    features = [i for i, h in enumerate(header) if h != "group"]
    if not features:
        raise ValueError(f"{path}: no feature columns")
    [(values, domain)] = _read_sides(path, header, columns, [features], (categories,), kind)
    return TwoSamplePooled(y=values[mask_y], z=values[~mask_y], domain=domain)


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
    header, columns = _read_table(path)
    y_cols = _prefixed_columns(header, "y")
    z_cols = _prefixed_columns(header, "z")
    if not y_cols or not z_cols:
        raise ValueError(f"{path}: need y and z columns (y, y1.. / z, z1..)")
    (y, y_domain), (z, z_domain) = _read_sides(path, header, columns, [y_cols, z_cols], categories, kind)
    return PairedSample(y=y, z=z, y_domain=y_domain, z_domain=z_domain)


def load_poisson_csv(path) -> PoissonCounts:
    """Load per-individual count rows into a :class:`PoissonCounts`."""
    header, columns = _read_table(path)
    mask_y = _group_one(path, header, columns)
    count_cols = _prefixed_columns(header, "c")
    if not count_cols:
        raise ValueError(f"{path}: need count columns c1..cd")
    mat = np.stack([_int64_column(path, header, columns, i) for i in count_cols], axis=1)
    return PoissonCounts(mat[mask_y], mat[~mask_y])


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


def write_csv(path, experiment: str, header: list[str], rows) -> None:
    """Versioned CSV: one comment line, then header, then rows.

    Floats are serialized with repr so reruns are byte-identical.
    """
    with open(path, "w", newline="") as fh:
        fh.write(f"# permkit-csv v1 {experiment}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
