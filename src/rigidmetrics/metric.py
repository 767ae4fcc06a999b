"""Finite labeled metric spaces with exact entries.

Entries are :class:`~rigidmetrics.coded.CodedReal`; plain rationals embed as
pure-offset values.  Matrices are stored fully and immutably.  Validation of
the metric axioms lives in :mod:`rigidmetrics.verify`; file loading performs
it on demand via :func:`load_metric`.

Metrics are written in metric format 1, ``{"version": 1, "points": [...],
"pairs": [...]}``: one coded value per unordered pair, in
:meth:`FiniteMetric.pairs` order, and no diagonal.  The earlier spelling,
``{"points": [...], "matrix": [[...], ...]}`` with no ``version``, the full
matrix, is still read, since hand-written inputs use it, but never written.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from .coded import CodedReal, as_coded, equals
from .errors import DomainError
from .intervals import _decode_scope, _frac_str, _parse_frac

Entry = CodedReal | Fraction | int

METRIC_VERSION = 1


@dataclass(frozen=True)
class FiniteMetric:
    points: tuple[str, ...]
    matrix: tuple[tuple[CodedReal, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.points)
        if len(set(self.points)) != n:
            raise DomainError("point labels must be distinct")
        if len(self.matrix) != n or any(len(row) != n for row in self.matrix):
            raise DomainError("matrix shape does not match the point count")
        # equal forms are equal values; other forms are compared by value
        for i in range(n):
            diagonal = self.matrix[i][i]
            if not (diagonal.is_zero_form() or equals(diagonal, 0)):
                raise DomainError(f"nonzero diagonal at {self.points[i]}")
            for j in range(i + 1, n):
                a, b = self.matrix[i][j], self.matrix[j][i]
                if not (a == b or equals(a, b)):
                    raise DomainError(
                        f"asymmetric entries at ({self.points[i]}, {self.points[j]})"
                    )

    @staticmethod
    def from_entries(
        points: Sequence[str], entries: Sequence[Sequence[Entry]]
    ) -> "FiniteMetric":
        matrix = tuple(tuple(as_coded(e) for e in row) for row in entries)
        return FiniteMetric(tuple(points), matrix)

    @staticmethod
    def from_pair_function(points: Sequence[str], dist) -> "FiniteMetric":
        """Build from a callable on index pairs ``i < j``, called once per pair."""
        n = len(points)
        rows = [[as_coded(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = as_coded(dist(i, j))
        return FiniteMetric(tuple(points), tuple(map(tuple, rows)))

    @property
    def size(self) -> int:
        return len(self.points)

    def index(self, label: str) -> int:
        try:
            return self.points.index(label)
        except ValueError:
            raise DomainError(f"unknown point {label!r}") from None

    def at(self, i: int, j: int) -> CodedReal:
        return self.matrix[i][j]

    def distance(self, a: str, b: str) -> CodedReal:
        return self.matrix[self.index(a)][self.index(b)]

    def pairs(self) -> Iterator[tuple[int, int]]:
        n = self.size
        for i in range(n):
            for j in range(i + 1, n):
                yield i, j

    def is_rational_valued(self) -> bool:
        return all(self.matrix[i][j].is_rational for i, j in self.pairs())

    def scaled(self, factor: Fraction) -> "FiniteMetric":
        if factor <= 0:
            raise DomainError("metric scaling factor must be positive")
        return FiniteMetric(
            self.points,
            tuple(tuple(e * factor for e in row) for row in self.matrix),
        )

    def restrict(self, labels: Sequence[str]) -> "FiniteMetric":
        idx = [self.index(x) for x in labels]
        return FiniteMetric(
            tuple(labels),
            tuple(tuple(self.matrix[i][j] for j in idx) for i in idx),
        )

    def to_json(self, spell: Callable[[CodedReal], dict] = CodedReal.to_json) -> dict:
        """The metric in format 1, each distance spelled by ``spell``."""
        return {
            "version": METRIC_VERSION,
            "points": list(self.points),
            "pairs": [spell(self.matrix[i][j]) for i, j in self.pairs()],
        }

    @staticmethod
    def from_json(data: dict) -> "FiniteMetric":
        """Decode a metric in format 1 by its ``pairs``, or one with no
        ``version`` by its ``matrix``; any other ``version``, or a ``pairs``
        list that is not one value per pair of the points, raises
        ``ValueError``.

        The document is read in one decode scope
        (:func:`~rigidmetrics.intervals._decode_scope`, or the caller's when
        one is open), so each ``p/q`` spelling is read once and endpoints
        and offsets that repeat share one ``Fraction``.  The two entries of
        a pair in a ``matrix`` are decoded apart and compared by value.
        """
        with _decode_scope():
            points = tuple(data["points"])
            if "version" not in data:
                return FiniteMetric(
                    points,
                    tuple(tuple(CodedReal.from_json(e) for e in row) for row in data["matrix"]),
                )
            version = data["version"]
            if type(version) is not int or version != METRIC_VERSION:
                raise ValueError(f"unsupported metric version {version!r}")
            entries, n = data["pairs"], len(points)
            if type(entries) is not list or len(entries) != n * (n - 1) // 2:
                raise ValueError(f"a metric on {n} points needs {n * (n - 1) // 2} pairs")
            values = map(CodedReal.from_json, entries)
            return FiniteMetric.from_pair_function(points, lambda i, j: next(values))

    def to_csv(self) -> str:
        """Rational matrices only: labels in the header, entries as p/q."""
        if not self.is_rational_valued():
            raise DomainError("CSV serialization covers rational matrices only")
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["point", *self.points])
        for label, row in zip(self.points, self.matrix):
            writer.writerow([label, *(_frac_str(e.offset) for e in row)])
        return buf.getvalue()

    @staticmethod
    def from_csv(text: str) -> "FiniteMetric":
        rows = [r for r in csv.reader(io.StringIO(text)) if r]
        header = rows[0][1:]
        entries = [[_parse_frac(cell) for cell in row[1:]] for row in rows[1:]]
        return FiniteMetric.from_entries(header, entries)


def dumps_canonical(obj) -> str:
    """Deterministic JSON: sorted keys, no whitespace drift."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def load_metric(text: str, fmt: str = "json") -> FiniteMetric:
    if fmt == "csv":
        return FiniteMetric.from_csv(text)
    return FiniteMetric.from_json(json.loads(text))


def dump_metric(metric: FiniteMetric, fmt: str = "json") -> str:
    if fmt == "csv":
        return metric.to_csv()
    return dumps_canonical(metric.to_json())
