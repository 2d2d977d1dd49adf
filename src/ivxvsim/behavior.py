"""Voter action patterns and the distributions they are sampled from.

A pattern is a non-empty string over {V, C}: V casts a ballot, C checks
the latest one against the voter's intent.  Patterns must start with V,
since a check needs a ballot to look at.

The shipped default table (data/estonia_aggregate.csv) encodes observed
aggregate voter behavior: 94% vote once and do nothing else, 1.5% vote
twice, and checking is rare (4% of voters end with a check).  Any other
table can be loaded from CSV with header `pattern,probability`.
"""

from __future__ import annotations

import csv
import os
from importlib import resources

PATTERN_ALPHABET = frozenset("VC")
DEFAULT_DISTRIBUTION_RESOURCE = "data/estonia_aggregate.csv"

# Tolerance on the probability-mass total.
_SUM_TOL = 1e-9

# The longest pattern, whether a config's script, a table row or what
# `analyze` reads: each V costs a run one ballot encryption and each C one
# opening, and the policy code walks every prefix of a pattern, so a
# pattern of millions of actions would run for minutes.  The shipped
# table's longest pattern has 3 actions.
MAX_PATTERN_LEN = 256


class BadDistribution(ValueError):
    """Distribution table fails validation."""


def validate_pattern(pattern: str) -> str:
    if not isinstance(pattern, str) or not pattern:
        raise BadDistribution("pattern must be a non-empty string")
    if len(pattern) > MAX_PATTERN_LEN:
        raise BadDistribution(f"pattern of {len(pattern)} actions is longer than "
                              f"{MAX_PATTERN_LEN}, the most a pattern holds")
    if set(pattern) - PATTERN_ALPHABET:
        raise BadDistribution(f"pattern {pattern!r} has characters outside V/C")
    if pattern[0] != "V":
        raise BadDistribution(f"pattern {pattern!r} must start with V")
    return pattern


def _add_pair(table: dict, pattern, prob) -> None:
    """Check one pattern/probability pair against `table` and add it."""
    validate_pattern(pattern)
    if pattern in table:
        raise BadDistribution(f"duplicate pattern {pattern!r}")
    try:
        prob = float(prob)
    except (TypeError, ValueError):
        raise BadDistribution(f"probability {prob!r} for {pattern!r} is not a number") from None
    if not 0.0 <= prob <= 1.0:
        raise BadDistribution(f"probability {prob!r} for {pattern!r} out of [0, 1]")
    table[pattern] = prob


class BehaviorDistribution:
    """Immutable probability table over voter action patterns.

    Iteration and sampling follow the table's insertion order, so a
    fixed seed reproduces the same sample sequence.
    """

    def __init__(self, entries):
        table: dict[str, float] = {}
        for pair in entries.items() if hasattr(entries, "items") else entries:
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise BadDistribution(f"{pair!r} is not a pattern/probability pair")
            _add_pair(table, *pair)
        if not table:
            raise BadDistribution("empty distribution")
        total = sum(table.values())
        if abs(total - 1.0) > _SUM_TOL:
            raise BadDistribution(f"probabilities sum to {total!r}, not 1")
        self._table = table

    def __getitem__(self, pattern: str) -> float:
        return self._table[pattern]

    def __contains__(self, pattern: str) -> bool:
        return pattern in self._table

    def __len__(self) -> int:
        return len(self._table)

    def items(self):
        return self._table.items()

    def support(self) -> tuple[str, ...]:
        return tuple(self._table)

    def max_len(self) -> int:
        return max(len(p) for p in self._table)

    def sample(self, rng) -> str:
        x = rng.unit()
        acc = 0.0
        last = None
        for pattern, prob in self._table.items():
            acc += prob
            last = pattern
            if x < acc:
                return pattern
        return last  # rounding fallthrough lands on the final entry

    def __repr__(self):
        return f"BehaviorDistribution({self._table!r})"


def read_csv(path, columns: tuple, error: type) -> list:
    """The rows of the CSV file at `path` as (`file:line`, fields by column
    name), line being the one on which the row ends: a quoted field can span
    lines.  A row lacking one of `columns`, or a file that is not UTF-8 or
    that the csv module cannot read, raises `error` naming the `file:line`
    or the file."""
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        try:
            for row in reader:
                where = f"{path}:{reader.line_num}"
                if any(row.get(column) is None for column in columns):
                    raise error(f"{where}: need columns {','.join(columns)}")
                rows.append((where, row))
        except (csv.Error, UnicodeDecodeError) as exc:
            raise error(f"{path}: {exc}") from None
    return rows


def load_distribution(source) -> BehaviorDistribution:
    """Build a distribution from a mapping, an iterable of pairs, or a
    CSV file path (header `pattern,probability`)."""
    if isinstance(source, BehaviorDistribution):
        return source
    if hasattr(source, "items") or isinstance(source, (list, tuple)):
        return BehaviorDistribution(source)
    if not isinstance(source, (str, os.PathLike)):   # an integer would open a file descriptor
        raise BadDistribution(f"distribution must be pattern/probability pairs or a CSV path, "
                              f"not {source!r}")
    table: dict[str, float] = {}
    for where, row in read_csv(source, ("pattern", "probability"), BadDistribution):
        try:
            prob = float(row["probability"])
        except ValueError:
            raise BadDistribution(
                f"{where}: probability {row['probability']!r} is not a number") from None
        try:
            _add_pair(table, row["pattern"].strip(), prob)
        except BadDistribution as exc:
            raise BadDistribution(f"{where}: {exc}") from None
    try:   # every pair passed above, so what can fail here is the total
        return BehaviorDistribution(table)
    except BadDistribution as exc:
        raise BadDistribution(f"{source}: {exc}") from None


def default_distribution() -> BehaviorDistribution:
    resource = resources.files(__package__).joinpath(DEFAULT_DISTRIBUTION_RESOURCE)
    with resources.as_file(resource) as path:
        return load_distribution(path)
