"""Checks on ivxvsim's outputs, computed apart from the program.

Nothing here calls into ivxvsim.  The group moduli come from their
published definitions, transcripts are read as plain JSON lines,
ciphertexts are opened with plain modular arithmetic, and the behaviour
table is parsed straight from the packaged CSV.  Each check returns a
list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from dataclasses import dataclass


def _arctan_inv(x: int, one: int) -> int:
    """one * arctan(1/x) in fixed point, by its Taylor series."""
    total = term = one // x
    k, sign = 1, 1
    while term:
        term //= x * x
        k += 2
        sign = -sign
        total += sign * (term // k)
    return total


def rfc3526_prime_2048() -> int:
    """The 2048-bit MODP prime of RFC 3526, section 3:
    p = 2^2048 - 2^1984 - 1 + 2^64 * (floor(2^1918 * pi) + 124476)."""
    guard = 32
    one = 1 << (1918 + guard)
    pi = 16 * _arctan_inv(5, one) - 4 * _arctan_inv(239, one)   # Machin's formula
    return 2**2048 - 2**1984 - 1 + 2**64 * ((pi >> guard) + 124476)


# preset -> (p, g); the toy group is p = 23 with g = 2 of order 11
GROUPS = {"toy": (23, 2), "standard": (rfc3526_prime_2048(), 2)}


def read_table(csv_path) -> list[tuple[str, float]]:
    """(pattern, probability) rows of a behaviour table CSV, in file order."""
    with open(csv_path, newline="") as fh:
        return [(row["pattern"].strip(), float(row["probability"]))
                for row in csv.DictReader(fh)]


def caught_mass(table) -> float:
    """Under always-manipulate a voter is caught iff their pattern has a
    check, since every ballot they cast is manipulated."""
    return sum(prob for pattern, prob in table if "C" in pattern)


@dataclass(frozen=True)
class Expectation:
    """The inputs of an honest election, from which the checks below know
    what it must produce."""

    preset: str
    bound: int
    intents: tuple
    scripts: dict           # voter id -> pattern, for every voter


VALID = (True, None)        # the verdict every honest election must reach


def _dlog(p: int, g: int, bound: int, element: int):
    acc = 1
    for m in range(bound):
        if acc == element:
            return m
        acc = acc * g % p
    return None


def check_election(exp: Expectation, text: str, tally: dict, verdict) -> list[str]:
    """Check a run's JSONL transcript, tally and verdict against exp."""
    problems = []
    events = [json.loads(line) for line in text.splitlines()[1:]]
    board = {"pub-post": [], "priv-post": []}
    by_kind: dict[str, list] = {}
    for event in events:
        by_kind.setdefault(event["kind"], []).append(event["payload"])
        if event["kind"] in board:
            board[event["kind"]].append(event["payload"]["entry"])

    def latest(section, kind):
        found = [e for e in board[section] if isinstance(e, dict) and e.get("kind") == kind]
        return found[-1] if found else None

    p, g = GROUPS[exp.preset]
    pubkey = latest("pub-post", "pubkey")
    keys = by_kind.get("election-key", [])
    if pubkey is None or not keys:
        return ["transcript lacks the public key or the election key"]
    sk = keys[-1]["sk"]
    if pow(g, sk, p) != pubkey["h"]:
        problems.append("election key does not match the public key (g^sk != h)")

    shuffle = latest("priv-post", "shuffle")
    if shuffle is None:
        return problems + ["no shuffle on the private board"]
    opened = [_dlog(p, g, exp.bound, c2 * pow(c1, -sk, p) % p) for c1, c2 in shuffle["outputs"]]
    intents = Counter(exp.intents)
    if Counter(opened) != intents:
        problems.append(f"shuffle outputs open to {sorted(Counter(opened).items(), key=str)}, "
                        f"expected {sorted(intents.items())}")
    posted = latest("pub-post", "plaintexts")
    if posted is None or posted["values"] != opened:
        problems.append("posted plaintexts differ from the opened shuffle outputs")
    if dict(tally) != dict(intents):
        problems.append(f"tally {dict(tally)} != expected {dict(intents)}")

    patterns = "".join(exp.scripts.values())
    expected = (patterns.count("V"), patterns.count("C"), 0)
    seen = tuple(len(by_kind.get(kind, [])) for kind in ("cast", "check", "complaint"))
    if seen != expected:
        problems.append(f"(casts, checks, complaints) = {seen}, expected {expected}")
    for check in by_kind.get("check", []):
        if not check["matches"]:
            problems.append(f"check by voter {check['ssid'][0]} reads matches={check['matches']}")

    recorded = by_kind.get("verdict", [])
    if not recorded or (recorded[-1]["valid"], recorded[-1]["reason"]) != VALID:
        problems.append(f"recorded verdict {recorded[-1:]} is not valid")
    if tuple(verdict) != VALID:
        problems.append(f"returned verdict {tuple(verdict)} is not valid")
    return problems


def check_replay(recomputed, recorded) -> list[str]:
    if tuple(recomputed) != VALID or tuple(recorded) != VALID:
        return [f"replay gave {tuple(recomputed)}, recorded {tuple(recorded)}, expected valid"]
    return []


def check_attack(report, corrupted: int, trials: int, p_caught: float) -> list[str]:
    """The report's analytic figure must be exactly (1 - P_C)^k, and its
    empirical detection rate within four standard errors of 1 - (1 - P_C)^k."""
    problems = []
    undetected = (1.0 - p_caught) ** corrupted
    if not math.isclose(report.analytic_undetected, undetected, rel_tol=1e-12, abs_tol=1e-15):
        problems.append(f"analytic_undetected {report.analytic_undetected} != {undetected}")
    if report.trials != trials or report.detected_count != round(report.empirical_detected * trials):
        problems.append(f"report counts {report.detected_count}/{report.trials} do not add up")
    rate = 1.0 - undetected
    sigma = math.sqrt(rate * (1.0 - rate) / trials)
    if abs(report.empirical_detected - rate) > 4 * sigma:
        problems.append(f"detection rate {report.empirical_detected} is more than 4 sigma "
                        f"({sigma:.4f}) from {rate:.4f}")
    return problems
