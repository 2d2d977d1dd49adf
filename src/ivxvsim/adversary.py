"""Manipulation policies and the detection arithmetic around them.

A policy decides, from a voter's visible action history, whether the
next cast gets manipulated.  Walking a policy over a behavior pattern
gives one of three outcomes: the manipulated final ballot goes through
(success), a check catches it (caught), or the policy never touched the
final ballot (silent fail).

The same question is answered three ways so they can cross-check each
other: exact summation over the pattern distribution, brute-force
search over all policies, and Monte Carlo sampling; end_to_end_attack
closes the loop by running full cryptographic ceremonies.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from enum import Enum

from .behavior import BehaviorDistribution, default_distribution, read_csv, validate_pattern
from .ceremony import ElectionConfig, run_election
from .seeding import derive_seed, rng_for

# Enumeration guard: 2^16 policies is the most the brute-force search
# will walk through.
_MAX_HISTORIES = 16
_MAX_SEARCH_LEN = 8


class PolicyDomainError(KeyError):
    """History exceeds what the policy's table covers."""

    __str__ = Exception.__str__     # the message, without KeyError's quotes


class ManipulationPolicy:
    """Decision rule history -> manipulate?  Either a constant or a
    finite lookup table."""

    def __init__(self, name: str, table=None, constant=None):
        if (table is None) == (constant is None):
            raise ValueError("exactly one of table/constant")
        if table is not None:
            table = {self._check_history(h): bool(d) for h, d in table.items()}
        self.name = name
        self.table = table
        self.constant = constant if constant is None else bool(constant)

    @staticmethod
    def _check_history(history: str) -> str:
        # what a walk has seen before a cast: nothing yet, or a pattern
        return history if history == "" else validate_pattern(history)

    @classmethod
    def always(cls) -> "ManipulationPolicy":
        return cls("always", constant=True)

    @classmethod
    def never(cls) -> "ManipulationPolicy":
        return cls("never", constant=False)

    @classmethod
    def from_table(cls, table, name: str = "table") -> "ManipulationPolicy":
        return cls(name, table=dict(table))

    @classmethod
    def from_csv(cls, path) -> "ManipulationPolicy":
        table = {}
        for where, row in read_csv(path, ("history", "decision"), ValueError):
            decision = row["decision"].strip().upper()
            if decision not in ("M", "H"):
                raise ValueError(f"{where}: decision must be M or H")
            try:
                history = cls._check_history(row["history"].strip())
            except ValueError as exc:
                raise ValueError(f"{where}: history {exc}") from None
            if history in table:
                raise ValueError(f"{where}: duplicate history {history!r}")
            table[history] = decision == "M"
        return cls(f"csv:{path}", table=table)

    def decide(self, history: str) -> bool:
        if self.constant is not None:
            return self.constant
        try:
            return self.table[history]
        except KeyError:
            raise PolicyDomainError(
                f"history {history!r} exceeds the policy table") from None

    def describe(self) -> dict:
        return {"name": self.name, "constant": self.constant, "table": self.table}

    def __eq__(self, other):
        return (isinstance(other, ManipulationPolicy)
                and (self.constant, self.table) == (other.constant, other.table))

    def __repr__(self):
        return f"ManipulationPolicy({self.name!r})"


def policy_from_spec(text: str) -> ManipulationPolicy:
    """CLI shorthand: 'always', 'never', or a policy CSV path."""
    if not isinstance(text, str):   # an integer would open a file descriptor
        raise ValueError(f"policy must be 'always', 'never' or a CSV path, not {text!r}")
    if text == "always":
        return ManipulationPolicy.always()
    if text == "never":
        return ManipulationPolicy.never()
    return ManipulationPolicy.from_csv(text)


class AttackOutcome(Enum):
    SUCCESS = "success"
    CAUGHT = "caught"
    SILENT_FAIL = "silent-fail"


def simulate_policy_on_pattern(policy: ManipulationPolicy, pattern: str) -> AttackOutcome:
    """Walk one behavior pattern under a policy.

    At each V the policy sees the history so far and decides; each C
    checks the latest ballot, and a manipulated one means caught.  The
    attack succeeds iff the final ballot is manipulated uncaught."""
    validate_pattern(pattern)
    manipulated = False
    history = ""
    for action in pattern:
        if action == "V":
            manipulated = bool(policy.decide(history))
        elif manipulated:
            return AttackOutcome.CAUGHT
        history += action
    return AttackOutcome.SUCCESS if manipulated else AttackOutcome.SILENT_FAIL


def outcome_probabilities(policy: ManipulationPolicy,
                          distribution: BehaviorDistribution) -> dict[AttackOutcome, float]:
    """Exact probability of each outcome: the mass of the patterns that
    end in it, summed in the distribution's order."""
    mass = dict.fromkeys(AttackOutcome, 0.0)
    for pattern, prob in distribution.items():
        mass[simulate_policy_on_pattern(policy, pattern)] += prob
    return mass


def reachable_histories(distribution: BehaviorDistribution) -> tuple:
    """Histories on which some support pattern asks for a decision."""
    seen = {pattern[:j] for pattern in distribution.support()
            for j, action in enumerate(pattern) if action == "V"}
    return tuple(sorted(seen, key=lambda h: (len(h), h)))


def optimal_policy(distribution: BehaviorDistribution, max_len: int):
    """Exhaustive search over every policy on the reachable histories;
    returns (best policy, its success probability).

    Ties go to manipulating, so when always-manipulate is optimal it is
    the policy returned."""
    if max_len > _MAX_SEARCH_LEN:
        raise ValueError(f"max_len exceeded: limit is {_MAX_SEARCH_LEN}")
    if distribution.max_len() > max_len:
        raise ValueError(
            f"max_len exceeded: support has a pattern of length {distribution.max_len()}")
    histories = reachable_histories(distribution)
    if len(histories) > _MAX_HISTORIES:
        raise ValueError(f"{len(histories)} reachable histories is too many to enumerate")

    best_table = None
    best = -1.0
    # (True, True, ...) comes first and strict improvement keeps it on ties
    for decisions in itertools.product((True, False), repeat=len(histories)):
        table = dict(zip(histories, decisions))
        policy = ManipulationPolicy.from_table(table, name="candidate")
        score = outcome_probabilities(policy, distribution)[AttackOutcome.SUCCESS]
        if score > best:
            best = score
            best_table = table
    return ManipulationPolicy.from_table(best_table, name="brute-force-optimum"), best


def undetected_probability(p: float, k: int) -> float:
    """Chance that k independent manipulations all go unnoticed."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    if k < 0:
        raise ValueError("k must be non-negative")
    return p ** k


def detection_probability(p: float, k: int) -> float:
    return 1.0 - undetected_probability(p, k)


def monte_carlo_success(policy: ManipulationPolicy, distribution: BehaviorDistribution,
                        trials: int, seed: int):
    """Sampled estimate of the success probability with its binomial
    standard error."""
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = rng_for(seed, "mc")
    hits = 0
    for _ in range(trials):
        outcome = simulate_policy_on_pattern(policy, distribution.sample(rng))
        hits += outcome is AttackOutcome.SUCCESS
    estimate = hits / trials
    stderr = math.sqrt(estimate * (1.0 - estimate) / trials)
    return estimate, stderr


CSV_REPORT_HEADER = "k,p,analytic_undetected,empirical_detected,stderr"


@dataclass(frozen=True)
class AttackReport:
    k: int                      # corrupted voters per ceremony
    p: float                    # per-voter probability of not getting caught
    analytic_undetected: float  # p ** k
    empirical_detected: float   # fraction of ceremonies ending invalid(complaint)
    stderr: float
    trials: int
    detected_count: int
    survived_total: int         # manipulated final ballots their voter never caught

    def csv_row(self) -> str:
        return (f"{self.k},{self.p:.6f},{self.analytic_undetected:.6f},"
                f"{self.empirical_detected:.6f},{self.stderr:.6f}")


def end_to_end_attack(config: ElectionConfig, policy: ManipulationPolicy,
                      corrupted_count: int, trials: int = 1000,
                      seed=None) -> AttackReport:
    """Run full ceremonies with the first corrupted_count voters on
    corrupted devices and measure how often the audit ends
    invalid(complaint).

    The per-voter baseline p is the probability a manipulated voter
    does NOT catch the device, so the detection frequency should track
    1 - p^k.  A config that sets `scripts` or `tamper` is refused."""
    if corrupted_count < 0 or corrupted_count > config.n_voters:
        raise ValueError("corrupted count must be within the voter set")
    if trials < 1:
        raise ValueError("need at least one trial")
    if config.scripts is not None:
        raise ValueError("attack does not take the config's 'scripts': its analytic "
                         "estimate assumes voters drawn from the distribution")
    if config.tamper is not None:
        raise ValueError("attack does not take the config's 'tamper': it counts only "
                         "invalid(complaint) as detected")
    if seed is None:
        seed = config.seed
    dist = config.distribution if config.distribution is not None else default_distribution()
    p = 1.0 - outcome_probabilities(policy, dist)[AttackOutcome.CAUGHT]

    corrupted = tuple(range(1, corrupted_count + 1))
    detected_count = 0
    survived_total = 0
    for i in range(trials):
        trial_config = replace(config, seed=derive_seed(seed, "trial", i),
                               distribution=dist, corrupted=corrupted,
                               policy=policy if corrupted else None)
        transcript, _tally, verdict = run_election(trial_config)
        detected_count += (not verdict.valid) and verdict.reason == "complaint"

        last_manipulated: dict[int, bool] = {}
        complained = set()
        for event in transcript.events:
            if event["kind"] == "cast":
                last_manipulated[event["payload"]["ssid"][0]] = event["payload"]["manipulated"]
            elif event["kind"] == "complaint":
                complained.add(event["payload"]["ssid"][0])
        survived_total += sum(1 for v in corrupted
                              if last_manipulated.get(v) and v not in complained)

    empirical = detected_count / trials
    stderr = math.sqrt(empirical * (1.0 - empirical) / trials)
    return AttackReport(k=corrupted_count, p=p,
                        analytic_undetected=undetected_probability(p, corrupted_count),
                        empirical_detected=empirical, stderr=stderr, trials=trials,
                        detected_count=detected_count, survived_total=survived_total)
