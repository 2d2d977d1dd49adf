"""Manipulation policies, detection math, and attack estimation."""

import dataclasses
import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from ivxvsim.adversary import (
    AttackOutcome,
    AttackReport,
    CSV_REPORT_HEADER,
    ManipulationPolicy,
    PolicyDomainError,
    detection_probability,
    end_to_end_attack,
    monte_carlo_success,
    optimal_policy,
    outcome_probabilities,
    policy_from_spec,
    reachable_histories,
    simulate_policy_on_pattern,
    undetected_probability,
)
from ivxvsim.behavior import MAX_PATTERN_LEN, BehaviorDistribution, default_distribution
from ivxvsim.ceremony import ElectionConfig


# ----------------------------------------------------------------- policies

def test_constant_policies():
    always = ManipulationPolicy.always()
    never = ManipulationPolicy.never()
    for h in ("", "V", "VC", "VVVVVVVV"):
        assert always.decide(h) is True
        assert never.decide(h) is False


def test_a_policy_is_a_table_or_a_constant():
    for kwargs in (dict(table={"": True}, constant=True), dict()):
        with pytest.raises(ValueError, match="exactly one of table/constant"):
            ManipulationPolicy("both-or-neither", **kwargs)


def test_table_policy_and_domain_error():
    p = ManipulationPolicy.from_table({"": True, "V": False})
    assert p.decide("") is True
    assert p.decide("V") is False
    with pytest.raises(PolicyDomainError):
        p.decide("VV")


def test_table_policy_validates_histories():
    # a history is what a walk has seen before a cast: empty, or a pattern
    for history in ("X", "C", "CV", "V" * 257):
        with pytest.raises(ValueError):
            ManipulationPolicy.from_table({history: True})
    assert ManipulationPolicy.from_table({"": True, "V": False}).table == {"": True, "V": False}


def test_policy_from_csv(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("history,decision\n,M\nV,H\nVC,M\n")
    p = ManipulationPolicy.from_csv(str(path))
    assert p.decide("") is True
    assert p.decide("V") is False
    assert p.decide("VC") is True
    bad = tmp_path / "bad.csv"
    bad.write_text("history,decision\n,Q\n")
    with pytest.raises(ValueError):
        ManipulationPolicy.from_csv(str(bad))
    # a repeated history is rejected, not overwritten by its last row
    dup = tmp_path / "dup.csv"
    dup.write_text("history,decision\n,M\nV,M\nVV,M\n,H\n")
    with pytest.raises(ValueError, match=r"dup\.csv:5: duplicate history ''$"):
        ManipulationPolicy.from_csv(str(dup))
    # an error names the line on which its row ends, past a field spanning lines
    bad.write_text('history,decision\n"V\n\n",M\nVC,Q\n')
    with pytest.raises(ValueError, match=r"bad\.csv:5: decision must be M or H$"):
        ManipulationPolicy.from_csv(str(bad))
    bad.write_text('history,decision\n,M\nCV,H\n')
    with pytest.raises(ValueError, match=r"bad\.csv:3: history .*'CV' must start with V$"):
        ManipulationPolicy.from_csv(str(bad))


def test_a_policy_csv_that_is_not_utf8_names_the_file(tmp_path):
    path = tmp_path / "p.csv"
    path.write_bytes(b"history,decision\n,M\nV\xff,H\n")
    with pytest.raises(ValueError) as info:
        ManipulationPolicy.from_csv(str(path))
    assert str(info.value).startswith(f"{path}: 'utf-8' codec can't decode byte 0xff")


def test_policy_from_spec(tmp_path):
    assert policy_from_spec("always") == ManipulationPolicy.always()
    assert policy_from_spec("never") == ManipulationPolicy.never()
    path = tmp_path / "p.csv"
    path.write_text("history,decision\n,M\n")
    assert policy_from_spec(str(path)).decide("") is True


def test_policy_describe_roundtrips_enough_to_compare():
    p = ManipulationPolicy.from_table({"": False, "V": True})
    d = p.describe()
    assert d["table"] == {"": False, "V": True}
    assert ManipulationPolicy.always().describe()["constant"] is True


# ------------------------------------------------------------- simulation

def test_simulate_always_on_simple_patterns():
    always = ManipulationPolicy.always()
    assert simulate_policy_on_pattern(always, "V") is AttackOutcome.SUCCESS
    assert simulate_policy_on_pattern(always, "VV") is AttackOutcome.SUCCESS
    assert simulate_policy_on_pattern(always, "VC") is AttackOutcome.CAUGHT
    assert simulate_policy_on_pattern(always, "VVC") is AttackOutcome.CAUGHT


def test_simulate_never_is_silent():
    never = ManipulationPolicy.never()
    for pat in ("V", "VV", "VC", "VVC", "VVV"):
        assert simulate_policy_on_pattern(never, pat) is AttackOutcome.SILENT_FAIL


def test_simulate_waiting_policy_survives_a_check():
    # Stay honest through the check, then manipulate the re-vote.
    p = ManipulationPolicy.from_table({"": False, "VC": True})
    assert simulate_policy_on_pattern(p, "VCV") is AttackOutcome.SUCCESS
    assert simulate_policy_on_pattern(p, "VC") is AttackOutcome.SILENT_FAIL


def test_simulate_rejects_bad_patterns():
    with pytest.raises(ValueError):
        simulate_policy_on_pattern(ManipulationPolicy.always(), "CV")


# ---------------------------------------------------------- analytic math

def success(policy, distribution):
    return outcome_probabilities(policy, distribution)[AttackOutcome.SUCCESS]


def test_analytic_success_default_distribution():
    v = success(ManipulationPolicy.always(), default_distribution())
    assert abs(v - 0.96) < 1e-12


def test_analytic_success_edge_policies():
    d = default_distribution()
    assert success(ManipulationPolicy.never(), d) == 0.0
    assert success(ManipulationPolicy.always(), BehaviorDistribution({"V": 1.0})) == 1.0


def test_caught_probability_complements_success_for_always():
    d = default_distribution()
    mass = outcome_probabilities(ManipulationPolicy.always(), d)
    assert mass[AttackOutcome.CAUGHT] == pytest.approx(0.04)
    assert mass[AttackOutcome.CAUGHT] + mass[AttackOutcome.SUCCESS] == pytest.approx(1.0)
    assert mass[AttackOutcome.SILENT_FAIL] == 0.0
    never = outcome_probabilities(ManipulationPolicy.never(), d)
    assert never[AttackOutcome.SILENT_FAIL] == 1.0


def test_reachable_histories_default():
    hs = reachable_histories(default_distribution())
    assert hs == ("", "V", "VV")  # decisions happen before each V


def test_paper_figures_on_the_shipped_table():
    # manipulating the first vote only, the first two, and every one: the
    # paper's "about 94%", "about 95.5%" and 96%
    d = default_distribution()
    first = ManipulationPolicy.from_table({"": True, "V": False, "VV": False})
    first_two = ManipulationPolicy.from_table({"": True, "V": True, "VV": False})
    assert success(first, d) == 0.94
    assert success(first_two, d) == 0.955
    assert success(ManipulationPolicy.always(), d) == 0.96


# ---------------------------------------------------------- optimal policy

def brute_force_optimum(distribution):
    """Reference search: every decision table on the reachable histories,
    scored by its exact success mass, with all-manipulate first so that
    strict improvement keeps it on ties.  Returns the best table and its
    success probability."""
    histories = reachable_histories(distribution)
    best_table, best = None, -1
    for decisions in itertools.product((True, False), repeat=len(histories)):
        table = dict(zip(histories, decisions))
        policy = ManipulationPolicy.from_table(table)
        score = sum(Fraction(prob) for pattern, prob in distribution.items()
                    if simulate_policy_on_pattern(policy, pattern) is AttackOutcome.SUCCESS)
        if score > best:
            best_table, best = table, score
    return best_table, success(ManipulationPolicy.from_table(best_table), distribution)


def random_patterns(rng, count, lengths):
    """`count` draws of a pattern whose length is drawn from `lengths`."""
    return {"V" + "".join(rng.choice("VC") for _ in range(rng.choice(lengths) - 1))
            for _ in range(count)}


def weighted(rng, patterns):
    """A distribution over `patterns`; half the time with small integer
    weights, so that exact ties between policies occur."""
    patterns = sorted(patterns)
    if rng.random() < 0.5:
        weights = [rng.randrange(1, 4) for _ in patterns]
    else:
        weights = [rng.random() for _ in patterns]
    total = sum(weights)
    entries = {p: w / total for p, w in zip(patterns, weights)}
    entries[patterns[0]] += 1.0 - sum(entries.values())
    return BehaviorDistribution(entries)


def test_optimal_policy_matches_brute_force_on_random_supports():
    rng = random.Random(2026)
    checked = 0
    while checked < 1000:
        d = weighted(rng, random_patterns(rng, rng.randrange(1, 9), range(1, 6)))
        if len(reachable_histories(d)) > 16:
            continue
        table, value = brute_force_optimum(d)
        policy, best = optimal_policy(d, 5)
        assert (policy.table, best) == (table, value), dict(d.items())
        checked += 1


def test_optimal_policy_compares_exact_masses():
    # manipulating the first vote wins 0.3 and waiting wins 0.1 + 0.2: as
    # exact fractions of the stored floats waiting is ahead, in either order
    for entries in ((("V", 0.3), ("VV", 0.4), ("VCV", 0.1), ("VCVV", 0.2)),
                    (("VCV", 0.1), ("VCVV", 0.2), ("V", 0.3), ("VV", 0.4))):
        policy, _ = optimal_policy(BehaviorDistribution(entries), 4)
        assert policy.table == {"": False, "V": True, "VC": True, "VCV": True}
    # at "V", 0.11 against 0.1 + 0.01: the float sum ties, but the stored
    # masses of waiting are 3 * 2**-59 ahead, so waiting is the optimum
    d = BehaviorDistribution({"V": 0.78, "VV": 0.11, "VVCV": 0.1, "VVCVV": 0.01})
    policy, value = optimal_policy(d, 5)
    assert policy.table == {"": True, "V": False, "VVC": True, "VVCV": True}
    assert brute_force_optimum(d) == (policy.table, value) and value == 0.89


def test_optimal_policy_manipulates_past_a_caught_ballot():
    # manipulating the first vote is optimal, so no walk gets past "VC";
    # waiting at "VCV" would be best there, but such histories decide nothing
    d = BehaviorDistribution({"V": 0.6, "VCVV": 0.1, "VCVVCV": 0.3})
    policy, value = optimal_policy(d, 6)
    assert policy.table == dict.fromkeys(("", "VC", "VCV", "VCVVC"), True)
    assert brute_force_optimum(d) == (policy.table, value) and value == 0.6


def test_optimal_policy_at_the_pattern_cap():
    rng = random.Random(50)
    d = weighted(rng, random_patterns(rng, 50, [MAX_PATTERN_LEN]))
    assert len(d) == 50 and d.max_len() == MAX_PATTERN_LEN
    t0 = time.perf_counter()
    policy, value = optimal_policy(d, MAX_PATTERN_LEN)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    assert set(policy.table) == set(reachable_histories(d))
    assert value == success(policy, d)


def test_optimal_policy_default_distribution():
    policy, value = optimal_policy(default_distribution(), 4)
    assert value == pytest.approx(0.96, abs=1e-12)
    # ties resolve to manipulating everywhere
    assert all(policy.decide(h) for h in reachable_histories(default_distribution()))


def test_optimal_policy_simple_cases():
    _, v = optimal_policy(BehaviorDistribution({"V": 0.5, "VC": 0.5}), 4)
    assert v == pytest.approx(0.5)
    _, v = optimal_policy(BehaviorDistribution({"VC": 1.0}), 4)
    assert v == 0.0


def test_optimal_policy_guards():
    # no cap on max_len beyond the support's own: the optimum is unchanged
    assert optimal_policy(default_distribution(), 9)[1] == 0.96
    long_pattern = BehaviorDistribution({"V" * 6: 1.0})
    with pytest.raises(ValueError):
        optimal_policy(long_pattern, 4)  # support longer than maxLen


def test_optimal_policy_can_beat_always_by_waiting():
    # With enough mass on check-then-revote patterns, patience wins.
    d = BehaviorDistribution({"V": 0.25, "VC": 0.2, "VCVV": 0.55})
    policy, value = optimal_policy(d, 4)
    assert success(ManipulationPolicy.always(), d) == pytest.approx(0.25)
    assert value == pytest.approx(0.55)
    assert policy.decide("") is False
    assert policy.decide("VCV") is True


def test_optimal_matches_always_on_terminal_check_family():
    # For supports shaped like V-runs with an optional final check, each
    # decision contributes independently, so manipulating everywhere is
    # optimal; the brute force must agree with the analytic value.
    rng = random.Random(123)
    for _ in range(40):
        patterns = set()
        for _ in range(rng.randrange(1, 7)):
            run = "V" * rng.randrange(1, 4)
            patterns.add(run if rng.random() < 0.5 else run + "C")
        patterns = sorted(patterns)
        weights = [rng.random() for _ in patterns]
        total = sum(weights)
        entries = {p: w / total for p, w in zip(patterns, weights)}
        entries[patterns[0]] += 1.0 - sum(entries.values())
        d = BehaviorDistribution(entries)
        _, best = optimal_policy(d, 4)
        always_value = success(ManipulationPolicy.always(), d)
        assert best == pytest.approx(always_value, abs=1e-12), entries


def test_optimal_never_below_always():
    rng = random.Random(321)
    alphabet_patterns = ["V", "VV", "VC", "VCV", "VVC", "VVV", "VCVV", "VVCV"]
    for _ in range(30):
        chosen = rng.sample(alphabet_patterns, rng.randrange(1, 6))
        weights = [rng.random() for _ in chosen]
        total = sum(weights)
        entries = {p: w / total for p, w in zip(chosen, weights)}
        entries[chosen[0]] += 1.0 - sum(entries.values())
        d = BehaviorDistribution(entries)
        _, best = optimal_policy(d, 4)
        assert best >= success(ManipulationPolicy.always(), d) - 1e-12


# ------------------------------------------------------------ scale curves

def test_undetected_probability_values():
    assert undetected_probability(0.96, 0) == 1.0
    assert undetected_probability(0.96, 1) == 0.96
    assert abs(undetected_probability(0.96, 100) - 0.016870) < 1e-6
    assert abs(undetected_probability(0.96, 200) - 0.000285) < 1e-6


def test_undetected_probability_validation():
    with pytest.raises(ValueError):
        undetected_probability(1.5, 10)
    with pytest.raises(ValueError):
        undetected_probability(0.9, -1)


def test_detection_probability_monotonicity():
    ks = [0, 1, 5, 20, 100, 200]
    dets = [detection_probability(0.96, k) for k in ks]
    assert dets == sorted(dets)
    ps = [0.5, 0.9, 0.96, 0.99]
    at_k = [detection_probability(p, 50) for p in ps]
    assert at_k == sorted(at_k, reverse=True)
    assert detection_probability(0.96, 100) == pytest.approx(1 - 0.96 ** 100)


# ------------------------------------------------------------- monte carlo

def test_monte_carlo_matches_analytic():
    d = default_distribution()
    est, stderr = monte_carlo_success(ManipulationPolicy.always(), d,
                                      trials=100_000, seed=17)
    assert stderr < 0.001
    assert abs(est - 0.96) <= 4 * stderr


def test_monte_carlo_deterministic_per_seed():
    d = default_distribution()
    a = monte_carlo_success(ManipulationPolicy.always(), d, trials=2000, seed=5)
    b = monte_carlo_success(ManipulationPolicy.always(), d, trials=2000, seed=5)
    assert a == b


def test_monte_carlo_needs_a_trial():
    with pytest.raises(ValueError, match="at least one trial"):
        monte_carlo_success(ManipulationPolicy.always(), default_distribution(),
                            trials=0, seed=5)


def test_monte_carlo_never_policy():
    est, _ = monte_carlo_success(ManipulationPolicy.never(),
                                 default_distribution(), trials=2000, seed=5)
    assert est == 0.0


# ------------------------------------------------------------- full attack

def attack_cfg(n_voters=2):
    return ElectionConfig(n_voters=n_voters, n_trustees=3, threshold=2,
                          candidate_bound=3, seed=0)


def test_end_to_end_attack_detection_rate():
    report = end_to_end_attack(attack_cfg(), ManipulationPolicy.always(),
                               corrupted_count=1, trials=400, seed=2024)
    assert report.k == 1
    assert report.p == pytest.approx(0.96)
    assert report.analytic_undetected == pytest.approx(0.96)
    se = max(report.stderr, math.sqrt(0.04 * 0.96 / report.trials))
    assert abs(report.empirical_detected - 0.04) <= 4 * se
    # under always-manipulate every undetected trial keeps its manipulation
    assert report.survived_total == report.trials - report.detected_count


def test_end_to_end_attack_no_corruption_detects_nothing():
    report = end_to_end_attack(attack_cfg(), ManipulationPolicy.always(),
                               corrupted_count=0, trials=50, seed=1)
    assert report.empirical_detected == 0.0
    assert report.survived_total == 0
    assert report.analytic_undetected == 1.0


def test_end_to_end_attack_never_policy_is_silent():
    report = end_to_end_attack(attack_cfg(), ManipulationPolicy.never(),
                               corrupted_count=1, trials=50, seed=1)
    assert report.empirical_detected == 0.0
    assert report.survived_total == 0


def test_end_to_end_attack_seed_defaults_to_the_configs():
    config = dataclasses.replace(attack_cfg(), seed=11)
    policy = ManipulationPolicy.always()
    assert end_to_end_attack(config, policy, corrupted_count=1, trials=5) == \
        end_to_end_attack(config, policy, corrupted_count=1, trials=5, seed=11)


def test_end_to_end_attack_argument_validation():
    with pytest.raises(ValueError):
        end_to_end_attack(attack_cfg(), ManipulationPolicy.always(),
                          corrupted_count=5, trials=10, seed=1)
    with pytest.raises(ValueError):
        end_to_end_attack(attack_cfg(), ManipulationPolicy.always(),
                          corrupted_count=1, trials=0, seed=1)
    # forced scripts break the analytic estimate, and a tamper makes every
    # trial invalid for a reason the attack does not count as detected
    for name, value in (("scripts", {1: "VC", 2: "VC"}), ("tamper", "tamper-plaintext")):
        config = dataclasses.replace(attack_cfg(), **{name: value})
        with pytest.raises(ValueError, match=f"'{name}'"):
            end_to_end_attack(config, ManipulationPolicy.always(),
                              corrupted_count=1, trials=20, seed=1)


def test_attack_report_csv_row():
    report = AttackReport(k=1, p=0.96, analytic_undetected=0.96,
                          empirical_detected=0.0425, stderr=0.0064,
                          trials=1000, detected_count=42, survived_total=958)
    assert CSV_REPORT_HEADER.startswith("k,p,")
    row = report.csv_row()
    fields = row.split(",")
    assert fields[0] == "1"
    assert float(fields[1]) == 0.96
    assert len(fields) == len(CSV_REPORT_HEADER.split(","))
