"""Tests of the benchmark itself: its checks flag broken outputs, and the
tracer's counts and self times add up.

    python3 -m pytest bench
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import oracles  # noqa: E402
import workloads  # noqa: E402
from ivxvsim import adversary, ceremony, groups, shuffle  # noqa: E402
from tracer import Tracer  # noqa: E402

SMALL = dict(n_voters=4, n_trustees=3, threshold=2, candidate_bound=3, seed=11,
             intents=(0, 1, 2, 1), scripts={1: "VVC", 2: "VC", 3: "V", 4: "VV"})


def _expect(config):
    return oracles.Expectation(config.group_preset, config.candidate_bound, config.intents,
                               config.scripts)


def _run(**changes):
    config = ceremony.ElectionConfig(**dict(SMALL, **changes))
    result = ceremony.run_election(config)
    return config, result, result.transcript.to_jsonl()


def test_honest_election_passes():
    config, result, text = _run()
    assert oracles.check_election(_expect(config), text, result.tally, result.verdict) == []
    replayed = ceremony.audit_transcript(ceremony.ElectionTranscript.from_jsonl(text))
    assert oracles.check_replay(*replayed) == []


def test_tampered_plaintext_is_flagged():
    config, result, text = _run(tamper="tamper-plaintext")
    problems = oracles.check_election(_expect(config), text, result.tally, result.verdict)
    assert any("posted plaintexts" in p for p in problems)
    assert any(p.startswith("tally") for p in problems)


def test_altered_shuffle_output_is_flagged():
    config, result, text = _run()
    lines = text.splitlines()
    for i, line in enumerate(lines):
        event = json.loads(line)
        entry = event.get("payload", {}).get("entry")
        if isinstance(entry, dict) and entry.get("kind") == "shuffle":
            c1, c2 = entry["outputs"][0]
            entry["outputs"][0] = [c1, c2 * 2 % 23]   # one more g: the plaintext shifts
            lines[i] = json.dumps(event, sort_keys=True, separators=(",", ":"))
    altered = "\n".join(lines) + "\n"
    assert altered != text
    problems = oracles.check_election(_expect(config), altered, result.tally, result.verdict)
    assert any(p.startswith("shuffle outputs open to") for p in problems)


def test_replay_disagreement_is_flagged():
    assert oracles.check_replay((False, "decryption"), (True, None))


def test_attack_oracle():
    p_caught = oracles.caught_mass(oracles.read_table(workloads.TABLE_CSV))
    assert abs(p_caught - 0.04) < 1e-12
    config = ceremony.ElectionConfig(n_voters=2, n_trustees=3, threshold=2, candidate_bound=3)
    report = adversary.end_to_end_attack(config, adversary.ManipulationPolicy.always(), 2,
                                         trials=40, seed=5)
    assert oracles.check_attack(report, 2, 40, p_caught) == []
    never_caught = replace(report, trials=400, detected_count=0, empirical_detected=0.0)
    assert oracles.check_attack(never_caught, 2, 400, p_caught)
    wrong_analytic = replace(report, analytic_undetected=0.96)
    assert oracles.check_attack(wrong_analytic, 2, 40, p_caught)


def test_standard_modulus_matches_rfc3526():
    assert oracles.GROUPS["standard"][0] == groups.setup("standard", 2).p


def test_tracer_counts_repeat_and_self_times_add_up():
    config = ceremony.ElectionConfig(**SMALL)
    original = ceremony.prove_shuffle
    tracer = Tracer()
    rounds = []
    for _ in range(2):
        tracer.install()
        assert ceremony.prove_shuffle is shuffle.prove_shuffle is not original
        before = tracer.totals()
        with tracer.span("root"):
            ceremony.run_election(config)
        tracer.uninstall()
        after = tracer.totals()
        rounds.append({k: after[k] - before.get(k, 0) for k in after})
    assert ceremony.prove_shuffle is shuffle.prove_shuffle is original
    counts = [{k: v for k, v in r.items() if not k.endswith("_s")} for r in rounds]
    assert counts[0] == counts[1]
    assert counts[0]["root/shuffle.prove_shuffle.calls"] == 1
    assert counts[0]["root/shuffle.proof_bytes"] > 0
    assert all(k.startswith("root/") for k in counts[0])
    root = [s for s in tracer.dump()["spans"] if s[1] == "root"][-1]
    self_total = sum(v for k, v in rounds[-1].items() if k.endswith(".self_s"))
    assert abs(self_total - (root[3] - root[2])) < 1e-6


def test_totals_are_kept_apart_by_root_span():
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("first"):
            ceremony.run_election(ceremony.ElectionConfig(**SMALL))
        with tracer.span("second"):
            pass
    finally:
        tracer.uninstall()
    totals = tracer.totals()
    assert totals["first/ceremony.run_election.calls"] == 1
    assert totals["second/second.calls"] == 1
    assert {k for k in totals if k.startswith("second/")} == {"second/second.calls",
                                                              "second/second.self_s"}


def test_hostile_set_is_fixed_and_shows_the_fault():
    first = workloads.hostile_transcripts(100)
    assert first == workloads.hostile_transcripts(100)
    outcomes = [workloads.hostile_replay(text) for text in first]
    assert outcomes == [workloads.hostile_replay(text) for text in first]
    assert {"verdict", "ReplayError"} <= set(outcomes)
    assert set(outcomes) - {"verdict", "ReplayError"}
