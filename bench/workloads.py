"""The benchmark's workloads: their inputs, drawn from the workload seed,
and the round of operations each one repeats.

Every round of a run does the same operations on the same inputs, so
rounds are comparable, counts repeat exactly, and the share of failed
operations is the same in every run.  A round is, in order: one
`end_to_end_attack` batch, one `run_election`, the replay of its
transcript (serialize, parse, re-audit), and, on toy-ceremony, the
hostile replays.  The program is always called through module
attributes, so a round run under the tracer sees the wrapped functions.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import time
from dataclasses import dataclass
from pathlib import Path

from ivxvsim import adversary, behavior, ceremony

from oracles import Expectation, read_table

SRC = Path(__file__).resolve().parent.parent / "src"
TABLE_CSV = SRC / "ivxvsim" / "data" / "estonia_aggregate.csv"

TRUSTEES, THRESHOLD, CANDIDATES = 3, 2, 3
# Every election's devices are honest; every attack ceremony has two voters.
ATTACK_VOTERS = 2

# name -> group preset, voters, scripts ("table": drawn i.i.d. from the
# shipped behaviour table; a tuple: that multiset, dealt out by the seed),
# then the attack batch: its corrupted voters, the table each trial's
# voters sample their scripts from (None: the shipped one) and its
# trials, and the number of hostile replays.
SPECS = {
    # n^2 Fiat-Shamir hashing and proof (de)serialization in the election;
    # per-ceremony fixed costs in the attack batch of two-voter ceremonies,
    # both devices corrupted under always-manipulate
    "toy-ceremony": dict(preset="toy", voters=2000, scripts="table",
                         attack_corrupted=2, attack_table=None, trials=200, hostile=400),
    # 2048-bit exponentiation; re-votes and checks so encrypt,
    # trapdoor_decrypt and decrypt all run.  The attack ceremony is honest
    # and its voters always draw a single vote, so its work does not
    # depend on the seed.
    "standard-ceremony": dict(preset="standard", voters=3, scripts=("VVC", "VC", "VV"),
                              attack_corrupted=0, attack_table={"V": 1.0}, trials=1,
                              hostile=0),
}

# The hostile replays mutate one transcript that does not depend on the
# workload seed, with a generator of its own, so every run replays the
# same mutations and fails the same ones.
HOSTILE_CONFIG = dict(n_voters=5, n_trustees=TRUSTEES, threshold=THRESHOLD,
                      candidate_bound=CANDIDATES, seed=20210905,
                      scripts={1: "VVC", 2: "VC", 3: "VV"})
HOSTILE_SEED = "bench/hostile-v1"
DELETE = object()


@dataclass(frozen=True)
class Plan:
    seed: int
    election: ceremony.ElectionConfig
    expect: Expectation
    attack: ceremony.ElectionConfig
    attack_corrupted: int
    trials: int
    hostile: tuple[str, ...]

    @property
    def operations(self) -> int:
        """Operations one round attempts: election, replay, each attack
        trial and each hostile replay."""
        return 2 + self.trials + len(self.hostile)


def _draw_scripts(spec, rng: random.Random) -> dict:
    voters = spec["voters"]
    if spec["scripts"] == "table":
        table = read_table(TABLE_CSV)
        patterns = [pattern for pattern, _ in table]
        weights = [prob for _, prob in table]
        drawn = rng.choices(patterns, weights, k=voters)
    else:
        drawn = list(spec["scripts"])
        rng.shuffle(drawn)
    return {voter: script for voter, script in enumerate(drawn, start=1)}


def build_plan(name: str, seed: int) -> Plan:
    spec = SPECS[name]
    rng = random.Random(f"bench/{name}/{seed}")
    voters = spec["voters"]
    intents = tuple(rng.randrange(CANDIDATES) for _ in range(voters))
    scripts = _draw_scripts(spec, rng)
    election = ceremony.ElectionConfig(
        n_voters=voters, n_trustees=TRUSTEES, threshold=THRESHOLD,
        candidate_bound=CANDIDATES, group_preset=spec["preset"], seed=seed,
        intents=intents, scripts=scripts)
    expect = Expectation(spec["preset"], CANDIDATES, intents, scripts)
    table = spec["attack_table"]
    attack = ceremony.ElectionConfig(
        n_voters=ATTACK_VOTERS, n_trustees=TRUSTEES, threshold=THRESHOLD,
        candidate_bound=CANDIDATES, group_preset=spec["preset"], seed=seed,
        distribution=None if table is None else behavior.load_distribution(table))
    hostile = hostile_transcripts(spec["hostile"]) if spec["hostile"] else ()
    return Plan(seed, election, expect, attack, spec["attack_corrupted"],
                spec["trials"], hostile)


def _replacements(value) -> list:
    menu = [DELETE, None, True, "x", -1, 0, [], {}]
    if isinstance(value, bool):
        menu.append(not value)
    elif isinstance(value, int):
        menu += [value + 1, value - 1, str(value)]
    elif isinstance(value, str):
        menu += [value + "x", value[:-1]]
    elif isinstance(value, list) and value:
        menu += [value[:-1], value + value[-1:]]
    return menu


def hostile_transcripts(count: int) -> tuple[str, ...]:
    """`count` distinct single-field mutations of a small toy transcript:
    one value somewhere in one line is replaced, or its key deleted."""
    text = ceremony.run_election(ceremony.ElectionConfig(**HOSTILE_CONFIG)).transcript.to_jsonl()
    lines = text.splitlines()
    docs = [json.loads(line) for line in lines]
    fields = []   # (line index, path to the value)

    def walk(node, line, path):
        if path:
            fields.append((line, path))
        items = sorted(node.items()) if isinstance(node, dict) else (
            enumerate(node) if isinstance(node, list) else ())
        for key, child in items:
            walk(child, line, path + (key,))

    for line, doc in enumerate(docs):
        walk(doc, line, ())
    rng = random.Random(HOSTILE_SEED)
    out: dict[str, None] = {}
    while len(out) < count:
        line, path = rng.choice(fields)
        doc = json.loads(lines[line])
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        replacement = rng.choice(_replacements(parent[path[-1]]))
        if replacement is DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = replacement
        dumped = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        mutated = "\n".join(lines[:line] + [dumped] + lines[line + 1:]) + "\n"
        if mutated != text:
            out[mutated] = None
    return tuple(out)


def hostile_replay(text: str) -> str:
    """Replay one hostile transcript; the outcome is "verdict",
    "ReplayError", or the name of any other exception, which is a failure."""
    try:
        ceremony.audit_transcript(ceremony.ElectionTranscript.from_jsonl(text))
    except ceremony.ReplayError:
        return "ReplayError"
    except Exception as exc:   # the failure being counted, whatever its type
        return type(exc).__name__
    return "verdict"


@dataclass
class Round:
    election_s: float
    replay_s: float
    attack_s: float
    round_s: float
    result: ceremony.ElectionResult
    text: str
    sha256: str
    transcript_bytes: int
    replay: tuple
    report: adversary.AttackReport
    hostile: tuple[str, ...]


def _replay(transcript) -> tuple:
    text = transcript.to_jsonl()
    return text, ceremony.audit_transcript(ceremony.ElectionTranscript.from_jsonl(text))


def run_round(plan: Plan, span) -> Round:
    """One round; `span(name)` is a context manager around each operation.

    Each operation starts after a full garbage collection, so that it does
    not pay for collecting what the one before it left behind.  The attack
    batch goes first, while no ceremony of this round is alive: a full
    collection during the batch would otherwise walk a 2000-voter
    transcript."""
    def timed(name, operation):
        gc.collect()
        start = time.perf_counter()
        with span(name):
            value = operation()
        return value, time.perf_counter() - start

    report, attack_s = timed("bench.attack", lambda: adversary.end_to_end_attack(
        plan.attack, adversary.ManipulationPolicy.always(), plan.attack_corrupted,
        trials=plan.trials, seed=plan.seed))
    result, election_s = timed("bench.election", lambda: ceremony.run_election(plan.election))
    (text, replay), replay_s = timed("bench.replay", lambda: _replay(result.transcript))
    hostile, hostile_s = timed("bench.hostile",
                               lambda: tuple(hostile_replay(blob) for blob in plan.hostile))
    data = text.encode()
    return Round(election_s=election_s, replay_s=replay_s, attack_s=attack_s,
                 round_s=attack_s + election_s + replay_s + hostile_s,
                 result=result, text=text, sha256=hashlib.sha256(data).hexdigest(),
                 transcript_bytes=len(data), replay=replay, report=report, hostile=hostile)
