"""Replay of hostile transcripts: every single-field mutation of a stored
transcript must end in a verdict or a ReplayError, never another
exception, and a valid verdict must certify the run's own tally."""

import json
import random
from collections import Counter

import pytest

from ivxvsim.ceremony import (ElectionConfig, ElectionTranscript, ReplayError,
                              audit_transcript, run_election)
from ivxvsim.functionalities import latest_entry

DELETE = object()
MUTATIONS = 500


def replacements(value) -> list:
    menu = [DELETE, None, True, False, "x", -1, 0, [], {}]
    if type(value) is int:
        menu += [value + 1, value - 1]
    return menu


def paths(node, prefix=()):
    """Every key path below a parsed JSON line."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from paths(child, prefix + (key,))


def every_mutation(lines):
    """(line index, path, replacement) for every single-field mutation."""
    for index, line in enumerate(lines):
        doc = json.loads(line)
        for path in paths(doc):
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            for replacement in replacements(parent[path[-1]]):
                yield index, path, replacement


def mutate(line: str, path, replacement) -> str:
    doc = json.loads(line)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if replacement is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = replacement
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def replay_outcome(text: str) -> str:
    try:
        audit_transcript(ElectionTranscript.from_jsonl(text))
    except ReplayError:
        return "ReplayError"
    return "verdict"


@pytest.fixture(scope="module")
def transcript_lines():
    config = ElectionConfig(n_voters=5, n_trustees=3, threshold=2, candidate_bound=3,
                            seed=11, scripts={1: "VVC", 2: "VC", 3: "VV"})
    return run_election(config).transcript.to_jsonl().splitlines()


@pytest.fixture(scope="module")
def mid_lines():
    # the 387-bit group, whose shuffle proof carries 128-bit challenges and
    # integer responses, as the standard group's does
    config = ElectionConfig(n_voters=4, n_trustees=3, threshold=2, candidate_bound=3, seed=12,
                            group_preset="mid", scripts={1: "VVC", 2: "VC"})
    return run_election(config).transcript.to_jsonl().splitlines()


def test_single_field_mutations_end_in_verdict_or_replay_error(transcript_lines):
    candidates = list(every_mutation(transcript_lines))
    rng = random.Random("hostile-transcripts")
    chosen = rng.sample(candidates, MUTATIONS)
    outcomes = {"verdict": 0, "ReplayError": 0}
    for index, path, replacement in chosen:
        lines = list(transcript_lines)
        lines[index] = mutate(lines[index], path, replacement)
        # any exception other than ReplayError fails the test here
        outcomes[replay_outcome("\n".join(lines) + "\n")] += 1
    assert sum(outcomes.values()) == MUTATIONS >= 300
    assert outcomes["verdict"] > 0 and outcomes["ReplayError"] > 0


def with_manifest_field(lines, field, value) -> str:
    head = json.loads(lines[0])
    head["manifest"][field] = value
    return "\n".join([json.dumps(head)] + lines[1:]) + "\n"


@pytest.mark.parametrize("field, value", [
    ("n_voters", True), ("n_voters", 0), ("group_preset", ["toy"]),
    ("group_preset", "huge"), ("candidate_bound", 10**6), ("sid", {}),
])
def test_malformed_manifest_field_is_named(transcript_lines, field, value):
    text = with_manifest_field(transcript_lines, field, value)
    with pytest.raises(ReplayError, match=field):
        audit_transcript(ElectionTranscript.from_jsonl(text))


def test_inflated_voter_count_is_a_verdict(transcript_lines):
    # answered from the shuffle's length, without a list per claimed voter
    text = with_manifest_field(transcript_lines, "n_voters", 10**12)
    recomputed, _ = audit_transcript(ElectionTranscript.from_jsonl(text))
    assert recomputed.reason == "last-ballot-mismatch"


def test_registry_message_outside_ascii_is_a_replay_error(transcript_lines):
    lines = list(transcript_lines)
    for index, line in enumerate(lines):
        event = json.loads(line)
        if event.get("kind") == "registry-dump":
            event["payload"]["rows"][0][1] = "\ud800"
            lines[index] = json.dumps(event)
    with pytest.raises(ReplayError, match="rows"):
        audit_transcript(ElectionTranscript.from_jsonl("\n".join(lines) + "\n"))


def test_single_field_mutations_of_a_mid_group_transcript(mid_lines):
    lines = mid_lines
    rng = random.Random("hostile-mid-transcripts")
    outcomes = {"verdict": 0, "ReplayError": 0}
    for _ in range(200):
        index = rng.randrange(len(lines))
        doc = json.loads(lines[index])
        path = rng.choice(list(paths(doc)))
        value = doc
        for key in path:
            value = value[key]
        edited = list(lines)
        edited[index] = mutate(lines[index], path, rng.choice(replacements(value)))
        outcomes[replay_outcome("\n".join(edited) + "\n")] += 1
    assert outcomes["verdict"] > 0 and outcomes["ReplayError"] > 0


def posted_tally(transcript: ElectionTranscript) -> dict:
    entries = [e["payload"]["entry"] for e in transcript.events_of("pub-post")]
    return latest_entry(entries, "tally")["counts"]


@pytest.mark.parametrize("lines_fixture", ["transcript_lines", "mid_lines"], ids=["toy", "mid"])
def test_a_valid_replay_after_any_single_field_mutation_posts_the_run_tally(lines_fixture,
                                                                            request):
    lines = request.getfixturevalue(lines_fixture)
    expected = posted_tally(ElectionTranscript.from_jsonl("\n".join(lines) + "\n"))
    outcomes = Counter()
    for index, path, replacement in every_mutation(lines):
        edited = list(lines)
        edited[index] = mutate(lines[index], path, replacement)
        try:
            transcript = ElectionTranscript.from_jsonl("\n".join(edited) + "\n")
            recomputed, _ = audit_transcript(transcript)
        except ReplayError:
            outcomes["ReplayError"] += 1
            continue
        outcomes[recomputed.reason or "valid"] += 1
        if recomputed.valid:
            assert posted_tally(transcript) == expected, (index, path, replacement)
    assert outcomes["valid"] and outcomes["tally"] and outcomes["decryption"], outcomes


# JSON that json.loads cannot turn into a value although its syntax is
# right: an integer past the interpreter's 4300-digit conversion limit,
# and arrays nested far deeper than its recursion limit.
UNPARSABLE_JSON = {"long-integer": "1" * 5000, "deep-nesting": "[" * 100_000 + "]" * 100_000}


@pytest.mark.parametrize("probe", UNPARSABLE_JSON)
def test_unparsable_json_is_a_replay_error(transcript_lines, probe):
    text = UNPARSABLE_JSON[probe]
    for lines in ([text, *transcript_lines[1:]],                       # as the manifest
                  [*transcript_lines[:3], text, *transcript_lines[3:]]):   # as an event
        with pytest.raises(ReplayError):
            ElectionTranscript.from_jsonl("\n".join(lines) + "\n")
