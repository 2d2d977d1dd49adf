"""Pinned transcript digests: a guard against silent value changes.

A change that should compute the same numbers faster (cheaper
membership tests, exponentiation tables, multi-exponentiation) must
leave every transcript byte-identical.  The digests below were first recorded
before the group arithmetic was optimised; a change that moves one of
them changed a value, and must say why beside it.
"""

import hashlib

import pytest

from ivxvsim.ceremony import ElectionConfig, run_election

PINNED = {
    # toy group, 8 voters, re-votes and checks (re-pinned when board posts
    # dropped their board_seq field, so a post's position is its event's
    # seq alone; and again when the shuffle hashed each challenge phase
    # once over all 20 repetitions, with toy challenges cut from the
    # stream by exact rejection sampling, which changes every toy
    # challenge and so the proof's responses and later commitments, but
    # not its length; and again when every draw moved from random.Random
    # to seeding's SHAKE-256 streams, which changes every drawn value, and
    # the proof moved from hex to base64)
    "toy": (dict(n_voters=8, n_trustees=3, threshold=2, candidate_bound=3, seed=11,
                 scripts={1: "VVC", 2: "VC", 3: "VV", 4: "VCV"}),
            "e6e6e5c41c0b48ad674d767a424b34a95d8cf938c3ba14629da46aa7d48d43c5"),
    # 387-bit group, 6 voters: the smallest large group, on the standard
    # group's code with integer s' responses (re-pinned when mid moved
    # from a 256-bit prime to this one, again when board posts dropped
    # their board_seq field, and again when every draw moved to seeding's
    # SHAKE-256 streams, scalars reduced from |q| + 64 bits, and the proof
    # to base64)
    "mid": (dict(n_voters=6, n_trustees=3, threshold=2, candidate_bound=3, seed=5,
                 group_preset="mid", scripts={1: "VVC", 2: "VC", 3: "VCV"}),
            "0bd72990a353698b69ab227ad46b773eccd07bbc63169637eed0cf3a7d855019"),
    # 2048-bit group, 2 voters, one of whom re-votes (re-pinned when board
    # posts dropped their board_seq field, every other byte unchanged; and
    # again when every draw moved to seeding's SHAKE-256 streams, which
    # changes every drawn value, and the proof moved from hex to base64)
    "standard": (dict(n_voters=2, n_trustees=3, threshold=2, candidate_bound=3, seed=7,
                      group_preset="standard", scripts={1: "VVC", 2: "VC"}),
                 "c8007a167b42ee6d52c5f239bb9e406e8fe6d6228c3f684429d675618caaff68"),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_transcript_digest_is_pinned(name):
    config, digest = PINNED[name]
    result = run_election(ElectionConfig(**config))
    assert result.verdict.valid
    kinds = {event["kind"] for event in result.transcript.events}
    assert {"cast", "check"} <= kinds
    assert hashlib.sha256(result.transcript.to_jsonl().encode()).hexdigest() == digest
