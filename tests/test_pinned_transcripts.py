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
    # not its length)
    "toy": (dict(n_voters=8, n_trustees=3, threshold=2, candidate_bound=3, seed=11,
                 scripts={1: "VVC", 2: "VC", 3: "VV", 4: "VCV"}),
            "6e4fa741b039551e7da6cf1a7d485b65808fc40528a47b00d2cf3894853ea758"),
    # 387-bit group, 6 voters: the smallest large group, on the standard
    # group's code with integer s' responses (re-pinned when mid moved
    # from a 256-bit prime to this one, and again when board posts
    # dropped their board_seq field)
    "mid": (dict(n_voters=6, n_trustees=3, threshold=2, candidate_bound=3, seed=5,
                 group_preset="mid", scripts={1: "VVC", 2: "VC", 3: "VCV"}),
            "4ace32b77d387c6bd90b03205b972ab5520e1e2d5d46bf1828dcfd940e7749cc"),
    # 2048-bit group, 2 voters, one of whom re-votes (re-pinned when board
    # posts dropped their board_seq field; every other byte is unchanged)
    "standard": (dict(n_voters=2, n_trustees=3, threshold=2, candidate_bound=3, seed=7,
                      group_preset="standard", scripts={1: "VVC", 2: "VC"}),
                 "5546f1e3c2294b9c3a28c6dda67a4b8ab9662241f0b384ec566891b5ca89fe9f"),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_transcript_digest_is_pinned(name):
    config, digest = PINNED[name]
    result = run_election(ElectionConfig(**config))
    assert result.verdict.valid
    kinds = {event["kind"] for event in result.transcript.events}
    assert {"cast", "check"} <= kinds
    assert hashlib.sha256(result.transcript.to_jsonl().encode()).hexdigest() == digest
