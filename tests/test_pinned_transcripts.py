"""Pinned transcript digests: a guard against silent value changes.

A change that should compute the same numbers faster (cheaper
membership tests, exponentiation tables, multi-exponentiation) must
leave every transcript byte-identical.  The digests below were recorded
before the group arithmetic was first optimised; a change that moves one
of them changed a value, and must say why.
"""

import hashlib

import pytest

from ivxvsim.ceremony import ElectionConfig, run_election

PINNED = {
    # toy group, 8 voters, re-votes and checks
    "toy": (dict(n_voters=8, n_trustees=3, threshold=2, candidate_bound=3, seed=11,
                 scripts={1: "VVC", 2: "VC", 3: "VV", 4: "VCV"}),
            "af87d1bab5df88f385805b8a166dce590acb94f36045ddb7ba58976cbbca0a17"),
    # 387-bit group, 6 voters: the smallest large group, on the standard
    # group's code with integer s' responses (re-pinned when mid moved
    # from a 256-bit prime to this one)
    "mid": (dict(n_voters=6, n_trustees=3, threshold=2, candidate_bound=3, seed=5,
                 group_preset="mid", scripts={1: "VVC", 2: "VC", 3: "VCV"}),
            "d0a10032179fcf310a9bdfc23bc987c8fcec3bfb309360887a070482c4af2a62"),
    # 2048-bit group, 2 voters, one of whom re-votes
    "standard": (dict(n_voters=2, n_trustees=3, threshold=2, candidate_bound=3, seed=7,
                      group_preset="standard", scripts={1: "VVC", 2: "VC"}),
                 "2df7e6f7571faa02ddbf5b3cfc6fc16e802c1d27d66b6544c7960c207f99ea36"),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_transcript_digest_is_pinned(name):
    config, digest = PINNED[name]
    result = run_election(ElectionConfig(**config))
    assert result.verdict.valid
    kinds = {event["kind"] for event in result.transcript.events}
    assert {"cast", "check"} <= kinds
    assert hashlib.sha256(result.transcript.to_jsonl().encode()).hexdigest() == digest
