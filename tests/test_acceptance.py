"""Acceptance gate: the seven headline checks.

Each criterion is one test, so `pytest -v tests/test_acceptance.py` emits one
pass/fail line per criterion.  Tests print an ACCEPTANCE line with the
measured values; run with -s to see them on success.
"""

import math
import time
from collections import Counter

from ivxvsim.adversary import (
    ManipulationPolicy,
    end_to_end_attack,
    optimal_policy,
    reachable_histories,
)
from ivxvsim.behavior import default_distribution
from ivxvsim.ceremony import ElectionConfig, run_election
from ivxvsim.cli import main
from ivxvsim.elgamal import decrypt, encrypt, keygen, rerandomize, trapdoor_decrypt
from ivxvsim.groups import setup
from ivxvsim.seeding import Stream
from ivxvsim.shamir import deal, reconstruct
from ivxvsim.shuffle import (
    ShuffleStatement,
    ShuffleWitness,
    prove_shuffle,
    verify_shuffle,
)

import pytest


def report(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} {name}: {status} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def test_criterion_1_analytic_default_policy(capsys):
    t0 = time.perf_counter()
    code = main(["analyze", "--policy", "always"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    value = float(out.split("analytic-success")[1].split()[0])
    with capsys.disabled():
        report(1, "analytic success, always-manipulate",
               code == 0 and f"{value:.4f}" == "0.9600" and elapsed < 1.0,
               f"value={value:.6f} elapsed={elapsed:.3f}s")


def test_criterion_2_undetected_sweep(capsys):
    t0 = time.perf_counter()
    code = main(["sweep", "--p", "0.96"])
    elapsed = time.perf_counter() - t0
    rows = capsys.readouterr().out.strip().splitlines()
    table = {}
    for row in rows[1:]:
        k, undetected, _ = row.split(",")
        table[int(k)] = float(undetected)
    # tolerance: one thousandth of a percentage point
    ok = (
        code == 0
        and abs(table[100] - 0.01687) <= 1e-5
        and abs(table[200] - 0.00028) <= 1e-5
        and elapsed < 1.0
    )
    with capsys.disabled():
        report(2, "undetected-rate sweep at p=0.96", ok,
               f"k=100:{table[100]:.6f} k=200:{table[200]:.6f} "
               f"elapsed={elapsed:.3f}s")


def test_criterion_3_brute_force_optimum(capsys):
    dist = default_distribution()
    t0 = time.perf_counter()
    policy, value = optimal_policy(dist, 4)
    elapsed = time.perf_counter() - t0
    always_everywhere = all(policy.decide(h) for h in reachable_histories(dist))
    ok = f"{value:.4f}" == "0.9600" and always_everywhere and elapsed < 10.0
    with capsys.disabled():
        report(3, "backward-induction optimum equals always-manipulate", ok,
               f"value={value:.6f} always={always_everywhere} "
               f"elapsed={elapsed:.2f}s")


def test_criterion_4_end_to_end_attack(capsys):
    config = ElectionConfig(n_voters=2, n_trustees=3, threshold=2,
                            candidate_bound=3, seed=0)
    t0 = time.perf_counter()
    rpt = end_to_end_attack(config, ManipulationPolicy.always(),
                            corrupted_count=1, trials=10_000, seed=424242)
    elapsed = time.perf_counter() - t0
    se = max(rpt.stderr, math.sqrt(0.04 * 0.96 / rpt.trials))
    ok = abs(rpt.empirical_detected - 0.04) <= 4 * se and elapsed < 300.0
    with capsys.disabled():
        report(4, "ceremony-level detection rate", ok,
               f"detected={rpt.empirical_detected:.4f} stderr={rpt.stderr:.4f} "
               f"target=0.04 elapsed={elapsed:.1f}s")


def test_criterion_5_honest_elections(capsys):
    t0 = time.perf_counter()
    bad = 0
    for seed in range(1000):
        config = ElectionConfig(n_voters=20, n_trustees=3, threshold=2,
                                candidate_bound=3, seed=seed)
        result = run_election(config)
        intents = result.transcript.manifest["intents"]
        if not result.verdict.valid or result.tally != dict(Counter(intents)):
            bad += 1
    elapsed = time.perf_counter() - t0
    ok = bad == 0 and elapsed < 120.0
    with capsys.disabled():
        report(5, "1000 honest elections verify and count", ok,
               f"failures={bad}/1000 elapsed={elapsed:.1f}s")


def test_criterion_6_tamper_suite(capsys):
    scenarios = {
        "forged signature": (dict(tamper="forge-signature"), "bad-signature"),
        "non-last ballot mixed": (
            dict(tamper="mix-non-last", scripts={1: "VV"}),
            "last-ballot-mismatch"),
        "tampered shuffle output": (
            dict(tamper="tamper-shuffle-output"), "shuffle-proof"),
        "tampered posted plaintext": (
            dict(tamper="tamper-plaintext"), "decryption"),
        "suppressed but complained": (
            dict(corrupted=(1,), policy=ManipulationPolicy.always(),
                 scripts={1: "VC"}),
            "complaint"),
    }
    details = []
    all_ok = True
    for name, (overrides, want_reason) in scenarios.items():
        hits = 0
        for seed in range(100):
            config = ElectionConfig(n_voters=4, n_trustees=3, threshold=2,
                                    candidate_bound=3, seed=seed, **overrides)
            verdict = run_election(config).verdict
            hits += (not verdict.valid) and verdict.reason == want_reason
        details.append(f"{name}={hits}/100")
        all_ok = all_ok and hits == 100
    with capsys.disabled():
        report(6, "tamper suite flips verdicts with correct reasons", all_ok,
               " ".join(details))


def test_criterion_7_crypto_property_suites(capsys):
    import random

    params = setup("toy", 8)
    rng = random.Random(777)
    stream = Stream(777, "acceptance")   # the package's own draws
    pk, sk = keygen(params, stream)

    rerand_cases = 0
    for _ in range(1000):
        m = rng.randrange(params.candidate_bound)
        ct = encrypt(pk, m, rng.randrange(params.q))
        for _ in range(rng.randrange(1, 4)):
            ct = rerandomize(pk, ct, rng.randrange(params.q))
        rerand_cases += decrypt(sk, ct) == m
    tdec_cases = 0
    for _ in range(1000):
        m = rng.randrange(params.candidate_bound)
        r = rng.randrange(params.q)
        ct = encrypt(pk, m, r)
        tdec_cases += trapdoor_decrypt(pk, ct, r) == m == decrypt(sk, ct)

    import itertools

    shamir_cases = 0
    for _ in range(1000):
        q = rng.choice([11, (1 << 61) - 1])
        secret = rng.randrange(q)
        k = rng.randrange(2, 6)
        t = rng.randrange(1, k + 1)
        shares = deal(secret, t, k, q, stream)
        shamir_cases += all(
            reconstruct(list(sub), t, q) == secret
            for sub in itertools.combinations(shares, t))

    complete = 0
    false_accepts = 0
    for i in range(1000):
        n = rng.randrange(1, 6)
        ins = tuple(encrypt(pk, rng.randrange(params.candidate_bound),
                            rng.randrange(params.q)) for _ in range(n))
        perm = list(range(n))
        rng.shuffle(perm)
        rands = tuple(rng.randrange(params.q) for _ in range(n))
        outs = tuple(rerandomize(pk, ins[perm[j]], rands[j]) for j in range(n))
        stmt = ShuffleStatement(pk=pk, inputs=ins, outputs=outs)
        proof = prove_shuffle(stmt, ShuffleWitness(tuple(perm), rands), stream)
        complete += verify_shuffle(stmt, proof)
        # swap one output for an encryption of a different candidate
        j = rng.randrange(n)
        m2 = (decrypt(sk, outs[j]) + 1 + rng.randrange(
            params.candidate_bound - 1)) % params.candidate_bound
        bad = outs[:j] + (encrypt(pk, m2, rng.randrange(params.q)),) + outs[j + 1:]
        false_accepts += verify_shuffle(
            ShuffleStatement(pk=pk, inputs=ins, outputs=bad), proof)

    ok = (rerand_cases == 1000 and tdec_cases == 1000
          and shamir_cases == 1000 and complete == 1000 and false_accepts == 0)
    with capsys.disabled():
        report(7, "crypto property suites (1000 cases each)", ok,
               f"rerand={rerand_cases} tdec={tdec_cases} "
               f"shamir={shamir_cases} shuffle-complete={complete} "
               f"false-accepts={false_accepts}")
