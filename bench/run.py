"""Run one workload of the ivxvsim benchmark and print its metrics.

    python3 bench/run.py --workload toy-ceremony --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
src/.  The workloads are defined in workloads.py.  The run repeats
rounds of its workload, in one process and one thread, for about
--seconds seconds, each round starting when the previous one ends, and
checks every output with oracles.py.  The last line of standard output
is one JSON object: correct, attempted, failed, and the metrics.

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json,
measured untraced.  With --trace 1 they are its per-layer ones: rounds
alternate between untraced and traced (tracer.py), the per-layer
figures come from the traced rounds, and trace.overhead_pct compares
the two kinds of round.  The traced run also writes its spans and
counts to .bench_out/trace-<workload>-seed<seed>.json.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from statistics import median

import oracles
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Set-up is timed in fresh interpreters, several times, and the median
# reported: from spawning the interpreter to the moment the package is
# imported, the group parameters are built and the behaviour table is
# loaded, which is all a run does before its first election.
SETUP_SPAWNS = 7
SETUP_CHILD = ("import sys, time; sys.path.insert(0, sys.argv[1]); import ivxvsim; "
               "ivxvsim.setup(sys.argv[2], 3); ivxvsim.behavior.default_distribution(); "
               "print(time.monotonic())")


def measure_setup(preset: str) -> float:
    times = []
    for _ in range(SETUP_SPAWNS):
        start = time.monotonic()
        child = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(SRC), preset],
                               capture_output=True, text=True, timeout=60, check=True)
        times.append(float(child.stdout.split()[-1]) - start)
    return median(times)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# What every round of a run must repeat exactly.
REPEATED = ("sha256", "replay", "report", "hostile")


def round_problems(plan, rnd, reference, p_caught) -> list[str]:
    """Oracles on the first round; later rounds must repeat it exactly."""
    if reference is None:
        return (oracles.check_election(plan.expect, rnd.text, rnd.result.tally, rnd.result.verdict)
                + oracles.check_replay(*rnd.replay)
                + oracles.check_attack(rnd.report, plan.attack_corrupted, plan.trials, p_caught))
    return [f"round differs from the first one in {field}"
            for field in REPEATED if getattr(rnd, field) != reference[field]]


# The operations (root spans) whose totals each layer's figures sum: those
# timed by the end-to-end metric that the layer should move (README.md).
# The hostile replays are in none of them.
ATTACK, ELECTION, REPLAY = "bench.attack", "bench.election", "bench.replay"
SCOPES = {
    (ELECTION, REPLAY): ("shuffle.fs_challenge", "shuffle.serialize_proof",
                         "shuffle.deserialize_proof", "shuffle.prove_shuffle",
                         "shuffle.verify_shuffle", "groups.GroupParams.is_element",
                         "elgamal.encrypt", "elgamal.rerandomize", "elgamal.decrypt",
                         "elgamal.trapdoor_decrypt"),
    (ELECTION,): ("shuffle.proof_bytes", "functionalities.AuditDevice.check",
                  "functionalities.BulletinBoard.snapshot", "ceremony.voter_vote_loop",
                  "functionalities.DecryptionService.decrypt_and_post",
                  "functionalities.DecryptionService.audit", "shamir.reconstruct"),
    (REPLAY,): ("ceremony.ElectionTranscript.to_jsonl", "ceremony.ElectionTranscript.from_jsonl",
                "ceremony.audit_transcript"),
    (ATTACK,): ("seeding.rng_for", "ceremony.run_election",
                "behavior.BehaviorDistribution.sample", "functionalities.CertRegistry.sign",
                "functionalities.CertRegistry.verify", "adversary.end_to_end_attack"),
}
LAYER_SCOPE = {layer: roots for roots, layers in SCOPES.items() for layer in layers}


def layer_value(traced_round: dict, name: str):
    """A per-layer figure of one traced round, summed over its scope."""
    head, _, tail = name.rpartition(".")
    layer = head if tail in ("calls", "self_s", "bytes") else name
    return sum(traced_round.get(f"{root}/{name}", 0) for root in LAYER_SCOPE[layer])


def layer_metrics(spec, layer_rounds, round_times) -> tuple[dict, list[str]]:
    """Per-layer figures: counts of one traced round, which must repeat in
    every traced round, and the median self time over traced rounds."""
    metrics, problems = {}, []
    for metric in spec["per_layer"]:
        name = metric["name"]
        if name == "trace.overhead_pct":
            value = 100.0 * (median(round_times[True]) / median(round_times[False]) - 1.0)
        elif name.endswith("_s"):
            value = median(layer_value(r, name) for r in layer_rounds)
        else:
            value = layer_value(layer_rounds[0], name)
            if any(layer_value(r, name) != value for r in layer_rounds):
                problems.append(f"{name} differs between traced rounds")
        metrics[name] = {"value": value, "unit": metric["unit"]}
    return metrics, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ivxvsim" / "__init__.py").is_file():
        print(f"bench: no ivxvsim package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.SPECS:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    setup_s = measure_setup(workloads.SPECS[args.workload]["preset"])
    plan = workloads.build_plan(args.workload, args.seed)
    p_caught = oracles.caught_mass(oracles.read_table(workloads.TABLE_CSV))
    tracer = Tracer() if args.trace else None

    samples = {"election_s": [], "replay_s": [], "attack_trials_per_s": [], "transcript_bytes": []}
    round_times = {False: [], True: []}
    layer_rounds, problems = [], []
    reference = None
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(round_times[False]) > len(round_times[True])
        if traced:
            tracer.install()
            before = tracer.totals()
        try:
            rnd = workloads.run_round(plan, tracer.span if traced else lambda _name: nullcontext())
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            after = tracer.totals()
            layer_rounds.append({key: after[key] - before.get(key, 0) for key in after})
        problems += round_problems(plan, rnd, reference, p_caught)
        if reference is None:
            reference = {field: getattr(rnd, field) for field in REPEATED}
        attempted += plan.operations
        failed += sum(outcome not in ("verdict", "ReplayError") for outcome in rnd.hostile)
        rnd_s = rnd.round_s
        round_times[traced].append(rnd_s)
        if not traced:
            samples["election_s"].append(rnd.election_s)
            samples["replay_s"].append(rnd.replay_s)
            samples["attack_trials_per_s"].append(plan.trials / rnd.attack_s)
            samples["transcript_bytes"].append(rnd.transcript_bytes)
        del rnd
        # stop when another round like this one would overrun --seconds
        enough = tracer is None or round_times[True]
        if enough and time.perf_counter() - start + rnd_s > args.seconds:
            break

    if tracer is None:
        values = {name: median(values) for name, values in samples.items()}
        values["setup_s"] = setup_s
        values["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    else:
        metrics, more = layer_metrics(spec, layer_rounds, round_times)
        problems += more
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps(dict(tracer.dump(), workload=args.workload,
                                              seed=args.seed, rounds=layer_rounds)))
        print(f"bench: spans and counts written to {trace_file}", file=sys.stderr)

    for problem in problems:
        print(f"bench: INCORRECT: {problem}", file=sys.stderr)
    rounds = len(round_times[False]) + len(round_times[True])
    print(f"bench: {args.workload} seed {args.seed}: {rounds} rounds, "
          f"{attempted} operations, {failed} failed", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"bench:   {name} = {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
