"""Command line driver.

Subcommands: run (one election), analyze (policy success over a
distribution), sweep (detection curve), attack (ceremony-level Monte
Carlo), replay (re-audit a stored transcript).

Exit codes: 0 success/valid, 2 invalid verdict or replay mismatch,
1 any error.  IVXV_SIM_SEED overrides --seed which overrides the
config file's seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
from pathlib import Path

from .adversary import (AttackOutcome, PolicyDomainError, end_to_end_attack,
                        optimal_policy, outcome_probabilities, policy_from_spec,
                        undetected_probability, CSV_REPORT_HEADER)
from .behavior import default_distribution, load_distribution
from .ceremony import (JSON_ERRORS, CeremonyError, ElectionConfig, ElectionTranscript,
                       ReplayError, TOOL_VERSION, audit_transcript, run_election)

_CONFIG_KEYS = {field.name for field in dataclasses.fields(ElectionConfig)}
_REQUIRED_KEYS = tuple(field.name for field in dataclasses.fields(ElectionConfig)
                       if field.default is dataclasses.MISSING)
# Config fields `attack` sets from its flags, each with its error.
_ATTACK_REFUSED = {name: f"attack does not read the config's {name!r}: --{name} sets it"
                   for name in ("corrupted", "policy")}


class CliError(Exception):
    pass


def _resolve_seed(flag_seed, config_seed=0) -> int:
    env = os.environ.get("IVXV_SIM_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise CliError(f"IVXV_SIM_SEED={env!r} is not an integer") from None
    if flag_seed is not None:
        return flag_seed
    return config_seed


def _load_config(path, flag_seed, refused=None) -> tuple[ElectionConfig, dict]:
    """The config at `path`; `refused` maps fields the command sets
    itself to the error for a config that sets one."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CliError(f"cannot read config: {exc}") from None
    try:
        raw = json.loads(text)
    except JSON_ERRORS as exc:
        raise CliError(f"config is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise CliError("config must be a JSON object")
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise CliError(f"unknown config keys: {sorted(unknown)}")
    missing = [key for key in _REQUIRED_KEYS if key not in raw]
    if missing:
        raise CliError(f"config must set {missing} explicitly")
    for key, error in (refused or {}).items():
        if raw.get(key) is not None:
            raise CliError(error)

    kwargs = dict(raw)
    if kwargs.get("distribution") is not None:
        kwargs["distribution"] = load_distribution(kwargs["distribution"])
    if kwargs.get("policy") is not None:
        kwargs["policy"] = policy_from_spec(kwargs["policy"])
    if kwargs.get("corrupted", ()) is None:   # the one field whose default is not None
        del kwargs["corrupted"]
    kwargs["seed"] = _resolve_seed(flag_seed, kwargs.get("seed", 0))
    digest = hashlib.sha256(text.encode()).hexdigest()
    try:
        return ElectionConfig(**kwargs), {str(path): digest}
    except (TypeError, ValueError) as exc:
        raise CliError(f"bad config: {exc}") from None


def _write_text(path, text: str) -> None:
    with open(path, "w", newline="") as fh:  # LF endings on every platform
        fh.write(text)


def cmd_run(args) -> int:
    config, input_digests = _load_config(args.config, args.seed)
    try:
        result = run_election(config)
    except CeremonyError as exc:
        raise CliError(f"run aborted: {exc}") from None
    result.transcript.manifest["inputs"] = input_digests
    summary = {
        "sid": config.sid,
        "seed": config.seed,
        "tally": {str(c): v for c, v in result.tally.items()},
        "verdict": {"valid": result.verdict.valid, "reason": result.verdict.reason},
    }
    summary_text = json.dumps(summary, sort_keys=True, indent=2) + "\n"
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _write_text(out / "transcript.jsonl", result.transcript.to_jsonl())
        _write_text(out / "summary.json", summary_text)
    sys.stdout.write(summary_text)
    return 0 if result.verdict.valid else 2


def cmd_analyze(args) -> int:
    if args.distribution in (None, "default"):
        dist = default_distribution()
    else:
        dist = load_distribution(args.distribution)
    policy = policy_from_spec(args.policy)
    success = outcome_probabilities(policy, dist)[AttackOutcome.SUCCESS]
    print(f"analytic-success {success:.6f}")
    if args.max_len is not None:
        best, value = optimal_policy(dist, args.max_len)
        print(f"optimal-success {value:.6f}")
        for history in sorted(best.table, key=lambda h: (len(h), h)):
            print(f"policy {history or '(start)'} "
                  f"{'M' if best.table[history] else 'H'}")
    return 0


def cmd_sweep(args) -> int:
    if args.k_min < 0 or args.k_min > args.k_max:
        raise CliError("need 0 <= k-min <= k-max")
    lines = ["k,undetected,detected"]
    for k in range(args.k_min, args.k_max + 1):
        u = undetected_probability(args.p, k)
        lines.append(f"{k},{u:.6f},{1.0 - u:.6f}")
    text = "\n".join(lines) + "\n"
    if args.out:
        _write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_attack(args) -> int:
    config, _digests = _load_config(args.config, args.seed, _ATTACK_REFUSED)
    policy = policy_from_spec(args.policy)
    try:
        report = end_to_end_attack(config, policy, args.corrupted,
                                   trials=args.trials, seed=config.seed)
    except (ValueError, CeremonyError) as exc:
        raise CliError(str(exc)) from None
    text = CSV_REPORT_HEADER + "\n" + report.csv_row() + "\n"
    if args.out:
        _write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_replay(args) -> int:
    try:
        text = Path(args.transcript).read_text()
    except OSError as exc:
        raise CliError(f"cannot read transcript: {exc}") from None
    try:
        transcript = ElectionTranscript.from_jsonl(text)
        recomputed, recorded = audit_transcript(transcript)
    except ReplayError as exc:
        raise CliError(f"replay failed: {exc}") from None
    def show(v):
        return "valid" if v.valid else f"invalid({v.reason})"
    print(f"recorded {show(recorded)}")
    print(f"recomputed {show(recomputed)}")
    if recomputed == recorded and recomputed.valid:
        print("match")
        return 0
    print("mismatch" if recomputed != recorded else "invalid")
    return 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ivxvsim",
        description="Deterministic desk-scale internet-voting ceremony simulator")
    parser.add_argument("--version", action="version", version=f"ivxvsim {TOOL_VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one election from a JSON config")
    p_run.add_argument("config")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default=None, help="directory for transcript + summary")
    p_run.set_defaults(fn=cmd_run)

    p_an = sub.add_parser("analyze", help="policy success over a behavior distribution")
    p_an.add_argument("distribution", nargs="?", default="default",
                      help="distribution CSV, or 'default'")
    p_an.add_argument("--policy", default="always", help="always | never | policy CSV")
    p_an.add_argument("--max-len", type=int, default=None,
                      help="also brute-force the optimal policy up to this length")
    p_an.set_defaults(fn=cmd_analyze)

    p_sw = sub.add_parser("sweep", help="undetected/detected curve over k")
    p_sw.add_argument("--p", type=float, required=True,
                      help="per-manipulation undetected probability")
    p_sw.add_argument("--k-min", type=int, default=0)
    p_sw.add_argument("--k-max", type=int, default=200)
    p_sw.add_argument("--out", default=None)
    p_sw.set_defaults(fn=cmd_sweep)

    p_at = sub.add_parser("attack", help="ceremony-level detection Monte Carlo")
    p_at.add_argument("config")
    p_at.add_argument("--policy", default="always")
    p_at.add_argument("--corrupted", type=int, default=1)
    p_at.add_argument("--trials", type=int, default=1000)
    p_at.add_argument("--seed", type=int, default=None)
    p_at.add_argument("--out", default=None)
    p_at.set_defaults(fn=cmd_attack)

    p_rp = sub.add_parser("replay", help="re-audit a stored transcript")
    p_rp.add_argument("transcript")
    p_rp.set_defaults(fn=cmd_replay)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (CliError, PolicyDomainError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
