"""Command-line interface: exit codes, output formats, seed precedence."""

import dataclasses
import json
import os
import re
from pathlib import Path

import pytest

from ivxvsim.ceremony import ElectionConfig
from ivxvsim.cli import main


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {"n_voters": 4, "n_trustees": 3, "threshold": 2,
           "candidate_bound": 3, "seed": 9}
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def complaint_overrides():
    return dict(corrupted=[1], policy="always", scripts={"1": "VC"})


# -------------------------------------------------------------------- run

def test_run_honest_exits_zero(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["run", cfg]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["verdict"]["valid"] is True
    assert summary["seed"] == 9


def test_run_writes_artifacts(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    assert (out / "transcript.jsonl").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["verdict"]["valid"] is True
    first = json.loads((out / "transcript.jsonl").read_text().splitlines()[0])
    assert first["manifest"]["n_voters"] == 4


def test_run_output_is_reproducible(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["run", cfg, "--out", str(out1)]) == 0
    assert main(["run", cfg, "--out", str(out2)]) == 0
    capsys.readouterr()
    assert (out1 / "transcript.jsonl").read_bytes() == \
        (out2 / "transcript.jsonl").read_bytes()


def test_run_detected_manipulation_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path, **complaint_overrides())
    assert main(["run", cfg]) == 2
    summary = json.loads(capsys.readouterr().out)
    assert summary["verdict"] == {"valid": False, "reason": "complaint"}


def test_run_config_errors_exit_one(tmp_path, capsys):
    assert main(["run", str(tmp_path / "missing.json")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", str(bad)]) == 1
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"n_voters": 2, "n_trustees": 3,
                                   "threshold": 2, "surprise": 1}))
    assert main(["run", str(unknown)]) == 1
    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps({"n_voters": 2}))
    assert main(["run", str(partial)]) == 1
    assert main(["run", write_config(tmp_path, "sid.json", sid=7)]) == 1
    # removed settings that changed nothing a completed run shows
    assert main(["run", write_config(tmp_path, "ts.json", threshold_strict=True)]) == 1
    assert main(["run", write_config(tmp_path, "eh.json", ea_strict_halt=True)]) == 1
    listed = tmp_path / "list.json"
    listed.write_text("[1]")
    assert main(["run", str(listed)]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 8
    assert err.endswith("error: config must be a JSON object\n")


def test_run_aborted_by_a_tamper_exits_one(tmp_path, capsys):
    cfg = write_config(tmp_path, n_voters=2, tamper="mix-non-last", scripts={"1": "V", "2": "V"})
    assert main(["run", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: run aborted: mix-non-last tamper needs a voter "
                            "with two ballots\n")


def test_run_refuses_more_voters_than_a_proof_holds(tmp_path, capsys):
    assert main(["run", write_config(tmp_path, n_voters=2**64)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad config: n_voters") and err.count("\n") == 1


@pytest.mark.parametrize("overrides", [dict(scripts={"1": "V", "01": "VV"}),
                                       dict(scripts={"1": "V" * 2_000_000}),
                                       dict(n_trustees=10**8, threshold=1,
                                            group_preset="standard"),
                                       dict(candidate_bound=12),
                                       dict(candidate_bound=2**16 + 1,
                                            group_preset="standard")])
def test_run_names_the_field_of_a_config_past_a_limit(tmp_path, capsys, overrides):
    field = next(iter(overrides))
    assert main(["run", write_config(tmp_path, **overrides)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: bad config: {field}") and err.count("\n") == 1


WRONG_TYPED_FIELDS = [
    ("corrupted", 5), ("intents", 5), ("distribution", [1, 2]), ("candidate_bound", "3"),
    ("seed", "x"), ("n_trustees", 2.5), ("manipulation_offset", "a"), ("scripts", [1]),
    ("policy", 3), ("distribution", 0), ("distribution", [["V", None]]),
    ("group_preset", [1]), ("tamper", 5), ("n_voters", True),
]


def test_run_reads_null_as_the_default(tmp_path, capsys):
    nulls = dict(corrupted=None, intents=None, scripts=None, policy=None, tamper=None)
    assert main(["run", write_config(tmp_path, "null.json", **nulls)]) == 0
    assert main(["run", write_config(tmp_path, "default.json")]) == 0
    first, second = capsys.readouterr().out.split("}\n{")
    assert json.loads(first + "}") == json.loads("{" + second)


@pytest.mark.parametrize("command", ["run", "attack"])
@pytest.mark.parametrize("key,value", WRONG_TYPED_FIELDS)
def test_wrong_typed_config_field_exits_one(tmp_path, capsys, command, key, value):
    cfg = write_config(tmp_path, **dict(dict(n_voters=3), **{key: value}))
    extra = ["--trials", "1"] if command == "attack" else []
    assert main([command, cfg, *extra]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("key,text", [("distribution", "pattern,probability\nV,1.0\n"),
                                      ("policy", "history,decision\n,M\n")])
def test_config_integer_is_not_a_file_descriptor(tmp_path, capsys, key, text):
    read_fd, write_fd = os.pipe()
    os.write(write_fd, text.encode())
    os.close(write_fd)
    try:
        assert main(["run", write_config(tmp_path, **{key: read_fd})]) == 1
    finally:
        os.close(read_fd)
    assert "error:" in capsys.readouterr().err


def test_policy_table_missing_a_reached_history_exits_one(tmp_path, capsys):
    table = tmp_path / "policy.csv"
    table.write_text("history,decision\n,M\n")  # no decision after one V
    cfg = write_config(tmp_path, corrupted=[1], policy=str(table), scripts={"1": "VV"})
    assert main(["run", cfg]) == 1
    err = capsys.readouterr().err
    assert err == "error: history 'V' exceeds the policy table\n"


def _duplicate_history_policy(tmp_path) -> str:
    table = tmp_path / "dup.csv"
    table.write_text("history,decision\n,M\nV,M\nVV,M\n,H\n")   # '' again on line 5
    return str(table)


def test_analyze_policy_with_a_repeated_history_exits_one(tmp_path, capsys):
    table = _duplicate_history_policy(tmp_path)
    assert main(["analyze", "--policy", table]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {table}:5: duplicate history ''\n"


def test_run_policy_with_a_repeated_history_exits_one(tmp_path, capsys):
    cfg = write_config(tmp_path, corrupted=[1], policy=_duplicate_history_policy(tmp_path))
    assert main(["run", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert err.endswith(":5: duplicate history ''\n")


def test_readme_lists_every_optional_config_field():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    listed = re.findall(r"^- `(\w+)`", readme.split("Optional fields:\n\n", 1)[1]
                        .split("\n\n", 1)[0], re.M)
    optional = [field.name for field in dataclasses.fields(ElectionConfig)
                if field.default is not dataclasses.MISSING]
    assert sorted(listed) == sorted(optional)


def test_seed_precedence(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path)  # config says 9
    assert main(["run", cfg, "--seed", "33"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 33
    monkeypatch.setenv("IVXV_SIM_SEED", "777")
    assert main(["run", cfg, "--seed", "33"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 777
    monkeypatch.setenv("IVXV_SIM_SEED", "x")
    assert main(["run", cfg]) == 1
    assert capsys.readouterr().err == "error: IVXV_SIM_SEED='x' is not an integer\n"


# ---------------------------------------------------------------- analyze

def test_analyze_default(capsys):
    assert main(["analyze"]) == 0
    out = capsys.readouterr().out
    assert "analytic-success 0.960000" in out


def test_analyze_with_policy_never(capsys):
    assert main(["analyze", "--policy", "never"]) == 0
    assert "analytic-success 0.000000" in capsys.readouterr().out


def test_analyze_optimal_search(capsys):
    assert main(["analyze", "--max-len", "4"]) == 0
    out = capsys.readouterr().out
    assert "optimal-success 0.960000" in out
    assert "policy (start) M" in out


def test_analyze_optimum_at_the_pattern_cap(tmp_path, capsys):
    # 256 actions: stay honest through every check, manipulate the last vote
    dist = tmp_path / "d.csv"
    dist.write_text(f"pattern,probability\n{'VC' * 127 + 'VV'},1.0\n")
    assert main(["analyze", str(dist), "--max-len", "256"]) == 0
    out = capsys.readouterr().out
    assert "optimal-success 1.000000" in out
    assert f"policy {'VC' * 127 + 'V'} M" in out


def test_analyze_custom_distribution(tmp_path, capsys):
    dist = tmp_path / "d.csv"
    dist.write_text("pattern,probability\nV,1.0\n")
    assert main(["analyze", str(dist)]) == 0
    assert "analytic-success 1.000000" in capsys.readouterr().out


def test_analyze_bad_distribution_exits_one(tmp_path, capsys):
    dist = tmp_path / "d.csv"
    dist.write_text("pattern,probability\nV,0.4\n")  # does not sum to 1
    assert main(["analyze", str(dist)]) == 1
    assert "error:" in capsys.readouterr().err
    # a pattern past its cap, and a field longer than the csv module reads,
    # in a distribution or a policy table: one error line each
    for pattern in ("V" * 257, "V" * 200_000):
        dist.write_text(f"pattern,probability\n{pattern},1.0\n")
        assert main(["analyze", str(dist)]) == 1
        assert capsys.readouterr().err.count("error:") == 1
    table = tmp_path / "p.csv"
    table.write_text(f"history,decision\n{'V' * 200_000},M\n")
    assert main(["analyze", "--policy", str(table)]) == 1
    assert capsys.readouterr().err == f"error: {table}: field larger than field limit (131072)\n"


# ------------------------------------------------------------------ sweep

def test_sweep_headline_values(capsys):
    assert main(["sweep", "--p", "0.96"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert rows[0] == "k,undetected,detected"
    table = {int(r.split(",")[0]): r.split(",") for r in rows[1:]}
    assert table[100][1] == "0.016870"
    assert table[200][1] == "0.000285"
    assert float(table[100][1]) + float(table[100][2]) == pytest.approx(1.0)


def test_sweep_writes_file_with_lf_endings(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--p", "0.5", "--k-min", "1", "--k-max", "3",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    data = out.read_bytes()
    assert b"\r" not in data
    assert data.decode().splitlines()[1] == "1,0.500000,0.500000"


def test_sweep_argument_validation(capsys):
    assert main(["sweep", "--p", "1.5"]) == 1
    assert main(["sweep", "--p", "0.9", "--k-min", "5", "--k-max", "2"]) == 1
    capsys.readouterr()


# ----------------------------------------------------------------- attack

def test_attack_report_format(tmp_path, capsys):
    cfg = write_config(tmp_path, n_voters=2)
    assert main(["attack", cfg, "--trials", "40", "--seed", "3"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert rows[0] == "k,p,analytic_undetected,empirical_detected,stderr"
    fields = rows[1].split(",")
    assert fields[0] == "1"
    assert fields[1] == "0.960000"
    assert 0.0 <= float(fields[3]) <= 1.0


def test_attack_writes_csv(tmp_path, capsys):
    cfg = write_config(tmp_path, n_voters=2)
    out = tmp_path / "attack.csv"
    assert main(["attack", cfg, "--trials", "20", "--seed", "3",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_text().startswith("k,p,")


@pytest.mark.parametrize("key,value", [("corrupted", [1, 2]), ("corrupted", []),
                                       ("policy", "never"), ("tamper", "tamper-plaintext"),
                                       ("scripts", {"1": "VC"})])
def test_attack_refuses_fields_its_flags_set(tmp_path, capsys, key, value):
    # overriding these silently made a tamper-plaintext config report 0
    # detected although every trial ended invalid(decryption), and forced
    # scripts 100% detected beside an analytic 0.9216 undetected
    cfg = write_config(tmp_path, n_voters=2, **{key: value})
    assert main(["attack", cfg, "--trials", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and f"'{key}'" in err


def test_attack_accepts_null_for_fields_its_flags_set(tmp_path, capsys):
    cfg = write_config(tmp_path, n_voters=2, corrupted=None, policy=None, tamper=None,
                       scripts=None)
    assert main(["attack", cfg, "--trials", "1"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("offset", [0, 3])
def test_attack_refuses_an_offset_that_changes_no_vote(tmp_path, capsys, offset):
    cfg = write_config(tmp_path, n_voters=2, manipulation_offset=offset)
    assert main(["attack", cfg, "--corrupted", "2", "--trials", "200"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err
    assert err.startswith("error:") and err.count("\n") == 1 and "manipulation_offset" in err


def test_attack_argument_validation(tmp_path, capsys):
    cfg = write_config(tmp_path, n_voters=2)
    assert main(["attack", cfg, "--trials", "0"]) == 1
    assert main(["attack", cfg, "--corrupted", "5", "--trials", "5"]) == 1
    capsys.readouterr()


# ----------------------------------------------------------------- replay

def test_replay_roundtrip(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    main(["run", cfg, "--out", str(out)])
    capsys.readouterr()
    assert main(["replay", str(out / "transcript.jsonl")]) == 0
    text = capsys.readouterr().out
    assert "recorded valid" in text
    assert "recomputed valid" in text
    assert "match" in text


def test_replay_flags_matching_invalid_run(tmp_path, capsys):
    cfg = write_config(tmp_path, **complaint_overrides())
    out = tmp_path / "out"
    main(["run", cfg, "--out", str(out)])
    capsys.readouterr()
    assert main(["replay", str(out / "transcript.jsonl")]) == 2
    assert "invalid(complaint)" in capsys.readouterr().out


def test_replay_detects_edited_transcript(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    main(["run", cfg, "--out", str(out)])
    capsys.readouterr()
    path = out / "transcript.jsonl"
    lines = path.read_text().splitlines()
    edited = []
    done = False
    for line in lines:
        obj = json.loads(line)
        if not done and obj.get("kind") == "priv-post" \
                and obj["payload"]["entry"].get("kind") == "ballot":
            obj["payload"]["entry"]["c"][1] ^= 1
            done = True
        edited.append(json.dumps(obj, sort_keys=True, separators=(",", ":")))
    assert done
    path.write_text("\n".join(edited) + "\n")
    assert main(["replay", str(path)]) == 2
    assert "mismatch" in capsys.readouterr().out


def test_replay_truncated_transcript_errors(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    main(["run", cfg, "--out", str(out)])
    capsys.readouterr()
    path = out / "transcript.jsonl"
    data = path.read_text()
    path.write_text(data[: len(data) // 2])
    assert main(["replay", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


# JSON that json.loads cannot turn into a value although its syntax is
# right: an integer past the interpreter's 4300-digit conversion limit,
# and arrays nested far deeper than its recursion limit.
UNPARSABLE_JSON = {"long-integer": "1" * 5000, "deep-nesting": "[" * 100_000 + "]" * 100_000}


@pytest.mark.parametrize("command", ["run", "attack", "replay"])
@pytest.mark.parametrize("probe", UNPARSABLE_JSON)
def test_unparsable_json_input_exits_one(tmp_path, capsys, command, probe):
    path = tmp_path / "input.json"
    path.write_text(UNPARSABLE_JSON[probe] + "\n")
    assert main([command, str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("command, kind", [("run", "config"), ("replay", "transcript")])
def test_input_that_is_not_utf8_names_the_file(tmp_path, capsys, command, kind):
    path = tmp_path / "input.json"
    path.write_bytes(b'{"n_voters": 4, "sid": "\xff"}\n')
    assert main([command, str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {kind} {str(path)!r}: 'utf-8' codec can't decode "
                          "byte 0xff in position 24")
    assert err.count("\n") == 1


def test_replay_missing_file(capsys):
    assert main(["replay", "/nonexistent/t.jsonl"]) == 1
    capsys.readouterr()


# ------------------------------------------------------------------ misc

def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip()
