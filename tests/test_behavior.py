"""Voter behavior patterns and their distributions."""

import pytest

from ivxvsim.behavior import (
    MAX_PATTERN_LEN,
    BadDistribution,
    BehaviorDistribution,
    default_distribution,
    load_distribution,
    validate_pattern,
)
from ivxvsim.seeding import Stream


def test_default_distribution_contents():
    d = default_distribution()
    assert d["V"] == pytest.approx(0.940)
    assert d["VV"] == pytest.approx(0.015)
    assert d["VVV"] == pytest.approx(0.005)
    assert d["VC"] == pytest.approx(0.030)
    assert d["VVC"] == pytest.approx(0.010)
    assert len(d) == 5
    assert sum(p for _, p in d.items()) == pytest.approx(1.0)
    assert d.max_len() == 3


def test_validate_pattern():
    assert validate_pattern("V") == "V"
    assert validate_pattern("VVC") == "VVC"
    for bad in ("", "C", "CV", "VX", "vc", "V C", 7, None):
        with pytest.raises((BadDistribution, ValueError, TypeError)):
            validate_pattern(bad)


def test_pattern_length_is_capped_for_every_source(tmp_path):
    longest = "V" * MAX_PATTERN_LEN
    assert validate_pattern(longest) == longest
    for length in (MAX_PATTERN_LEN + 1, 2_000_000):
        with pytest.raises(BadDistribution, match="longer than"):
            validate_pattern("V" * length)
        with pytest.raises(BadDistribution):
            BehaviorDistribution({"V" * length: 1.0})
    path = tmp_path / "long.csv"
    path.write_text(f"pattern,probability\n{'V' * (MAX_PATTERN_LEN + 1)},1.0\n")
    with pytest.raises(BadDistribution):
        load_distribution(str(path))
    # a field longer than the csv module reads is a typed error too
    path.write_text(f"pattern,probability\n{'V' * 200_000},1.0\n")
    with pytest.raises(BadDistribution):
        load_distribution(str(path))


def test_distribution_must_sum_to_one():
    with pytest.raises(BadDistribution):
        BehaviorDistribution({"V": 0.5, "VV": 0.4})
    with pytest.raises(BadDistribution):
        BehaviorDistribution({"V": 0.7, "VV": 0.4})
    # within tolerance of exact float arithmetic
    BehaviorDistribution({"V": 0.1, "VV": 0.9})


def test_distribution_rejects_bad_entries():
    with pytest.raises(BadDistribution):
        BehaviorDistribution({})
    with pytest.raises(BadDistribution):
        BehaviorDistribution({"V": 1.5, "VC": -0.5})
    with pytest.raises(BadDistribution):
        BehaviorDistribution({"CV": 1.0})
    with pytest.raises(BadDistribution):
        BehaviorDistribution([("V", 0.5), ("V", 0.5)])  # duplicate pattern


def test_point_mass_always_sampled():
    d = BehaviorDistribution({"VVC": 1.0})
    rng = Stream(0, "behavior")
    assert all(d.sample(rng) == "VVC" for _ in range(50))


def test_sampling_is_seed_deterministic():
    d = default_distribution()
    a = [d.sample(Stream(99, "behavior")) for _ in range(1)]
    seq1 = []
    rng = Stream(42, "behavior")
    for _ in range(100):
        seq1.append(d.sample(rng))
    rng = Stream(42, "behavior")
    seq2 = [d.sample(rng) for _ in range(100)]
    assert seq1 == seq2
    assert a == [d.sample(Stream(99, "behavior"))]


def test_sampling_frequencies_match_weights():
    d = default_distribution()
    rng = Stream(7, "behavior")
    n = 100_000
    counts = {}
    for _ in range(n):
        pat = d.sample(rng)
        counts[pat] = counts.get(pat, 0) + 1
    assert counts["V"] / n == pytest.approx(0.94, abs=0.01)
    assert counts["VC"] / n == pytest.approx(0.03, abs=0.005)
    assert set(counts) <= {"V", "VV", "VVV", "VC", "VVC"}


def test_load_distribution_from_csv_file(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("pattern,probability\nV,0.25\nVC,0.75\n")
    d = load_distribution(str(path))
    assert d["V"] == 0.25
    assert d["VC"] == 0.75


def test_load_distribution_rejects_malformed_csv(tmp_path):
    bad_header = tmp_path / "a.csv"
    bad_header.write_text("pat,prob\nV,1.0\n")
    with pytest.raises(BadDistribution):
        load_distribution(str(bad_header))
    bad_number = tmp_path / "b.csv"
    bad_number.write_text("pattern,probability\nV,lots\n")
    with pytest.raises(BadDistribution):
        load_distribution(str(bad_number))


def test_a_csv_row_error_names_the_line_on_which_the_row_ends(tmp_path):
    # a quoted field spans lines, so a row is not always one line
    path = tmp_path / "d.csv"
    path.write_text('pattern,probability\n"V\n",0.5\nVC,lots\n')
    with pytest.raises(BadDistribution, match=r"d\.csv:4: probability 'lots' is not a number$"):
        load_distribution(str(path))


def test_every_csv_row_error_names_the_file_and_line(tmp_path):
    path = tmp_path / "d.csv"
    for rows, error in (("V,0.5\nCV,0.5\n", "3: pattern 'CV' must start with V"),
                        ("V,0.5\nV,0.5\n", "3: duplicate pattern 'V'"),
                        ("V,1.5\n", "2: probability 1.5 for 'V' out of [0, 1]")):
        path.write_text("pattern,probability\n" + rows)
        with pytest.raises(BadDistribution) as info:
            load_distribution(str(path))
        assert str(info.value) == f"{path}:{error}"
    # a bad total belongs to no one row, so it names the file
    path.write_text("pattern,probability\nV,0.5\nVC,0.4\n")
    with pytest.raises(BadDistribution) as info:
        load_distribution(str(path))
    assert str(info.value).startswith(f"{path}: probabilities sum to ")


def test_load_distribution_accepts_mapping_and_pairs():
    m = load_distribution({"V": 0.5, "VC": 0.5})
    p = load_distribution([("V", 0.5), ("VC", 0.5)])
    assert dict(m.items()) == dict(p.items())
    d = default_distribution()
    assert load_distribution(d) is d


def test_support_preserves_insertion_order():
    d = BehaviorDistribution([("VV", 0.5), ("V", 0.5)])
    assert d.support() == ("VV", "V")
    assert "VV" in d
    assert "VC" not in d
