"""Named random streams: determinism, separation, ranges, and that the
package draws through them alone."""

import ast
import sys
from collections import Counter
from pathlib import Path

import pytest

from ivxvsim.groups import setup
from ivxvsim.seeding import Stream, derive_seed, rng_for

SRC = Path(__file__).resolve().parent.parent / "src" / "ivxvsim"
MID_Q = setup("mid", 2).q


def draws(stream):
    """One of every kind of draw, in a fixed order."""
    items = list(range(10))
    stream.shuffle(items)
    return (stream.scalars(11, 5), stream.scalars(MID_Q, 2), stream.below(1000),
            stream.bits(128), stream.unit(), items)


def test_the_same_name_gives_the_same_draws():
    assert draws(Stream(3, "vsd", 7)) == draws(Stream(3, "vsd", 7)) == draws(rng_for(3, "vsd", 7))
    assert derive_seed(3, "trial", 7) == Stream(3, "trial", 7).bits(64)


@pytest.mark.parametrize("other", [(4, "vsd", 7), (3, "vemu", 7), (3, "vsd", 8), (3, "vsd", 0)])
def test_another_seed_label_or_index_gives_other_draws(other):
    assert draws(Stream(*other)) != draws(Stream(3, "vsd", 7))


def test_reads_do_not_depend_on_how_the_stream_is_cut():
    # many reads of a few bytes, across block boundaries, give the bytes
    # one read does
    whole = Stream(1, "cut").bits(8 * 1000).to_bytes(1000, "big")
    parts, stream = b"", Stream(1, "cut")
    for size in (1, 7, 128, 136, 135, 300, 293):
        parts += stream.bits(8 * size).to_bytes(size, "big")
    assert parts == whole


@pytest.mark.parametrize("q", [1, 3, 10, 11, 251, 256, 2**16, MID_Q])
def test_scalars_stay_below_q(q):
    stream = Stream(0, f"range/{q}")
    assert stream.scalars(q, 0) == []
    values = stream.scalars(q, 2000)
    assert len(values) == 2000 and all(0 <= x < q for x in values)
    if q <= 11:   # every value turns up, none more often than chance allows
        counts = Counter(values)
        assert set(counts) == set(range(q))
        assert max(counts.values()) < 2000 / q + 5 * (2000 / q) ** 0.5


def test_scalars_need_a_positive_q():
    for q in (0, -3):
        with pytest.raises(ValueError):
            Stream(0, "q").scalars(q, 1)


def test_below_bits_and_unit_ranges():
    stream = Stream(0, "ranges")
    assert all(stream.below(1) == 0 for _ in range(100))
    for k in (1, 7, 8, 9, 53, 128, 384):
        values = [stream.bits(k) for _ in range(200)]
        assert all(0 <= x < 2**k for x in values)
        assert max(values).bit_length() == k   # the top bit is drawn too
    units = [stream.unit() for _ in range(10_000)]
    assert all(0.0 <= x < 1.0 for x in units)
    assert 0.49 < sum(units) / len(units) < 0.51


@pytest.mark.parametrize("n", [0, 1, 2, 3, 300])
def test_shuffle_permutes(n):
    items = list(range(n))
    Stream(n, "shuffle").shuffle(items)
    assert sorted(items) == list(range(n))
    if n == 300:
        assert items != list(range(n))


def test_shuffle_reaches_every_order():
    seen = Counter()
    stream = Stream(0, "orders")
    for _ in range(1200):
        items = list("abc")
        stream.shuffle(items)
        seen["".join(items)] += 1
    assert len(seen) == 6 and min(seen.values()) > 120


def test_no_module_of_the_package_imports_random():
    # and every import is of the standard library or of the package itself
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                if node.level:      # a relative import, of the package
                    continue
                names = [node.module]
            else:
                continue
            assert "random" not in names, path.name
            for name in names:
                top = name.partition(".")[0]
                assert top in sys.stdlib_module_names or top == "ivxvsim", (path.name, name)
