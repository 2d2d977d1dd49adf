"""Group presets, membership checks, and hash-to-group derivation."""

import random

import pytest
import sympy

from ivxvsim import groups
from ivxvsim.groups import (
    MAX_CANDIDATE_BOUND,
    GroupParams,
    UnknownPreset,
    batch_weights,
    fixed_base,
    hash_to_element,
    multi_exp,
    power,
    products_equal,
    setup,
    unstack,
)
from ivxvsim.seeding import Stream

PRESETS = ["toy", "standard"]


def test_toy_preset_values():
    params = setup("toy", 8)
    assert (params.p, params.q, params.g) == (23, 11, 2)
    assert params.candidate_bound == 8
    assert pow(params.g, params.q, params.p) == 1


def test_toy_bound_exceeds_group_order():
    with pytest.raises(ValueError, match="C <= q"):
        setup("toy", 12)


def test_standard_preset_is_a_schnorr_group():
    # Independent primality/structure oracle for the 2048-bit parameters.
    params = setup("standard", 10)
    assert sympy.isprime(params.p)
    assert sympy.isprime(params.q)
    assert (params.p - 1) % params.q == 0
    assert params.p.bit_length() == 2048
    assert params.g != 1
    assert pow(params.g, params.q, params.p) == 1


def test_unknown_preset_rejected():
    with pytest.raises(UnknownPreset):
        setup("medium", 4)


def test_candidate_bound_validation():
    with pytest.raises(ValueError):
        setup("toy", 0)
    with pytest.raises(ValueError):
        setup("toy", -3)
    with pytest.raises(ValueError):
        setup("standard", MAX_CANDIDATE_BOUND + 1)
    params = setup("standard", MAX_CANDIDATE_BOUND)
    assert params.candidate_bound == MAX_CANDIDATE_BOUND


def test_toy_bound_at_group_order_is_allowed():
    assert setup("toy", 11).candidate_bound == 11


def test_is_element_matches_enumerated_subgroup():
    params = setup("toy", 4)
    members = {pow(params.g, i, params.p) for i in range(params.q)}
    assert len(members) == params.q
    for x in range(params.p):
        assert params.is_element(x) == (x in members)
    assert not params.is_element(params.p)
    assert not params.is_element(-1)


def test_random_scalar_range():
    params = setup("toy", 4)
    rng = Stream(0, "scalar-range")
    seen = {rng.below(params.q) for _ in range(300)}
    assert seen == set(range(params.q))


def test_hash_to_element_is_deterministic_and_in_group():
    params = setup("toy", 4)
    xs = [hash_to_element(params, b"commit-gen", i) for i in range(16)]
    assert xs == [hash_to_element(params, b"commit-gen", i) for i in range(16)]
    for x in xs:
        assert params.is_element(x)
        assert x != 1  # derived generators must not be the identity


def test_hash_to_element_separates_inputs_in_large_group():
    # In the toy group collisions are expected (only 11 elements), so the
    # distinctness check runs on the standard parameters.
    params = setup("standard", 4)
    a = hash_to_element(params, b"commit-gen", 0)
    b = hash_to_element(params, b"commit-gen", 1)
    c = hash_to_element(params, b"commit-base", 0)
    assert len({a, b, c}) == 3
    for x in (a, b, c):
        assert params.is_element(x)


# ------------------------------------- cheaper arithmetic, same results

@pytest.mark.parametrize("preset", PRESETS)
def test_presets_are_safe_prime_groups(preset):
    # membership as a Legendre symbol needs the subgroup to be exactly the
    # quadratic residues, which holds when p = 2q + 1 (primality: above)
    params = setup(preset, 2)
    assert params.p == 2 * params.q + 1


def test_group_params_rejects_a_modulus_that_is_not_2q_plus_1():
    with pytest.raises(ValueError, match="2q \\+ 1"):
        GroupParams(p=23, q=22, g=2, candidate_bound=2)
    with pytest.raises(ValueError):
        GroupParams(p=47, q=11, g=2, candidate_bound=2)
    assert GroupParams(p=47, q=23, g=2, candidate_bound=2).q == 23


@pytest.mark.parametrize("preset, large", [("toy", False), ("mid", True), ("standard", True)])
def test_each_preset_has_one_size_regime(preset, large):
    # large: q > 2^385, so 128-bit challenges and batch weights are sound
    # and integer s' responses below 2^385 are shorter than q
    params = setup(preset, 2)
    assert params.large is large
    assert large is (params.q > 2**385)
    # derived, not a knob: no constructor argument, no part of equality
    with pytest.raises(TypeError):
        GroupParams(p=params.p, q=params.q, g=params.g, candidate_bound=2, large=not large)
    assert params == setup(preset, 2) and hash(params) == hash(setup(preset, 2))


@pytest.mark.parametrize("preset", PRESETS)
def test_is_element_equals_eulers_criterion(preset):
    params = setup(preset, 2)
    p, q = params.p, params.q
    rng = random.Random(f"is-element/{preset}")
    values = [-1, 0, 1, p - 1, p, p + 1, params.g, p - params.g]
    values += [rng.randrange(1, p) for _ in range(60)]
    values += [pow(params.g, rng.randrange(q), p) for _ in range(10)]
    members = 0
    for x in values:
        euler = 0 < x < p and pow(x, q, p) == 1
        assert params.is_element(x) == euler, x
        members += euler
    assert 10 <= members < len(values)   # both answers occur


def _random_subgroup_elements(params, rng, count):
    return [pow(params.g, rng.randrange(1, params.q), params.p) for _ in range(count)]


@pytest.mark.parametrize("preset", PRESETS)
def test_fixed_base_equals_builtin_pow(preset):
    params = setup(preset, 2)
    p, q = params.p, params.q
    rng = random.Random(f"fixed-base/{preset}")
    for base in [params.g, *_random_subgroup_elements(params, rng, 2)]:
        power = fixed_base(params, base)
        exponents = [0, 1, 2, q - 1, q, q + 1, -1, -q, 2 * q + 5]
        exponents += [rng.randrange(q) for _ in range(10)] + [rng.randrange(2**16)]
        for e in exponents:
            assert power(e) == pow(base, e, p), (base, e)


@pytest.mark.parametrize("preset", PRESETS)
def test_multi_exp_equals_product_of_pows(preset):
    params = setup(preset, 2)
    p, q = params.p, params.q
    rng = random.Random(f"multi-exp/{preset}")
    assert multi_exp(params, [], []) == 1
    bases = _random_subgroup_elements(params, rng, 6)
    for count in range(1, 7):
        for exponents in ([rng.randrange(q) for _ in range(count)], [0] * count,
                          [0, q - 1, 1, q, -1, 7][:count]):
            expected = 1
            for b, e in zip(bases, exponents):
                expected = expected * pow(b, e, p) % p
            assert multi_exp(params, bases[:count], exponents) == expected


# ------------------------------------------------------ batched products

def _true_equations(params, rng, count):
    """`count` true equations over a pool of six bases, so bases repeat
    across equations.  Equation 0 has full-size exponents and the rest
    32-bit ones, to keep the reference products cheap; equation 1
    restates equation 0 with its bases reversed and q added to an
    exponent, so the two share a target; equation 2 has 30 bases, more
    than the toy group has elements, so it repeats some."""
    q = params.q
    pool = _random_subgroup_elements(params, rng, 6)
    equations = []
    for k in range(count):
        bases = tuple(rng.choices(pool, k=30) if k == 2 else rng.sample(pool, rng.randrange(1, 4)))
        exponents = tuple(rng.randrange(q if k == 0 else 2**32) for _ in bases)
        equations.append((bases, exponents, multi_exp(params, bases, exponents)))
    bases, exponents, target = equations[0]
    equations[1] = (bases[::-1], (exponents[-1] + q, *exponents[-2::-1]), target)
    return equations


@pytest.mark.parametrize("preset", PRESETS)
def test_products_equal_equals_checking_each_equation(preset):
    params = setup(preset, 2)
    rng = random.Random(f"products-equal/{preset}")
    each = lambda eqs: all(multi_exp(params, b, e) == t for b, e, t in eqs)
    assert products_equal(params, []) is True
    equations = _true_equations(params, rng, 40)
    assert products_equal(params, equations) == each(equations) is True
    assert products_equal(params, iter(equations))   # read once, lazily
    for wrong in (1, 2, 17):
        bases, exponents, target = equations[wrong]
        changed = equations[:]
        changed[wrong] = (bases, exponents, target * params.g % params.p)
        assert not products_equal(params, changed), wrong


def test_products_equal_in_the_toy_group_rejects_every_wrong_target():
    # q = 11: a weighted check would pass a false set one time in eleven,
    # so the toy group checks each equation and no factor slips through
    params = setup("toy", 2)
    for i in range(50):
        equations = _true_equations(params, random.Random(f"toy-factors/{i}"), 5)
        assert products_equal(params, equations), i
        bases, exponents, target = equations[2]
        for k in range(1, params.q):
            off = target * pow(params.g, k, params.p) % params.p
            changed = equations[:2] + [(bases, exponents, off)] + equations[3:]
            assert not products_equal(params, changed), (i, k)


# ----------------------------------------- small groups: tabled logarithms

SMALL_GROUPS = [setup("toy", 2), GroupParams(p=47, q=23, g=2, candidate_bound=2)]


@pytest.mark.parametrize("params", SMALL_GROUPS, ids=["toy", "p47"])
def test_tabled_arithmetic_equals_builtin_pow(params):
    # every residue b and b + p, non-residues and 0 included, under every
    # exponent from -30 to 30: the builtin pow's result, which for b = 0
    # and e < 0 is a ValueError
    p = params.p
    bases = [*range(p), *range(p, 2 * p)]
    exponents = range(-30, 31)
    pairs = [(b, e) for b in bases for e in exponents if b % p or e >= 0]
    for b in bases:
        power = fixed_base(params, b)
        for e in exponents:
            if b % p or e >= 0:
                assert power(e) == pow(b, e, p), (b, e)
            else:
                with pytest.raises(ValueError):
                    power(e)
    for b in (0, p):
        with pytest.raises(ValueError):
            multi_exp(params, (b,), (-1,))
    rng = random.Random(f"tabled/{p}")
    for k in (1, 3, 50):
        for _ in range(200 if k < 50 else 40):
            chosen = rng.choices(pairs, k=k)
            bases_k, exponents_k = zip(*chosen)
            expected = _product_of_pows(params, bases_k, exponents_k)
            assert multi_exp(params, bases_k, exponents_k) == expected, chosen
            assert products_equal(params, [(bases_k, exponents_k, expected)]), chosen
            wrong = (expected + rng.randrange(1, p)) % p
            assert not products_equal(params, [(bases_k, exponents_k, wrong)]), chosen


def test_a_small_group_must_have_q_below_2_8():
    for q in (0, 257, 2**15):
        with pytest.raises(ValueError, match="0 < q < 2\\^8"):
            GroupParams(p=2 * q + 1, q=q, g=4, candidate_bound=2)
    # the largest safe prime with q below 2^8 is tabled, exactly
    params = GroupParams(p=503, q=251, g=4, candidate_bound=2)
    assert sympy.isprime(params.p) and sympy.isprime(params.q)
    rng = random.Random("tabled/503")
    bases = [rng.randrange(1, params.p) for _ in range(20)]
    exponents = [rng.randrange(-params.p, params.p) for _ in bases]
    assert multi_exp(params, bases, exponents) == _product_of_pows(params, bases, exponents)


# ------------------------------------------------- bulk draws of scalars

@pytest.mark.parametrize("q", [3, 11, 131, 251])
@pytest.mark.parametrize("count", [0, 1, 2, 5, 1000])
def test_random_scalars_equal_the_per_call_loop(q, count):
    # a small q reads one byte per value still missing, so it never reads
    # past the count-th byte kept; q = 131 drops about half its bytes,
    # q = 251 the fewest that any 8-bit q drops
    bulk, loop = Stream(q, f"scalars/{count}"), Stream(q, f"scalars/{count}")
    assert bulk.scalars(q, count) == [loop.below(q) for _ in range(count)]
    assert bulk.bits(64) == loop.bits(64)


def test_random_scalars_of_a_large_q_take_the_per_call_loop():
    q = setup("mid", 2).q
    bulk, loop = Stream(0, "scalars/mid"), Stream(0, "scalars/mid")
    assert bulk.scalars(q, 20) == [loop.below(q) for _ in range(20)]
    assert bulk.bits(64) == loop.bits(64)


# ------------------------------------------- mid-size preset, sliding windows

EVERY_PRESET = ["toy", "mid", "standard"]


def test_mid_preset_is_a_safe_prime_group_with_g_of_order_q():
    params = setup("mid", 10)
    p, q, g = params.p, params.q, params.g
    assert sympy.isprime(p) and sympy.isprime(q)
    assert (p, q, g) == (2**386 + 483943, 2**385 + 241971, 4)
    assert p == 2 * q + 1 and p.bit_length() == 387
    # q is prime, so g != 1 with g^q = 1 has order exactly q
    assert g != 1 and pow(g, q, p) == 1
    assert q > 2**385   # 128-bit challenges and integer s' < 2^385 are shorter than q


def _window_boundary_exponents(q):
    """0, 1, q - 1, q, q + 1, negative values, and for each width limit L
    the exponents with L - 1, L and L + 1 bits around the switch."""
    exponents = [0, 1, q - 1, q, q + 1, -1, -q, -(q + 1), -(2**128 - 1), 2 * q + 3]
    for limit in groups._WINDOW_LIMITS:
        exponents += [2 ** (limit - 1), 2**limit - 1, 2**limit, 2**limit + 1]
    return exponents


@pytest.mark.parametrize("preset", EVERY_PRESET)
def test_multi_exp_equals_pow_at_every_window_boundary(preset):
    params = setup(preset, 2)
    p, q = params.p, params.q
    rng = random.Random(f"sliding-window/{preset}")
    assert multi_exp(params, [], []) == 1
    exponents = _window_boundary_exponents(q)
    bases = _random_subgroup_elements(params, rng, 30)
    for e in exponents:                           # one base
        assert multi_exp(params, bases[:1], [e]) == pow(bases[0], e, p), e
    # 30 bases of mixed lengths: 20 of the exponents above, 10 full-size ones
    mixed = rng.sample(exponents, 20) + [rng.randrange(q) for _ in range(10)]
    rng.shuffle(mixed)
    expected = 1
    for b, e in zip(bases, mixed):
        expected = expected * pow(b, e, p) % p
    assert multi_exp(params, bases, mixed) == expected


def _signed_equations(params, rng):
    """True equations with short negative exponents, and bases that land
    on both sides of a batch: y positive in one equation and negative in
    another, x both in one equation, and t both a base and a target."""
    q = params.q
    x, y, z, t = _random_subgroup_elements(params, rng, 4)
    specs = [
        ((x, y), (rng.randrange(q), -rng.getrandbits(256))),
        ((y, z), (rng.randrange(q), -rng.getrandbits(128))),
        ((x, z, x), (rng.randrange(q), -1, -rng.getrandbits(384))),
        ((t, y), (-rng.getrandbits(128), rng.randrange(q))),
    ]
    equations = [(b, e, multi_exp(params, b, e)) for b, e in specs]
    return equations + [((y, t), (q, 1), t)]


@pytest.mark.parametrize("preset", EVERY_PRESET)
def test_products_equal_with_negative_exponents_equals_checking_each(preset):
    params = setup(preset, 2)
    equations = _signed_equations(params, random.Random(f"signed/{preset}"))
    each = lambda eqs: all(multi_exp(params, b, e) == t for b, e, t in eqs)
    assert each(equations)
    assert products_equal(params, equations)
    # a changed short-side exponent is rejected, as is a changed target
    for k, (bases, exponents, target) in enumerate(equations):
        for i, e in enumerate(exponents):
            if e < 0:
                changed = equations[:]
                changed[k] = (bases, (*exponents[:i], e - 1, *exponents[i + 1 :]), target)
                assert not each(changed)
                assert not products_equal(params, changed), (k, i)
        changed = equations[:]
        changed[k] = (bases, exponents, target * params.g % params.p)
        assert not products_equal(params, changed), k


@pytest.mark.parametrize("preset", EVERY_PRESET)
def test_products_equal_with_target_one_equals_checking_each(preset, monkeypatch):
    # an equation stated as a product equal to 1 is checked like any other,
    # and in a large group the target 1 never becomes a base of the product
    params = setup(preset, 2)
    rng = random.Random(f"identity-target/{preset}")
    x, y = _random_subgroup_elements(params, rng, 2)
    a, b = rng.randrange(params.q), rng.getrandbits(128)
    t = multi_exp(params, (x, y), (a, b))
    equations = _signed_equations(params, rng) + [((x, y, t), (a, b, -1), 1)]
    bases_seen = []
    original = groups.multi_exp

    def recording(params, bases, exponents):
        bases_seen.extend(bases)
        return original(params, bases, exponents)

    monkeypatch.setattr(groups, "multi_exp", recording)
    assert products_equal(params, equations)
    assert 1 not in bases_seen
    for changed in (((x, y, t), (a + 1, b, -1), 1), ((x, y, t), (a, b, -2), 1),
                    ((x, y, t), (a, b, -1), params.g)):
        assert not products_equal(params, equations[:-1] + [changed]), changed


@pytest.mark.parametrize("preset", ["mid", "standard"])
def test_batch_weights_follow_every_base_exponent_and_target(preset):
    # the weights are hashed from the equations, whether or not they hold
    params = setup(preset, 2)
    p, q, g = params.p, params.q, params.g
    rng = random.Random(f"batch-weights/{preset}")
    x, y, z, t = _random_subgroup_elements(params, rng, 4)
    equations = [((x, y), (rng.randrange(q), -rng.getrandbits(128)), z),
                 ((z, t), (rng.randrange(q), rng.getrandbits(384)), x)]
    weights = batch_weights(params, equations)
    assert len(weights) == 2 and weights[0] != weights[1]
    assert all(0 <= w < 2**128 for w in weights)

    def edited(k, bases=None, exponents=None, target=None):
        old = equations[k]
        new = (bases or old[0], exponents or old[1], target or old[2])
        return equations[:k] + [new] + equations[k + 1 :]

    changed = []
    for k, (bases, exponents, target) in enumerate(equations):
        for i in range(len(bases)):
            changed.append(edited(k, bases=(*bases[:i], bases[i] * g % p, *bases[i + 1 :])))
            changed.append(edited(k, exponents=(*exponents[:i], exponents[i] + 1,
                                                *exponents[i + 1 :])))
        changed.append(edited(k, target=target * g % p))
    # y's pair moves from the first equation to the head of the second
    (a, b), (c, d) = equations[0][1], equations[1][1]
    changed.append([((x,), (a,), z), ((y, z, t), (b, c, d), x)])
    # the same integers, in the same order, cut into other equations
    assert batch_weights(params, [((x, y), (a, d), 1), ((z,), (c,), t)]) != \
        batch_weights(params, [((x,), (a,), y), ((d, z), (1, c), t)])
    for other in changed:
        assert batch_weights(params, other) != weights, other
    # an exponent moved by q is the same equation
    assert batch_weights(params, edited(0, exponents=(a - q, b + q))) == weights
    assert batch_weights(params, edited(1, exponents=(c + 2 * q, d))) == weights


def test_batch_weights_are_pinned_on_a_fixed_mid_equation_list():
    # the weights of a fixed list, recorded before the weights and the
    # shuffle's challenges were cut by one function: a negative
    # exponent, an exponent above q, a zero one and a target of 1
    params = setup("mid", 2)
    p, q, g = params.p, params.q, params.g
    x, y, z = pow(g, 3, p), pow(g, 2**200 + 7, p), pow(g, q - 1, p)
    equations = [((x, y), (5, -(2**127 + 3)), z),
                 ((z, g, x), (q + 9, 2**384 - 1, 0), 1),
                 ((y,), (q - 1,), x)]
    assert batch_weights(params, equations) == [0x211E0C918E6011B4458B86D0BF12D1F3,
                                                0x45796DC10CC1083184F45D600E0A99D9,
                                                0xD89646354A9BF9D903D8FB59458B65A7]


# ------------------------------------------------- the two-block comb

def _comb_boundary_exponents(q, cols, half):
    """0, q - 1, q, negative values, and 2^k - 1, 2^k, 2^k + 1 at every
    half-column and row boundary k of the comb, up to past q's length."""
    exponents = [0, q - 1, q, q + 1, -1, -q, -(2**half), -(2 ** (3 * cols) + 1)]
    top = groups._COMB_ROWS * cols + half + 1
    for k in sorted({*range(0, top, half), *range(0, top, cols)}):
        exponents += [2**k - 1, 2**k, 2**k + 1]
    return exponents


@pytest.mark.parametrize("preset", ["mid", "standard"])
def test_fixed_base_equals_pow_at_every_comb_boundary(preset):
    params = setup(preset, 2)
    p, q = params.p, params.q
    rng = random.Random(f"comb/{preset}")
    for base in [params.g, *_random_subgroup_elements(params, rng, 1)]:
        power = fixed_base(params, base)
        comb = power.__self__
        for e in _comb_boundary_exponents(q, comb.cols, comb.half):
            assert power(e) == pow(base, e, p), (base, e)


def test_comb_with_an_odd_column_count_equals_pow():
    # Neither preset has an odd number of columns, where the high block is
    # one bit shorter than the low one.  A comb needs only that the base's
    # order divide q, so a prime P, q = P - 1 and any base reach that case.
    prime = sympy.nextprime(2**135)
    comb = groups._Comb(prime, prime - 1, 3)
    assert comb.cols == 17 and comb.half == 9
    rng = random.Random("comb/odd")
    exponents = _comb_boundary_exponents(prime - 1, comb.cols, comb.half)
    exponents += [rng.getrandbits(136) for _ in range(50)]
    for e in exponents:
        assert comb.pow(e) == pow(3, e, prime), e


@pytest.mark.parametrize("preset", ["mid", "standard"])
def test_comb_table_holds_two_blocks_of_256_entries(preset):
    params = setup(preset, 2)
    p, g = params.p, params.g
    comb = fixed_base(params, g).__self__
    low, high = comb.tables
    assert len(low) == len(high) == 2**8
    # low[d] is the product of g^(2^(i * cols)) over the rows i set in d,
    # and high[d] = low[d]^(2^half)
    for d in (1, 2, 3, 128, 255):
        exponent = sum(1 << i * comb.cols for i in range(8) if d >> i & 1)
        assert low[d] == pow(g, exponent, p)
        assert high[d] == pow(low[d], 1 << comb.half, p)


# ------------------------------------- comb tables inside multi_exp

def _product_of_pows(params, bases, exponents):
    expected = 1
    for b, e in zip(bases, exponents):
        expected = expected * pow(b, e, params.p) % params.p
    return expected


@pytest.mark.parametrize("preset", ["mid", "standard"])
def test_multi_exp_with_comb_tables_equals_product_of_pows(preset):
    # g and x get tables between the two evaluations, y and z never do;
    # every case is computed with no table, then with both
    params = setup(preset, 2)
    q, g = params.q, params.g
    rng = random.Random(f"tabled/{preset}")
    x, y, z = _random_subgroup_elements(params, rng, 3)
    cols = -(-q.bit_length() // groups._COMB_ROWS)
    cut_over = [2 ** (cols - 1), 2**cols - 1, 2**cols, 2**cols + 1, -(2**cols)]
    exponents = _window_boundary_exponents(q) + cut_over
    cases = [((g, y), (e, rng.getrandbits(128))) for e in exponents]
    # a tabled base given twice, beside an untabled one
    twice = cut_over + [0, q - 1, q + 1, -1]
    cases += [((x, z, x), (e, rng.getrandbits(128), f)) for e, f in zip(twice, reversed(twice))]
    cases.append(((g, x, y, z, g, x), (q - 1, -5, 0, rng.randrange(q), q + 1, rng.randrange(q))))
    groups._COMBS.clear()
    before = [multi_exp(params, b, e) for b, e in cases]
    assert len(groups._COMBS) == 0             # multi_exp builds no table
    fixed_base(params, g), fixed_base(params, x)
    assert fixed_base(params, g).__self__.cols == cols
    after = [multi_exp(params, b, e) for b, e in cases]
    for case, got_before, got_after in zip(cases, before, after):
        assert got_before == got_after == _product_of_pows(params, *case), case


@pytest.mark.parametrize("preset", ["mid", "standard"])
def test_multi_exp_chain_is_as_long_as_the_longest_untabled_exponent(preset, monkeypatch):
    params = setup(preset, 2)
    q, g = params.q, params.g
    comb = fixed_base(params, g).__self__
    y = _random_subgroup_elements(params, random.Random("chain"), 1)[0]
    lengths = []
    original = groups._square_and_multiply
    monkeypatch.setattr(groups, "_square_and_multiply",
                        lambda p, slots: lengths.append(len(slots)) or original(p, slots))
    for e_g, e_y in [(q - 1, 2**128 - 1), (2**comb.cols, 1), (2**comb.cols - 1, 3)]:
        assert multi_exp(params, (g, y), (e_g, e_y)) == _product_of_pows(params, (g, y),
                                                                         (e_g, e_y))
    # a full exponent of g walks its table in half steps; one of at most
    # cols bits is windowed, as a base without a table would be
    assert lengths == [max(comb.half, 128), comb.half, comb.cols]


def test_comb_cache_is_bounded_and_drops_the_least_recently_used():
    params = setup("mid", 2)
    p, q = params.p, params.q
    size = groups._COMB_CACHE_SIZE
    bases = _random_subgroup_elements(params, random.Random("cache"), size + 1)
    groups._COMBS.clear()
    assert groups._comb(p, q, bases[0]) is None                 # a lookup builds nothing
    assert len(groups._COMBS) == 0
    first = groups._comb(p, q, bases[0], build=True)
    for b in bases[1:size]:
        groups._comb(p, q, b, build=True)
    assert groups._comb(p, q, bases[0]) is first                # now the most recent
    groups._comb(p, q, bases[size], build=True)
    assert len(groups._COMBS) == size
    assert groups._comb(p, q, bases[1]) is None                 # the least recent went
    assert groups._comb(p, q, bases[0]) is first
    assert all(groups._comb(p, q, b) is not None for b in bases[2:])
    groups._COMBS.clear()


@pytest.mark.parametrize("preset", EVERY_PRESET)
def test_power_equals_builtin_pow(preset):
    params = setup(preset, 2)
    p, q = params.p, params.q
    base = _random_subgroup_elements(params, random.Random("power"), 1)[0]
    for e in (0, 1, q - 1, q, q + 1, -1, -q, 2**130 + 7):
        assert power(params, base, e) == pow(base, e, p), e


# ------------------------------------------------- stacked equations

def test_unstack_yields_every_row_in_order():
    # a row passes as it is; a stacked entry's shared values repeat
    row = ((2, 3), (4, 5), 6)
    stacked = ((2, [3, 4]), ([5, 6], 7), [8, 9])
    assert list(unstack([row, stacked, ((), (), [1, 1])])) == [
        row, ((2, 3), (5, 7), 8), ((2, 4), (6, 7), 9), ((), (), 1), ((), (), 1)]


def _stack(params, rng, k):
    """A stacked entry of k rows that holds: shared and per-row bases,
    none of them 1, under shared, per-row and negative exponents."""
    q = params.q
    element = lambda: pow(params.g, rng.randrange(1, q), params.p)
    per_row = lambda draw: [draw() for _ in range(k)]
    bases = (element(), per_row(element), element(), per_row(element), element())
    exponents = (rng.randrange(q), per_row(lambda: rng.randrange(q)),
                 per_row(lambda: -rng.getrandbits(128)), rng.randrange(q),
                 -rng.getrandbits(128))
    target = [multi_exp(params, b, e) for b, e, _ in unstack([(bases, exponents, [1] * k)])]
    return bases, exponents, target


@pytest.mark.parametrize("preset", EVERY_PRESET)
def test_a_stack_is_checked_as_its_rows(preset):
    params = setup(preset, 2)
    rng = random.Random(f"stacked/{preset}")
    entries = [_stack(params, rng, k) for k in (1, 3, 7)]
    entries[1:1] = _true_equations(params, rng, 3)
    rows = list(unstack(entries))
    assert products_equal(params, entries) is products_equal(params, rows) is True
    bases, exponents, target = entries[-1]
    false = (bases, exponents, [*target])
    false[2][1] = target[1] * params.g % params.p
    assert products_equal(params, [false]) is products_equal(params, list(unstack([false]))) \
        is False


@pytest.mark.parametrize("preset", EVERY_PRESET)
def test_a_stack_rejects_any_one_changed_row(preset):
    # each row's target, and each row's value of every per-row exponent
    params = setup(preset, 2)
    rng = random.Random(f"stacked-rows/{preset}")
    bases, exponents, target = _stack(params, rng, 5)
    assert products_equal(params, [(bases, exponents, target)])
    for r in range(5):
        changed = [*target]
        changed[r] = changed[r] * params.g % params.p
        assert not products_equal(params, [(bases, exponents, changed)]), r
        for i, e in enumerate(exponents):
            if isinstance(e, int):
                continue
            column = [*e]
            column[r] += 1
            changed = (*exponents[:i], column, *exponents[i + 1 :])
            assert not products_equal(params, [(bases, changed, target)]), (r, i)


def test_a_toy_stack_with_bases_outside_the_table_gives_pows_answer():
    # 0, p, p + 2 and 3p + 5 are not in the log table, shared or per row
    params = setup("toy", 2)
    p = params.p
    rng = random.Random("stacked-outside")
    for shared in (0, p, p + 2, 5):
        column = [rng.choice((0, p, p + 2, 3 * p + 5, 2, 13)) for _ in range(6)]
        bases = (shared, column, params.g)
        exponents = ([rng.randrange(1, 30) for _ in column], 3,
                     [-rng.randrange(30) for _ in column])
        rows = list(unstack([(bases, exponents, [0] * 6)]))
        target = [_product_of_pows(params, b, e) for b, e, _ in rows]
        assert products_equal(params, [(bases, exponents, target)]), (shared, column)
        for r in range(6):
            wrong = [*target]
            wrong[r] = (wrong[r] + 1) % p
            assert not products_equal(params, [(bases, exponents, wrong)]), (shared, column, r)


@pytest.mark.parametrize("preset", ["mid", "standard"])
def test_a_large_group_weighs_the_rows_of_a_stack(preset, monkeypatch):
    params = setup(preset, 2)
    rng = random.Random(f"stacked-weights/{preset}")
    entries = [_stack(params, rng, 3), *_true_equations(params, rng, 3), _stack(params, rng, 2)]
    weighed = []

    def recording(params, equations):
        weighed.append(equations)
        return batch_weights(params, equations)

    monkeypatch.setattr(groups, "batch_weights", recording)
    assert products_equal(params, iter(entries))
    assert weighed == [list(unstack(entries))]
    assert len(weighed[0]) == 8
