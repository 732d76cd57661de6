"""Prime-field primitives of the sparse interpolation: primality, the
two-adic field and its discrete logs, Berlekamp-Massey, root finding and
the transposed Vandermonde solve, each against a planted answer or a
direct computation (trial division, ``pow``, brute-force search)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdres.sparseinterp import (
    LinearGenerator,
    crt,
    discrete_log,
    is_prime,
    next_prime,
    roots_mod,
    transposed_vandermonde,
    two_adic_field,
)

P61 = (1 << 61) - 1
P62 = 531 * 2**52 + 1           # a word-size prime with 2^52 | p - 1
WORD = two_adic_field(1 << 61, 19)   # S1's k: D = 297073 < 2^19


def trial_division_prime(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def two_adic_order(m):
    return (m & -m).bit_length() - 1


def field_of(p):
    """The two-adic field of the prime p at its full 2-adic order k."""
    field = two_adic_field(p - 1, two_adic_order(p - 1))
    assert field.p == p
    return field


def poly_from_roots(roots, p):
    """Monic prod (z - r) over GF(p), lowest degree first."""
    f = [1]
    for r in roots:
        f = [0] + f
        for i in range(len(f) - 1):
            f[i] = (f[i] - r * f[i + 1]) % p
    return f


def smallest_nonresidue(p):
    return next(x for x in range(2, p) if pow(x, (p - 1) // 2, p) == p - 1)


def test_is_prime_matches_trial_division_below_10_5():
    sieve = [True] * 100_000
    sieve[0] = sieve[1] = False
    for i in range(2, 317):
        if sieve[i]:
            sieve[i * i::i] = [False] * len(range(i * i, 100_000, i))
    assert [n for n in range(100_000) if is_prime(n)] == [
        n for n in range(100_000) if sieve[n]]
    assert all(is_prime(n) == trial_division_prime(n)
               for n in range(99_000, 100_000))


def test_is_prime_on_large_known_values():
    assert is_prime(P61)
    assert not is_prime(P61 * 3)
    # Carmichael numbers and a strong pseudoprime to the bases up to 23
    assert not any(is_prime(n) for n in (561, 41041, 825265,
                                         3825123056546413051))
    assert next_prime(P61 - 1) == P61


@pytest.mark.parametrize("terms", [1, 5, 17])
def test_linear_generator_finds_a_planted_recurrence(terms):
    # a_j = sum_t w_t m_t^j has minimal generator prod (z - m_t); the m_t
    # are term values omega^index, as in the interpolation
    rng = random.Random(terms)
    p, k, omega = WORD
    indices = rng.sample(range(1 << k), terms)
    roots = [pow(omega, i, p) for i in indices]
    weights = [rng.randrange(1, p) for _ in roots]
    gen = LinearGenerator(p)
    for j in range(2 * terms + 4):
        gen.add(sum(w * pow(m, j, p) for w, m in zip(weights, roots)))
    assert gen.length == terms
    assert gen.generator() == poly_from_roots(roots, p)
    assert roots_mod(gen.generator(), WORD) == sorted(roots)
    assert [discrete_log(m, WORD) for m in sorted(roots)] == [
        i for _, i in sorted(zip(roots, indices))]
    assert transposed_vandermonde(sorted(roots), gen.seq, p) == [
        w for _, w in sorted(zip(roots, weights))]


def test_linear_generator_on_a_recurrence_with_repeated_roots():
    # a_j = j * omega^j: generator (z - omega)^2, not squarefree
    p, _, omega = WORD
    gen = LinearGenerator(p)
    for j in range(8):
        gen.add(j * pow(omega, j, p))
    assert gen.length == 2
    assert gen.generator() == [omega * omega % p, -2 * omega % p, 1]
    assert roots_mod(gen.generator(), WORD) is None


@pytest.mark.parametrize("p", [101, 65537, P61, WORD.p])
def test_roots_mod_splits_a_planted_product(p):
    field = field_of(p)
    rng = random.Random(p)
    indices = rng.sample(range(1 << field.k), min(1 << field.k, 12))
    roots = [pow(field.omega, i, p) for i in indices]
    assert roots_mod(poly_from_roots(roots, p), field) == sorted(roots)
    assert roots_mod([1], field) == []


@pytest.mark.parametrize("p", [101, 65537, P61])
def test_roots_mod_rejects_an_irreducible_quadratic(p):
    field = field_of(p)
    a = smallest_nonresidue(p)
    assert roots_mod([-a % p, 0, 1], field) is None           # z^2 - a
    # a split factor times the irreducible one does not split either
    f = [(-a * 5) % p, (-a) % p, 5, 1]                        # (z+5)(z^2-a)
    assert roots_mod(f, field) is None


@pytest.mark.parametrize("field", [two_adic_field(1000, 4), WORD],
                         ids=["small", "word"])
def test_roots_mod_rejects_roots_off_the_two_adic_group(field):
    p, k, omega = field
    outside = smallest_nonresidue(p)
    assert pow(outside, 1 << k, p) != 1        # not a 2^k-th root of unity
    for roots in ([omega, omega],                 # repeated
                  [omega, 1, outside],            # one root outside
                  [outside],
                  [omega, 0],                     # the root 0
                  [0]):
        assert roots_mod(poly_from_roots(roots, p), field) is None
    assert roots_mod(poly_from_roots([omega, 1], p), field) == sorted(
        [omega, 1])


@pytest.mark.parametrize("p", [65537, P62])
def test_roots_mod_splits_roots_sharing_their_top_two_adic_levels(p):
    # omega^i and omega^j stay together until the lowest bit where i and j
    # differ: indices that differ only in the top bit part last
    field = field_of(p)
    k, omega = field.k, field.omega
    rng = random.Random(p)
    i = rng.randrange(1 << (k - 2))
    indices = {i, i + (1 << (k - 1)), i + (1 << (k - 2)),
               i + (3 << (k - 2)), 0, 1 << (k - 1)}
    indices |= set(rng.sample(range(1 << k), 20))
    roots = [pow(omega, j, p) for j in indices]
    assert roots_mod(poly_from_roots(roots, p), field) == sorted(roots)
    assert sorted(discrete_log(m, field) for m in roots) == sorted(indices)


@settings(derandomize=True, deadline=None)
@given(st.sets(st.integers(0, (1 << 19) - 1), max_size=12))
def test_roots_mod_splits_drawn_subsets_of_the_two_adic_group(indices):
    p, _, omega = WORD
    roots = [pow(omega, i, p) for i in indices]
    assert roots_mod(poly_from_roots(roots, p), WORD) == sorted(roots)


@pytest.mark.parametrize("terms", [1, 4, 30])
def test_transposed_vandermonde_round_trips(terms):
    rng = random.Random(terms)
    p = next_prime(1 << 62)
    roots = rng.sample(range(1, p), terms)
    weights = [rng.randrange(p) for _ in roots]
    seq = [sum(w * pow(m, j, p) for w, m in zip(weights, roots)) % p
           for j in range(terms)]
    assert transposed_vandermonde(roots, seq, p) == weights


@pytest.mark.parametrize("n, k", [(0, 1), (2, 1), (17, 2), (100, 3),
                                  (1000, 4), (4099, 8), (30000, 10),
                                  (297073, 12)])
def test_two_adic_field_is_the_smallest_prime_of_its_form(n, k):
    field = two_adic_field(n, k)
    p, omega = field.p, field.omega
    assert field.k == k and p > n and trial_division_prime(p)
    assert (p - 1) % (1 << k) == 0
    assert not any(trial_division_prime(q) and (q - 1) % (1 << k) == 0
                   for q in range(n + 1, p))
    assert omega == pow(smallest_nonresidue(p), (p - 1) >> k, p)
    # order exactly 2^k: brute force over the powers
    assert [pow(omega, e, p) == 1 for e in range(1, (1 << k) + 1)] == [
        False] * ((1 << k) - 1) + [True]


@pytest.mark.parametrize("n, k", [(1 << 61, 19), (1 << 61, 57),
                                  (1 << 61, 60), ((1 << 61) << 64, 19)])
def test_two_adic_field_is_the_smallest_above_a_large_bound(n, k):
    p, _, omega = two_adic_field(n, k)
    assert p > n and is_prime(p) and (p - 1) % (1 << k) == 0
    assert not any(is_prime(q) for q in range(p - (1 << k), n, -(1 << k)))
    assert pow(omega, 1 << (k - 1), p) == p - 1


def test_two_adic_field_stays_word_size_above_2_61():
    assert [two_adic_field(1 << 61, k).p < 1 << 63 for k in (19, 57)] == [
        True, True]


def test_two_adic_field_above_2_29_is_one_digit_up_to_k_24():
    # a sequence prime fits one 30-bit CPython digit up to k = 24; no
    # prime below 2^30 has 2^27 | p - 1, so k = 25..27 take 31 bits
    assert all(two_adic_field(1 << 29, k).p < 1 << 30 for k in range(1, 25))
    assert not any(is_prime((m << 27) + 1) for m in range(1, 8))
    assert [two_adic_field(1 << 29, k).p.bit_length()
            for k in (25, 26, 27)] == [31, 31, 31]


@settings(derandomize=True, deadline=None)
@given(st.lists(st.integers(0, 1 << 80), min_size=1, max_size=5),
       st.integers(0, 4), st.integers(1, 3))
def test_crt_matches_the_residues_of_each_prime(values, first, count):
    primes = [two_adic_field(1 << 29, 6).p]
    for _ in range(first + count):
        primes.append(two_adic_field(primes[-1], 6).p)
    primes = primes[first:]
    residues, modulus = [v % primes[0] for v in values], primes[0]
    for p in primes[1:]:
        residues = crt(residues, modulus, [v % p for v in values], p)
        modulus *= p
    assert residues == [v % modulus for v in values]


@pytest.mark.parametrize("n", [0, 1000, 297073, 1 << 61, (1 << 61) << 64])
def test_discrete_log_inverts_pow(n):
    field = two_adic_field(n, 19)
    p, k, omega = field
    rng = random.Random(n)
    exps = [0, 1, (1 << k) - 1, 1 << (k - 1)] + [rng.randrange(1 << k)
                                                 for _ in range(40)]
    for e in exps:
        assert discrete_log(pow(omega, e, p), field) == e


def test_discrete_log_of_zero_raises():
    with pytest.raises(ValueError):
        discrete_log(WORD.p, WORD)


def test_discrete_log_is_exhaustive_on_a_small_field():
    # every x in GF(p): the log of a 2^k-th root of unity is found by
    # search, and every other x, 0 included, raises
    field = two_adic_field(1000, 6)
    p, k, omega = field
    logs = {pow(omega, e, p): e for e in range(1 << k)}
    assert len(logs) == 1 << k
    for x in range(p):
        if x in logs:
            assert discrete_log(x, field) == logs[x]
        else:
            with pytest.raises(ValueError):
                discrete_log(x, field)
