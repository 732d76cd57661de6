"""Prime-field primitives for sparse (Ben-Or--Tiwari) interpolation.

A polynomial with T terms, evaluated at the powers q^0, q^1, ... of one
point, gives a sequence a_j = sum_t w_t m_t^j whose minimal linear
generator has the term values m_t as its roots.  This module holds the
four steps that recover the m_t and w_t over GF(p):

* ``next_prime``: the prime, by Miller-Rabin on fixed bases;
* ``LinearGenerator``: Berlekamp-Massey, fed one term at a time, so the
  caller can stop early (Kaltofen-Lee 2003);
* ``roots_mod``: the generator's roots, by Cantor-Zassenhaus;
* ``transposed_vandermonde``: the weights w_t from the first T terms.

Polynomials over GF(p) are lists of ints, lowest degree first, with no
trailing zeros.
"""

_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n):
    """Miller-Rabin on the 13 primes up to 41: exact below 3.3 * 10^24
    (Sorenson-Webster 2015); above, a composite must be a strong
    pseudoprime to all 13 bases."""
    if n < 2:
        return False
    for q in _BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n):
    """Smallest prime above n."""
    n += 1
    while not is_prime(n):
        n += 1
    return n


class LinearGenerator:
    """Berlekamp-Massey over GF(p), fed one sequence term at a time.

    After each ``add``, ``conn`` = 1 + c_1 z + ... + c_L z^L is a shortest
    connection polynomial of the terms seen: sum_i c_i a_(n-i) = 0 for all
    L <= n < len(seq), with L = ``length``.  Once len(seq) >= 2L the
    generator of that length is unique; every later term that leaves L
    unchanged had zero discrepancy, since a nonzero one would raise L.
    """

    def __init__(self, p):
        self.p = p
        self.seq = []
        self.conn = [1]
        self.length = 0
        self._prev = [1]
        self._prev_disc = 1
        self._shift = 1

    def add(self, value):
        p = self.p
        self.seq.append(value % p)
        n = len(self.seq) - 1
        disc = sum(c * self.seq[n - i] for i, c in enumerate(self.conn)) % p
        if disc == 0:
            self._shift += 1
            return
        coef = disc * pow(self._prev_disc, -1, p) % p
        new = self.conn + [0] * (len(self._prev) + self._shift - len(self.conn))
        for i, b in enumerate(self._prev):
            new[i + self._shift] = (new[i + self._shift] - coef * b) % p
        while len(new) > 1 and new[-1] == 0:
            new.pop()
        if 2 * self.length <= n:
            self._prev, self._prev_disc = self.conn, disc
            self.length = n + 1 - self.length
            self._shift = 1
        else:
            self._shift += 1
        self.conn = new

    def generator(self):
        """Monic z^L * conn(1/z), whose roots are the term values."""
        padded = self.conn + [0] * (self.length + 1 - len(self.conn))
        return padded[::-1]


def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _divmod(a, b, p):
    """(quotient, remainder) of a by a nonzero b over GF(p)."""
    rem = list(a)
    inv = pow(b[-1], -1, p)
    db = len(b) - 1
    quot = [0] * max(0, len(rem) - db)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i] * inv % p
        if c:
            quot[i - db] = c
            for j, v in enumerate(b):
                rem[i - db + j] = (rem[i - db + j] - c * v) % p
    return _trim(quot), _trim(rem[:db])


class _Residues:
    """Arithmetic in GF(p)[z] / (f), f monic of degree n >= 1, residues as
    lists of n ints.  Products go through Kronecker substitution: each
    polynomial packed into one int, one slot per coefficient, wide enough
    that n products of two residues cannot carry; the high half of a
    product is reduced with the table z^(n+k) mod f."""

    def __init__(self, f, p):
        self.f, self.p, self.n = f, p, len(f) - 1
        self.slot = (2 * p.bit_length() + self.n.bit_length() + 8) // 8
        self.table = []
        r = [0] * (self.n - 1) + [1]
        for _ in range(self.n - 1):
            r = self.times_linear(r, 0)
            self.table.append(self._pack(r))

    def _pack(self, a):
        return int.from_bytes(
            b"".join(c.to_bytes(self.slot, "little") for c in a), "little")

    def _unpack(self, x, count):
        data, s, p = x.to_bytes(count * self.slot, "little"), self.slot, self.p
        return [int.from_bytes(data[i:i + s], "little") % p
                for i in range(0, count * s, s)]

    def mul(self, a, b):
        n = self.n
        prod = self._unpack(self._pack(a) * self._pack(b), 2 * n - 1)
        acc = self._pack(prod[:n])
        for c, t in zip(prod[n:], self.table):
            acc += c * t
        return self._unpack(acc, n)

    def times_linear(self, a, c):
        """(z + c) * a."""
        p, top = self.p, a[-1]
        shifted = [0] + a[:-1]
        return [(v - top * fv + c * av) % p
                for v, fv, av in zip(shifted, self.f, a)]

    def power_of_linear(self, c, e):
        """(z + c)^e, e >= 1, by left-to-right square and multiply."""
        r = self.times_linear([1] + [0] * (self.n - 1), c)
        for bit in bin(e)[3:]:
            r = self.mul(r, r)
            if bit == "1":
                r = self.times_linear(r, c)
        return _trim(r)


def _gcd(a, b, p):
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        a, b = b, _divmod(a, b, p)[1]
    inv = pow(a[-1], -1, p)
    return [v * inv % p for v in a]


def _sub(a, b, p):
    out = [0] * max(len(a), len(b))
    for i, v in enumerate(a):
        out[i] = v
    for i, v in enumerate(b):
        out[i] = (out[i] - v) % p
    return _trim(out)


def roots_mod(f, p, rng):
    """Sorted roots of the monic f over GF(p), an odd prime, when f splits
    into distinct linear factors; None otherwise.

    gcd(f, z^p - z) keeps the distinct linear factors; it must be f
    itself.  Cantor-Zassenhaus then splits f with gcd(f, (z+a)^((p-1)/2) - 1)
    for random a drawn from ``rng``; each try splits a product of two or
    more factors with probability about 1/2.
    """
    if len(f) == 1:
        return []
    if len(_gcd(f, _sub(_Residues(f, p).power_of_linear(0, p), [0, 1], p),
                p)) != len(f):
        return None
    roots, todo = [], [f]
    while todo:
        g = todo.pop()
        if len(g) == 2:
            roots.append(-g[0] % p)
            continue
        while True:
            power = _Residues(g, p).power_of_linear(rng.randrange(p),
                                                    (p - 1) // 2)
            h = _gcd(g, _sub(power, [1], p), p)
            if 1 < len(h) < len(g):
                break
        todo += [h, _divmod(g, h, p)[0]]
    return sorted(roots)


def transposed_vandermonde(roots, seq, p):
    """Weights w with sum_t w_t roots[t]^j == seq[j] mod p for j < T, the
    roots distinct and T = len(roots).

    With L(z) = prod (z - m_t) and L_t = L / (z - m_t) = sum_k b_k z^k,
    sum_k b_k seq[k] = w_t L_t(m_t), since L_t vanishes at every other
    root.
    """
    full = [1]
    for m in roots:
        full = [0] + full
        for i in range(len(full) - 1):
            full[i] = (full[i] - m * full[i + 1]) % p
    weights = []
    for m in roots:
        # synthetic division of L by z - m, top coefficient first
        quot = [0] * len(roots)
        acc = 0
        for k in range(len(roots), 0, -1):
            acc = (full[k] + acc * m) % p
            quot[k - 1] = acc
        num = sum(b * a for b, a in zip(quot, seq)) % p
        den = 0
        for b in reversed(quot):
            den = (den * m + b) % p
        weights.append(num * pow(den, -1, p) % p)
    return weights
