"""Independent reference computations used to pin library results.

Nothing here imports the package under test.  Binomials come from an
additive Pascal recurrence rather than math.comb, and the roots-of-unity
sum is evaluated through Ramanujan sums (Moebius/totient arithmetic)
rather than by re-summing binomial columns.
"""

from __future__ import annotations

from math import gcd


def pascal_row(d: int) -> list[int]:
    """Row d of Pascal's triangle, built by the additive recurrence."""
    row = [1]
    for _ in range(d):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row


def mobius(n: int) -> int:
    if n < 1:
        raise ValueError("n must be >= 1")
    result = 1
    k = 2
    while k * k <= n:
        if n % k == 0:
            n //= k
            if n % k == 0:
                return 0
            result = -result
        k += 1
    if n > 1:
        result = -result
    return result


def totient(n: int) -> int:
    if n < 1:
        raise ValueError("n must be >= 1")
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def ramanujan_row(M: int) -> list[int]:
    """Values c_M(r) for r = 0..M-1: sums of r-th powers of the primitive
    M-th roots of unity, which are integers by Moebius inversion."""
    row = []
    for r in range(M):
        g = gcd(r, M)
        q = M // g
        num = mobius(q) * totient(M)
        den = totient(q)
        assert num % den == 0
        row.append(num // den)
    return row


_RAMANUJAN_CACHE: dict[int, list[int]] = {}


def _ramanujan(M: int) -> list[int]:
    if M not in _RAMANUJAN_CACHE:
        _RAMANUJAN_CACHE[M] = ramanujan_row(M)
    return _RAMANUJAN_CACHE[M]


def cyclotomic_filter_sum(d: int, N: int) -> int:
    """Exact integer value of the sum over k = 1..N-1 of (1 + z^k)^d for a
    primitive N-th root of unity z.

    Expanding binomially and grouping the powers z^(ki) by the order of
    z^k gives a double sum of binomials against Ramanujan sums; every
    divisor M >= 2 of N contributes the trace of its primitive roots.
    """
    row_d = pascal_row(d)
    total = 0
    for M in range(2, N + 1):
        if N % M:
            continue
        c = _ramanujan(M)
        total += sum(row_d[i] * c[i % M] for i in range(d + 1))
    return total


def brute_fold(dims: list[int] | tuple[int, ...], N: int) -> list[int]:
    """Reference fold: bucket graded dimensions by residue."""
    out = [0] * N
    for k, b in enumerate(dims):
        out[k % N] += b
    return out


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    k = 2
    while k * k <= n:
        if n % k == 0:
            return False
        k += 1
    return True
