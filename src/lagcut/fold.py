"""Folding graded cohomology into a Z/N grading, and the torus sum identity.

All S_j arithmetic is exact big-integer arithmetic.  The trigonometric
closed form of the roots-of-unity filter is a floating cross-check only;
the integer side is always the authority.

A torus folds like any other ring, `fold_mod(make_torus(d), N)`; for even
N its sum identity, N S_j = 2^d for every j, is the fold's 2-periodicity.

Every verdict folds through one call, `_fold_ring(ring, N)`, which decides
the fold without building its N entries.  It returns the text of S_0..S_k,
S_k the last nonzero entry, the count N - 1 - k of zeros after it, the
fold's 2-periodicity and S_0; for N >= 2 the tuple's text is "(", that
text, ", 0" once per zero, then ")".  Above the dimension one rule serves
every ring: S_j = b_j up to dim and 0 above, so the shift by 2 takes
S_{N-2} = 0 onto S_0 = 1 for N >= dim + 3, and S_{N-1} = 0 onto S_1 = b_1
!= 0 at N = dim + 2; such a fold is the ring's Betti text, then N - 1 - dim
zeros.  Any other fold of a ring with a class in every degree, such as the
torus, reads a view built once per ring: N strided sums of its Betti list
below N^2 = 4 (dim + 1), and the list's chunks of N entries added above, in
O(min(N, (dim + 1) / N)) steps.  Above N = (dim + 1) / 2 the text of S_j =
b_j, j >= dim + 1 - N, is a slice of the Betti text, built when a second
such fold reads it, so a ring folded there once never builds it.  Any other
ring folds by its nonzero residues in O(|support|) steps, its Betti text in
a second view.  Each view keeps one ring, by identity.
"""

from __future__ import annotations

import math
from itertools import accumulate, islice
from operator import add, itemgetter
from typing import Iterable, Sequence

from .coring import CohomologyRing, _check_digits, binomial_row


# Largest N a fold takes, refused before its N entries are allocated.  Each
# check bounds its own N first: 2 N_e for check_torus and check_product_spheres,
# which fold at every even divisor of 2 N_e, and the grading N of check_sphere.
# A trace prints all N entries of a fold.  At 2 N_e = 2,096,640, the even number
# under the limit with the largest sum of even divisors, `check torus --d 64
# --format json` takes 0.18-0.26 s and 117 MB, nearly all for the 27 MB it prints;
# `check sphere` at N = 2^21 takes 0.03 s (cli.run, CPython 3.11, 2-core VM).
MAX_FOLD_MODULUS = 1 << 21


class InvalidModulusError(ValueError):
    """Raised for moduli outside an operation's domain."""


def _check_modulus(N: int) -> None:
    if N < 1:
        raise InvalidModulusError("invalid-modulus: N must be >= 1")
    if N > MAX_FOLD_MODULUS:
        _check_digits("N", N)
        raise InvalidModulusError(f"invalid-modulus: N = {N} is above the limit of {MAX_FOLD_MODULUS}")


def _fold_pairs(pairs: Iterable[tuple[int, int]], N: int) -> dict[int, int]:
    # {j: S_j} for the nonzero S_j, S_j summing the dimensions b > 0 of the pairs (k, b), k = j mod N
    out: dict[int, int] = {}
    for k, b in pairs:
        j = k % N
        out[j] = out.get(j, 0) + b
    return out


def fold_mod(ring: CohomologyRing, N: int) -> tuple[int, ...]:
    """Fold the Betti numbers of a ring into the Z/N grading: S_0..S_{N-1}."""
    _check_modulus(N)  # before the N entries are allocated
    residues = _fold_pairs(ring.support, N)
    out = [0] * N
    for j, s in residues.items():
        out[j] = s
    return tuple(out)


def _fold_ring(ring: CohomologyRing, N: int) -> tuple[str, int, bool, int]:
    # The text S_0, ..., S_k of fold_mod(ring, N) up to its last nonzero entry
    # S_k, the N - 1 - k zeros after it, whether the fold is 2-periodic, and
    # S_0: by the witness above the dimension, else by slices of a ring with a
    # class in every degree or by residues.  The shift by 2 permutes Z/N, so
    # if it keeps S on the nonzero residues it keeps the zero ones.
    _check_modulus(N)
    dim = ring.dim
    if N >= dim + 3 or N == dim + 2 and ring.betti_number(1):
        return _betti_text(ring), N - 1 - dim, False, 1
    if len(ring.support) == dim + 1 and N <= dim + 1:
        return _fold_dense(ring, N)
    residues = _fold_pairs(ring.support, N)
    periodic = {(j + 2) % N: s for j, s in residues.items()} == residues
    pairs = sorted(residues.items())
    return _zero_runs(pairs), N - 1 - pairs[-1][0], periodic, residues[0]


def _zero_runs(pairs: Sequence[tuple[int, int]]) -> str:
    # the text S_0, ..., S_k of the nonzero (j, S_j) from j = 0 to k, each run of zeros at once
    parts, last = [str(pairs[0][1])], 0
    for j, s in islice(pairs, 1, None):
        parts += (", 0" * (j - last - 1), f", {s}")
        last = j
    return "".join(parts)


def _betti_text(ring: CohomologyRing) -> str:
    # b_0, ..., b_dim, read from the ring's view
    if len(ring.support) == ring.dim + 1:
        betti, text, _ = _dense_view(ring, True)
        return text or ", ".join(map(str, betti))
    global _last_text
    last, text = _last_text
    if last is not ring:
        text = _zero_runs(ring.support)
        _last_text = (ring, text)
    return text


# the last sparse ring whose Betti text was read, and that text, as _last_view
_last_text: tuple[CohomologyRing | None, str] = (None, "")


def _fold_dense(ring: CohomologyRing, N: int) -> tuple[str, int, bool, int]:
    # _fold_ring for a ring with every b_k >= 1 at N <= dim + 1, so every S_j
    # is nonzero.  Lists and map only: CPython frees a tuple(genexpr) of under
    # 20 entries onto its size's free list without having taken one from it,
    # so those lists fill up.
    size = ring.dim + 1
    split = size - N  # S_j = b_j for j >= split
    betti, text, ends = _dense_view(ring, 2 * split < size)
    if N * N < 4 * size:  # where strided sums beat chunks
        S = [sum(betti[j::N]) for j in range(N)]
    else:
        S = betti[:N]
        for i in range(N, size, N):
            S[:min(N, size - i)] = map(add, S, betti[i:i + N])
    periodic = S[2:] == S[:-2] and S[:2] == S[-2:]
    if 2 * split >= size or not text:
        head = ", ".join(map(str, S))
    else:
        head = ", ".join(map(str, S[:split])) + text[ends[split]:ends[N]] if split > 0 else text
    return head, 0, periodic, S[0]


_View = tuple[list[int], str | None, list[int] | None]

# The last dense ring folded and its view: the Betti list, then its text and
# ends, ends[k] the end of b_{k-1}'s text (-2 for k = 0).  Both are None until
# a fold above (dim + 1) / 2 asks for them; that fold gets the text "" and
# writes its entries itself, and the next one builds them.  The pair is
# replaced whole, so a thread reads one ring with that ring's own view, and it
# keeps the ring alive, so no other ring can be the same object.
_last_view: tuple[CohomologyRing | None, _View] = (None, ([], None, None))


def _dense_view(ring: CohomologyRing, with_text: bool) -> _View:
    global _last_view
    last, view = _last_view
    if last is not ring:
        view = (list(map(itemgetter(1), ring.support)), None, None)
        _last_view = (ring, view)
    if with_text and not view[1]:
        if view[1] is None:
            view = (view[0], "", None)
        else:
            strs = list(map(str, view[0]))
            view = (view[0], ", ".join(strs), list(accumulate(map((2).__add__, map(len, strs)), initial=-2)))
        _last_view = (ring, view)
    return view


def is_two_periodic(dims: Sequence[int]) -> bool:
    """True iff shifting the folded dimensions by 2 leaves them unchanged."""
    N = len(dims)
    return all(dims[j] == dims[(j + 2) % N] for j in range(N))


def roots_of_unity_residual(d: int, N: int) -> float:
    """Relative gap between N*S_0 - 2^d and its trigonometric closed form.

    The integer left side is the oracle.  The float side is the real
    expansion of the roots-of-unity filter, sum over k = 1..N-1 of
    (2 cos(k pi / N))^d * cos(k d pi / N).  Both sides are divided by 2^d
    before any float is formed (integer true division rounds the exact
    quotient), so large d cannot overflow.
    """
    if d < 0:
        raise ValueError("d must be >= 0")
    if N < 2:
        raise InvalidModulusError("invalid-modulus: N must be >= 2")
    row = binomial_row(d)
    _check_modulus(N)
    left = N * sum(row[::N]) - (1 << d)
    trig = 0.0
    for k in range(1, N):
        trig += math.cos(math.pi * k / N) ** d * math.cos(math.pi * k * d / N)
    return abs(left / (1 << d) - trig)
