"""Seeded operation streams for the three workloads.

An operation is a tuple (category, entry, args): entry "cli.run" takes an
argv list, any other entry names a function of lagcut.obstruct called with
the args tuple.  Streams are endless and built from rounds: every round
holds the same multiset of categories in a seeded order, and the values
that set an operation's cost are drawn from strata visited once per pass
in a seeded order.  A run of a few seconds therefore sees the same mix on
every seed, and only the inputs themselves change with the seed.
"""

from __future__ import annotations

import random
from typing import Callable, Iterator

Op = tuple  # (category, entry, args)


class Strata:
    """Integers in [lo, hi], one from each of `bins` equal strata per pass."""

    def __init__(self, rng: random.Random, lo: int, hi: int, bins: int = 8) -> None:
        self.rng, self.lo, self.span, self.bins = rng, lo, hi - lo + 1, bins
        self.queue: list[int] = []

    def __call__(self) -> int:
        if not self.queue:
            self.queue = list(range(self.bins))
            self.rng.shuffle(self.queue)
        b = self.queue.pop()
        return self.lo + int((b + self.rng.random()) * self.span / self.bins)


class Cycle:
    """The given items, each once per pass, in a seeded order."""

    def __init__(self, rng: random.Random, items) -> None:
        self.rng, self.items = rng, list(items)
        self.queue: list = []

    def __call__(self):
        if not self.queue:
            self.queue = list(self.items)
            self.rng.shuffle(self.queue)
        return self.queue.pop()


def _divisor_at_least_2(rng: random.Random, n: int) -> int:
    return rng.choice([k for k in range(2, n + 1) if n % k == 0])


def _rounds(rng: random.Random, round_fn: Callable[[], list[Op]], lead: str) -> Iterator[Op]:
    """Shuffled rounds; the stream opens with an op of category `lead`."""
    ops = round_fn()
    rng.shuffle(ops)
    ops.sort(key=lambda op: op[0] != lead)
    yield from ops
    while True:
        ops = round_fn()
        rng.shuffle(ops)
        yield from ops


# -- query-mix: one-shot cli.run over every subcommand, small parameters ----


def query_mix(rng: random.Random) -> tuple[Iterator[Op], int]:
    r = rng.randint

    def classes():
        return ["classes", "--euler", str(r(1, 8)), "--level", f"-{r(1, 5)}/{r(1, 5)}", "--dim", str(r(2, 7))]

    def identity():
        return ["identity", "--d", str(r(1, 64)), "--modulus", str(2 * r(1, 32))]

    def fold():
        d = r(1, 20)
        candidate = rng.choice(
            [
                f"sphere:d={r(1, 40)}",
                f"torus:d={d}",
                f"prodsph:l={r(1, 10)},m={r(10, 20)}",
                f"cp:n={r(1, 10)}",
                "custom:betti=[1,1,1,1],gens=[1,2]",
            ]
        )
        return ["fold", "--candidate", candidate, "--modulus", str(r(1, 44))]

    def sphere():
        euler = r(1, 16)
        grading = _divisor_at_least_2(rng, 2 * euler)
        return ["check", "sphere", "--d", str(r(2, 40)), "--euler", str(euler), "--grading", str(grading)]

    def torus():
        return ["check", "torus", "--d", str(r(2, 16)), "--euler", str(r(1, 8))]

    def prodsph():
        m = r(1, 20)
        return ["check", "prodsph", "--l", str(r(1, m)), "--m", str(m), "--euler", str(r(1, 24))]

    def lens():
        return ["check", "lens", "--p", str(r(2, 13)), "--n", str(r(1, 6))]

    def exact():
        argv = ["check", "exact", "--d", str(r(2, 40)), "--euler", str(r(1, 30))]
        return argv + ["--surjectivity"] if r(0, 1) else argv

    # Inputs outside the domain, as users mistype them; a typed error is
    # the correct outcome.
    outside = Cycle(
        rng,
        [
            lambda: ["classes", "--euler", str(r(1, 8)), "--level", f"{r(0, 3)}/{r(1, 3)}"],
            lambda: ["classes", "--euler", "0", "--level", "-1/2"],
            lambda: ["identity", "--d", str(r(1, 64)), "--modulus", str(2 * r(1, 16) + 1)],
            lambda: ["fold", "--candidate", f"sphere:d={r(1, 40)}", "--modulus", "0"],
            lambda: ["check", "sphere", "--d", str(r(2, 40)), "--euler", "3", "--grading", rng.choice(["4", "5", "12"])],
            lambda: ["check", "prodsph", "--l", str(r(11, 20)), "--m", str(r(1, 10)), "--euler", str(r(1, 24))],
            lambda: ["check", "torus", "--d", str(r(2, 16)), "--euler", "0"],
            lambda: ["check", "lens", "--p", rng.choice(["0", "1"]), "--n", str(r(1, 6))],
            lambda: ["check", "exact", "--d", rng.choice(["0", "1"]), "--euler", str(r(1, 30))],
        ],
    )
    inside = [classes, identity, fold, sphere, torus, prodsph, lens, exact]

    def round_fn() -> list[Op]:
        makers = [(f.__name__, f) for f in inside for _ in range(2)]
        makers += [("outside", outside()) for _ in range(4)]
        formats = ["text", "json"] * (len(makers) // 2)
        rng.shuffle(formats)
        return [(name, "cli.run", maker() + ["--format", fmt]) for (name, maker), fmt in zip(makers, formats)]

    return _rounds(rng, round_fn, "classes"), 20


# -- large-params: library checks whose cost grows with d or the Euler number


def large_params(rng: random.Random) -> tuple[Iterator[Op], int]:
    torus_d = Strata(rng, 16, 128)
    torus_euler = Cycle(rng, [2520, 5040, 7560, 10080, 15120, 20160])
    lens_p = Strata(rng, 10**5, 10**6)
    exact_euler = Strata(rng, 10**5, 10**6)
    sphere_d = Strata(rng, 1000, 10**4)
    prodsph_m = Strata(rng, 100, 200)
    prodsph_euler = Cycle(rng, [720, 1260, 2520, 5040])

    def round_fn() -> list[Op]:
        euler = rng.randint(1, 64)
        m = prodsph_m()
        return [
            ("torus", "check_torus", (torus_d(), torus_euler())),
            ("lens", "check_lens", (lens_p(), rng.randint(1, 1000))),
            ("exact", "exact_verdict", (rng.randint(2, 2000), exact_euler(), rng.random() < 0.5)),
            ("sphere", "check_sphere", (sphere_d(), euler, _divisor_at_least_2(rng, 2 * euler))),
            ("prodsph", "check_product_spheres", (rng.randint(1, m), m, prodsph_euler())),
        ]

    return _rounds(rng, round_fn, "sphere"), 5


# -- sweep: cli scans of a few hundred rows over all five families ----------


def sweep(rng: random.Random) -> tuple[Iterator[Op], int]:
    # grid shapes of 400 to 600 rows, so the slowest tenth of ops is not
    # simply the largest grids
    sphere_lo, sphere_w = Strata(rng, 2, 40), Strata(rng, 22, 28)
    torus_lo, torus_w, torus_e = Strata(rng, 1, 12), Strata(rng, 18, 22), Strata(rng, 22, 26)
    split_gap, split_w, split_e = Strata(rng, 0, 12), Strata(rng, 10, 14), Strata(rng, 10, 12)
    meet_lo, meet_w, meet_e = Strata(rng, 1, 10), Strata(rng, 4, 8), Strata(rng, 4, 10)
    lens_p, lens_n = Strata(rng, 80, 100), Strata(rng, 5, 6)
    exact_lo, exact_w, exact_e = Strata(rng, 2, 20), Strata(rng, 36, 44), Strata(rng, 11, 13)
    surjectivity = Cycle(rng, [False, True])

    def grid(lo: int, width: int) -> str:
        return f"{lo}..{lo + width - 1}"

    def round_fn() -> list[Op]:
        lo, width = meet_lo(), meet_w()
        exact = ["scan", "--family", "exact", "--d", grid(exact_lo(), exact_w()), "--euler", f"1..{exact_e()}"]
        scans = [
            ("sphere", ["scan", "--family", "sphere", "--d", grid(sphere_lo(), sphere_w()), "--euler", "1..7", "--grading", "2..4"]),
            ("torus", ["scan", "--family", "torus", "--d", grid(torus_lo(), torus_w()), "--euler", f"1..{torus_e()}"]),
            ("prodsph", ["scan", "--family", "prodsph", "--l", "1..4", "--m", grid(4 + split_gap(), split_w()), "--euler", f"1..{split_e()}"]),
            # l and m over intervals that meet at one value, so rows with l = m
            ("prodsph-meet", ["scan", "--family", "prodsph", "--l", grid(lo, width), "--m", grid(lo + width - 1, width), "--euler", f"1..{meet_e()}"]),
            ("lens", ["scan", "--family", "lens", "--p", f"2..{lens_p()}", "--n", f"1..{lens_n()}"]),
            ("exact", exact + ["--surjectivity"] if surjectivity() else exact),
        ]
        return [(name, "cli.run", argv + ["--format", "json"]) for name, argv in scans]

    return _rounds(rng, round_fn, "lens"), 6


WORKLOADS = {"query-mix": query_mix, "large-params": large_params, "sweep": sweep}

# The percentile tail_ms reports: the highest of p90, p99 and p99.9 that
# keeps at least ten samples beyond it in a run at the seed even when the
# machine runs at 0.6 of its usual speed.  It is fixed per workload so that
# two commits are always compared on the same percentile.
TAIL_PERCENTILE = {"query-mix": 99, "large-params": 90, "sweep": 90}


def stream(workload: str, seed: int) -> tuple[Iterator[Op], int]:
    """The endless op stream of a workload and the number of ops per round."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))


def known_crashers(workload: str, seed: int) -> list[Op]:
    """Inputs inside the domain, from natural user ranges, that lagcut failed
    on when the benchmark was written.

    They stay out of the timed stream, whose ops must all succeed, and run
    once per run so the report shows whether each still fails:
    `identity --d` from 1024 on raises OverflowError in the float residual,
    and a prodsph scan whose l and m range over one interval exits 1 on its
    first l > m row and loses every row.
    """
    rng = random.Random(f"{workload}:{seed}:known-crashers")
    if workload == "query-mix":
        d = str(rng.randint(1024, 1152))
        return [
            ("identity-large", "cli.run", ["identity", "--d", d, "--modulus", str(2 * rng.randint(1, 4)), "--format", fmt])
            for fmt in ("text", "json")
        ]
    if workload == "sweep":
        lo = rng.randint(1, 10)
        same = f"{lo}..{lo + rng.randint(4, 8) - 1}"
        argv = ["scan", "--family", "prodsph", "--l", same, "--m", same, "--euler", f"1..{rng.randint(4, 10)}"]
        return [("prodsph-same", "cli.run", argv + ["--format", "json"])]
    return []
