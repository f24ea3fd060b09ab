"""Verdicts against the benchmark's independent oracles, on generated inputs.

bench/oracles.py states each family's expected (status, constraints) from
the rule the paper gives, without importing lagcut.  It is loaded by path
under its own module name, since tests/oracles.py holds the name `oracles`.
"""

import importlib.util
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from lagcut.obstruct import check_lens, check_product_spheres, check_sphere, check_torus, exact_verdict

_spec = importlib.util.spec_from_file_location(
    "bench_oracles", Path(__file__).resolve().parent.parent / "bench" / "oracles.py"
)
bench_oracles = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_oracles)
LIBRARY_ORACLES = bench_oracles.LIBRARY_ORACLES


def verdict_of(check, args):
    doc = check(*args).to_json_dict()
    return doc["status"], doc["constraints"]


@st.composite
def sphere_args(draw):
    N_e = draw(st.integers(1, 40))
    N = draw(st.sampled_from([N for N in range(2, 2 * N_e + 1) if (2 * N_e) % N == 0]))
    return draw(st.integers(2, 200)), N_e, N


@st.composite
def product_args(draw):
    m = draw(st.integers(1, 30))
    return draw(st.integers(1, m)), m, draw(st.integers(1, 400))


in_domain = st.one_of(
    st.tuples(st.just(check_sphere), sphere_args()),
    st.tuples(st.just(check_torus), st.tuples(st.integers(1, 40), st.integers(1, 400))),
    st.tuples(st.just(check_product_spheres), product_args()),
    st.tuples(st.just(check_lens), st.tuples(st.integers(2, 5000), st.integers(1, 40))),
    st.tuples(st.just(exact_verdict), st.tuples(st.integers(2, 100), st.integers(1, 5000), st.booleans())),
)


@settings(max_examples=300, deadline=None)
@given(in_domain)
def test_verdicts_match_the_bench_oracles(case):
    check, args = case
    assert verdict_of(check, args) == LIBRARY_ORACLES[check.__name__](*args)
