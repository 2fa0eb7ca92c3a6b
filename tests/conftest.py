"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import strategies as st

from fqhent import FockVector, MultiPoly, SlaterExpansion
from fqhent import figures, states


@pytest.fixture(autouse=True)
def empty_memos():
    """Start and end every test with empty point and Vandermonde memos.

    A test then computes what it checks, whatever ran before it in the
    same process, and a forked worker inherits no measured point.
    """
    figures._measured_point.cache_clear()
    states._expansions.clear()
    yield
    figures._measured_point.cache_clear()
    states._expansions.clear()


def squared_magnitudes(v: FockVector) -> dict:
    """Each configuration's exact squared amplitude |w_c| / total."""
    return {c: Fraction(abs(w), v.total) for c, w in v.weights.items()}


@st.composite
def multi_polys(
    draw,
    nvars: int | None = None,
    max_nvars: int = 3,
    max_exp: int = 4,
    max_terms: int = 5,
):
    if nvars is None:
        nvars = draw(st.integers(1, max_nvars))
    keys = draw(
        st.lists(
            st.tuples(*[st.integers(0, max_exp)] * nvars),
            min_size=0,
            max_size=max_terms,
            unique=True,
        )
    )
    coeffs = draw(
        st.lists(
            st.integers(-9, 9).filter(bool),
            min_size=len(keys),
            max_size=len(keys),
        )
    )
    return MultiPoly(nvars, dict(zip(keys, coeffs)))


@st.composite
def slater_expansions(draw, max_nvars: int = 3, max_orbital: int = 7):
    nvars = draw(st.integers(2, max_nvars))
    lams = draw(
        st.lists(
            st.lists(
                st.integers(0, max_orbital),
                min_size=nvars,
                max_size=nvars,
                unique=True,
            ).map(lambda xs: tuple(sorted(xs, reverse=True))),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    coeffs = draw(
        st.lists(
            st.integers(-9, 9).filter(bool),
            min_size=len(lams),
            max_size=len(lams),
        )
    )
    return SlaterExpansion(nvars, dict(zip(lams, coeffs)))


@st.composite
def dim4_two_fermion_states(draw):
    """Random two-fermion states over four orbitals with integer amplitudes."""
    configs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    picked = draw(
        st.lists(st.sampled_from(configs), min_size=1, max_size=6, unique=True)
    )
    numerators = draw(
        st.lists(
            st.integers(-9, 9).filter(bool),
            min_size=len(picked),
            max_size=len(picked),
        )
    )
    return FockVector(2, 4, {c: v * abs(v) for c, v in zip(picked, numerators)})


@st.composite
def unnormalized_terms(
    draw, max_particles: int = 3, max_dim: int = 6, max_denominator: int = 1
):
    """(N, dim, {config: (sign, squared magnitude)}) of a non-homogeneous state.

    Squared magnitudes are random positive rationals, integers by default,
    so amplitude products are mostly irrational; configurations carry at
    least two distinct total angular momenta.
    """
    n = draw(st.integers(2, max_particles))
    dim = draw(st.integers(n + 1, max_dim))
    configs = draw(
        st.lists(
            st.sets(st.integers(0, dim - 1), min_size=n, max_size=n).map(
                lambda modes: tuple(sorted(modes))
            ),
            min_size=2,
            max_size=8,
            unique=True,
        ).filter(lambda cs: len({sum(c) for c in cs}) > 1)
    )
    terms = {
        c: (
            draw(st.sampled_from((1, -1))),
            Fraction(draw(st.integers(1, 20)), draw(st.integers(1, max_denominator))),
        )
        for c in configs
    }
    return n, dim, terms


def irrational_mixed_states(max_particles: int = 3, max_dim: int = 6):
    """Non-homogeneous states whose squared magnitudes are random integers.

    Amplitude products are then mostly irrational, so the density matrix is
    built from float products.
    """
    return unnormalized_terms(max_particles, max_dim).map(
        lambda args: FockVector.from_unnormalized(*args)
    )


@st.composite
def mixed_weight_states(draw, max_particles: int = 4, max_dim: int = 8):
    """Non-homogeneous states whose weights mix squares, non-squares and huge values.

    A weight is a perfect square, a small non-square, a random value above
    2**64, or k r^2 for k in {2, 3, 5} and r up to 2**34, so that products
    of two non-squares are often perfect squares and many density entries
    stay exact.
    """
    n = draw(st.integers(2, max_particles))
    dim = draw(st.integers(n + 1, max_dim))
    configs = draw(
        st.lists(
            st.sets(st.integers(0, dim - 1), min_size=n, max_size=n).map(
                lambda modes: tuple(sorted(modes))
            ),
            min_size=2,
            max_size=10,
            unique=True,
        ).filter(lambda cs: len({sum(c) for c in cs}) > 1)
    )
    magnitudes = st.one_of(
        st.integers(1, 40).map(lambda r: r * r),
        st.integers(2, 60),
        st.integers(2**64, 2**70),
        st.tuples(st.sampled_from((2, 3, 5)), st.integers(1, 2**34)).map(
            lambda kr: kr[0] * kr[1] ** 2
        ),
    )
    weights = {c: draw(st.sampled_from((1, -1))) * draw(magnitudes) for c in configs}
    return FockVector(n, dim, weights)
