"""A long float32 sum folds in float64.

A float32 vector too long to block (more than 32,768 floats — the Fig. 2 CNN
has 406,922) takes :class:`~repro.core.partial.ExactPartial`'s one-row path.
Its terms are summed through the cascade in float64, one component while no
lane spans more than float64's 53 bits and an expansion where one does; and
through the format's own cascade, continued from the exact pieces of the sum,
from the first sum that nears float32's range or holds a non-finite value.
``len()`` counts the float32 pieces ``components`` ships.  ``round()``
casts the lanes held in one float64 component (one rounding of the exact
value) and walks the others in float32.

Everything is checked bitwise against a reference kept here — every term
through a float32 TwoSum cascade, then the fsum-style rounding walk — over
K = 1..8 terms of drawn lanes (±0, subnormals, values near ``finfo.max``,
±inf, NaN) on top of a seeded background whose exponent spread forces
uncertified lanes; and the wire: ``pack_partial`` → ``unpack_partial`` →
``merge`` → ``round()`` is a fixed point.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.partial import ExactPartial, pack_partial, unpack_partial

DIM = 32_768 + 1_000  # past the longest float32 vector a block of 8 rows takes
LANES = 16  # drawn lanes, at the head of each vector; the rest is seeded background
TOP = float(np.finfo(np.float32).max)


def _reference_round(terms) -> np.ndarray:
    """The float32 cascade, then the walk: K <= 8 adds hold at most 8
    component arrays, so the compaction that starts past 8 never runs."""
    comps = []
    for term in terms:
        q, grown = np.array(term, dtype=np.float32), []
        for e in comps:
            s = q + e
            bv = s - q
            err = (q - (s - bv)) + (e - bv)
            if np.any(err):
                grown.append(err)
            q = s
        comps = grown + [q]
    if not comps:
        return np.zeros(DIM, np.float32)
    hi = comps[-1] + np.float32(0)
    if len(comps) == 1:
        return hi
    lo, done, tail_sign = np.zeros_like(hi), np.zeros(len(hi), dtype=bool), np.zeros_like(hi)
    for y in reversed(comps[:-1]):
        active = ~done
        s = hi + y
        resid = y - (s - hi)
        np.copyto(hi, s, where=active)
        np.copyto(lo, resid, where=active)
        newly = active & (lo != 0)
        done |= newly
        np.copyto(tail_sign, np.sign(y), where=done & ~newly & (tail_sign == 0) & (y != 0))
    half = np.float32(2) * lo
    bumped = hi + half
    np.copyto(hi, bumped, where=((bumped - hi) == half) & (lo != 0) & (np.sign(lo) == tail_sign))
    return hi


def _summed(terms) -> ExactPartial:
    acc = ExactPartial(DIM, np.float32)
    for term in terms:
        np.copyto(acc.row(), term)
    return acc


_SPECIAL = [0.0, -0.0, 1.0, -1.0, 2.0**-24, 1.0 + 2.0**-23, 2.0**-149, -(2.0**-149), 2.0**-126, TOP, -TOP, TOP / 2, TOP / 8]
_NON_FINITE = [np.inf, -np.inf, np.nan, -np.nan]


@st.composite
def _long_sums(draw):
    count = draw(st.integers(1, 8))
    poison = draw(st.booleans())
    element = st.one_of(
        st.floats(width=32, allow_nan=False, allow_infinity=False, allow_subnormal=True),
        st.sampled_from(_SPECIAL + (_NON_FINITE if poison else [])),
    )
    lanes = draw(st.lists(st.lists(element, min_size=LANES, max_size=LANES), min_size=count, max_size=count))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    decades = draw(st.sampled_from([0, 4, 12, 30]))  # 12+: lanes float64 cannot hold in one component
    background = rng.standard_normal((count, DIM - LANES)) * 10.0 ** rng.integers(-decades, decades + 1, (count, DIM - LANES))
    return np.concatenate([np.array(lanes, dtype=np.float32), background.astype(np.float32)], axis=1)


@settings(max_examples=60, deadline=None)
@given(_long_sums())
def test_the_float64_fold_rounds_to_the_float32_cascade(terms):
    with np.errstate(over="ignore", invalid="ignore"):
        acc = _summed(terms)
        assert acc._block_rows == 1
        got = acc.round()
        assert got.tobytes() == _reference_round(terms).tobytes()
        if not np.isfinite(got).all():
            return
        # the wire carries exact float32 pieces: a fixed point through pack, unpack and merge
        shipped = unpack_partial(pack_partial(acc))
        assert all(piece.dtype == np.float32 for piece in shipped) and len(shipped) == len(acc)
        again = ExactPartial(DIM, np.float32)
        again.merge(shipped)
        assert again.round().tobytes() == got.tobytes()


@pytest.mark.parametrize("case", ["certified", "uncertified", "near_max", "non_finite"])
def test_each_way_a_long_sum_is_held(case):
    """Similar magnitudes stay one float64 component; a 60-decade lane spread
    keeps a float64 expansion; a sum past 2^126, or an inf, hands the sum to the
    float32 cascade — each rounding to the reference's bits."""
    rng = np.random.default_rng(5)
    scale = 10.0 ** rng.integers(-30, 31, size=(6, DIM)) if case == "uncertified" else 0.1
    terms = (rng.standard_normal((6, DIM)) * scale).astype(np.float32)
    if case == "near_max":
        terms[2:5, 7] = [TOP / 2, TOP / 4, -TOP / 2]
    elif case == "non_finite":
        terms[3, 7] = np.inf
    with np.errstate(over="ignore", invalid="ignore"):
        acc = _summed(terms)
        got = acc.round()
        assert got.tobytes() == _reference_round(terms).tobytes()
    held = {"certified": (True, 1), "uncertified": (True, 2), "near_max": (False, 2), "non_finite": (False, 2)}
    assert (acc._wide is not None, min(len(acc._comps), 2)) == held[case]  # the held components, not the shipped pieces
    if case == "non_finite":
        assert np.isnan(got[7]) and np.isfinite(np.delete(got, 7)).all()
