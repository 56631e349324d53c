"""Property tests of chunked value tables and of their exact sum (needs
hypothesis)."""

import math
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from ekconst import cache  # noqa: E402
from ekconst.cache import (FunctionTag, find, full_range,  # noqa: E402
                           load, part_filename, precompute, save)
from ekconst.multgroup import build_context  # noqa: E402

CONTEXTS = {q: build_context(q) for q in (5, 101, 1009)}
WHOLE = {(q, tag): precompute(ctx, tag)
         for q, ctx in CONTEXTS.items() for tag in FunctionTag}


@st.composite
def chunkings(draw):
    q = draw(st.sampled_from(sorted(CONTEXTS)))
    tag = draw(st.sampled_from(list(FunctionTag)))
    hi = full_range(q, tag)[1]
    # distinct cuts above 0: two parts that start at one k would share a
    # name; a cut at hi gives an empty last part [hi, hi)
    cuts = draw(st.lists(st.integers(1, hi), unique=True, max_size=8))
    bounds = [0] + sorted(cuts) + [hi]
    return q, tag, list(zip(bounds, bounds[1:]))


@settings(max_examples=60, deadline=None)
@given(chunkings())
def test_merged_chunks_equal_one_shot_precompute(case):
    q, tag, ranges = case
    whole = WHOLE[(q, tag)]
    with tempfile.TemporaryDirectory() as tmp:
        for r in ranges:
            save(precompute(CONTEXTS[q], tag, r),
                 Path(tmp) / part_filename(tag, q, r[0]))
        merged = find(tmp, q, tag)[0]
        back = load(save(merged, Path(tmp) / "t.ekc"))
    for table in (merged, back):
        assert table.values.tobytes() == whole.values.tobytes()
        assert table.partial_sum == whole.partial_sum
        assert table.checksum_residual() == whole.checksum_residual()


def _outcome(func, *args):
    """func(*args), or the type of the OverflowError or ValueError it
    raises."""
    try:
        return func(*args)
    except (OverflowError, ValueError) as exc:
        return type(exc)


def _bucket_sum(xs, slice_len):
    """The outcome of cache._exact_sum of xs by exponent buckets, whatever
    their count, in slices of slice_len values."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(cache, "_FSUM_BELOW", 0)
        m.setattr(cache, "_SUM_SLICE", slice_len)
        return _outcome(cache._exact_sum, np.array(xs, dtype=np.float64))


SLICES = st.sampled_from([1, 3, cache._SUM_SLICE])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                max_size=40), SLICES)
def test_bucket_sum_of_finite_values_is_fsum(xs, slice_len):
    # the default float strategy draws subnormals, +-0 and values near
    # the largest float
    got = _bucket_sum(xs, slice_len)
    want = _outcome(math.fsum, xs)
    if want is OverflowError:
        # an intermediate sum of fsum's overflowed; the buckets give the
        # exact sum, rounded once, or overflow with it
        want = _outcome(float, sum(map(Fraction, xs), Fraction(0)))
    if isinstance(want, float):
        assert got == want
        assert math.copysign(1.0, got) == math.copysign(1.0, want)
    else:
        assert got is want


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(), max_size=20),
       st.lists(st.sampled_from([math.nan, math.inf, -math.inf]),
                min_size=1, max_size=3),
       st.randoms(use_true_random=False), SLICES)
def test_bucket_sum_of_nan_or_inf_is_what_fsum_gives(xs, special, rnd,
                                                     slice_len):
    xs = xs + special
    rnd.shuffle(xs)
    got, want = _bucket_sum(xs, slice_len), _outcome(math.fsum, xs)
    if isinstance(want, float):
        assert got == want or math.isnan(got) and math.isnan(want)
    else:
        assert got is want
