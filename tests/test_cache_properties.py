"""Property tests of chunked value tables (needs hypothesis)."""

import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from ekconst.cache import (FunctionTag, full_range, load, merge,  # noqa: E402
                           precompute, save)
from ekconst.multgroup import build_context  # noqa: E402

CONTEXTS = {q: build_context(q) for q in (5, 101, 1009)}
WHOLE = {(q, tag): precompute(ctx, tag)
         for q, ctx in CONTEXTS.items() for tag in FunctionTag}


@st.composite
def chunkings(draw):
    q = draw(st.sampled_from(sorted(CONTEXTS)))
    tag = draw(st.sampled_from(list(FunctionTag)))
    hi = full_range(q, tag)[1]
    cuts = draw(st.lists(st.integers(0, hi), max_size=8))
    bounds = [0] + sorted(cuts) + [hi]
    return q, tag, list(zip(bounds, bounds[1:]))


@settings(max_examples=60, deadline=None)
@given(chunkings())
def test_merged_chunks_equal_one_shot_precompute(case):
    q, tag, ranges = case
    parts = [precompute(CONTEXTS[q], tag, r) for r in ranges]
    whole = WHOLE[(q, tag)]
    merged = merge(parts)
    assert merged.values.tobytes() == whole.values.tobytes()
    assert merged.partial_sum == whole.partial_sum
    with tempfile.TemporaryDirectory() as tmp:
        back = load(save(merged, Path(tmp) / "t.ekc"))
        reloaded = merge([load(save(t, Path(tmp) / f"p{i}.ekc"))
                          for i, t in enumerate(parts)])
    for table in (back, reloaded):
        assert table.values.tobytes() == whole.values.tobytes()
        assert table.partial_sum == whole.partial_sum
        assert table.checksum_residual() == whole.checksum_residual()
