"""The benchmark's tracer (benchmarks/tracing.py) times the program by
replacing module attributes of ekconst; these checks keep those attributes
where it looks for them, so a traced run still sees every layer."""

import os

import pytest

from ekconst import cache, cli, multgroup, offsets

cache_load = cache.load

BENCHMARKS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "benchmarks")


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(BENCHMARKS)
    import tracing
    return tracing


def test_traced_compute_sees_every_layer(tracing, capsys):
    q = 101
    tracer = tracing.Tracer(True)
    with tracer.patched():
        code = cli.main(["compute", str(q), "--method", "both"])
    assert code == 0
    assert capsys.readouterr().out.startswith(f"q = {q}\n")
    names = {span.name for span in tracer.spans}
    assert {"multgroup.build_context", "fft.dft", "ek.compute_ek",
            *(f"specfun.{tag}" for tag in tracing.TAGS)} <= names
    # four transforms of length (q-1)/2: route s packs log Gamma into one
    # and S pair with the Bernoulli input into another, route t packs T
    # and psi into one each
    assert tracer.counts[("setup", "fft.points")] == 4 * (q - 1) // 2
    assert cli.build_context is multgroup.build_context  # restored


def _traced_cache_flow(tracing, tmp_path, q, cut):
    """The cache_reuse flow for q: each table precomputed in the parts
    [0, cut) and [cut, end), merged with --out, then compute from the
    merged tables, each call through the tracer's wrappers; the tracer."""
    chunks, merged = tmp_path / "chunks", tmp_path / "merged"
    merged.mkdir()
    tracer = tracing.Tracer(True)
    with tracer.patched():
        for tag in tracing.TAGS:
            hi = cache.full_range(q, cache.FunctionTag(tag))[1]
            for k0, k1 in ((0, cut), (cut, hi)):
                assert cli.main(["precompute", str(q), "--tag", tag,
                                 "--range", str(k0), str(k1),
                                 "--cache", str(chunks)]) == 0
            out = merged / cache.part_filename(cache.FunctionTag(tag), q, 0)
            assert cli.main(["merge", str(q), "--tag", tag,
                             "--cache", str(chunks), "--out", str(out)]) == 0
        assert cli.main(["compute", str(q), "--method", "both",
                         "--cache", str(merged)]) == 0
    assert cache.load is cache_load  # restored
    return tracer


def test_traced_cache_flow_sees_every_layer(tracing, capsys, tmp_path):
    tracer = _traced_cache_flow(tracing, tmp_path, 101, 10)
    assert "\nmethod = both\n" in capsys.readouterr().out
    names = {span.name for span in tracer.spans}
    assert {"cache.save", "cache.load", "cache.merge", "cache.verify",
            "ek.compute_ek",
            *(f"specfun.{tag}" for tag in tracing.TAGS)} <= names


def test_traced_cache_flow_above_the_fsum_cutoff(tracing, capsys, tmp_path):
    # every part holds at least cache._FSUM_BELOW values, so no table sum
    # goes through math.fsum
    q = 10007
    assert (q - 1) // 4 >= cache._FSUM_BELOW
    tracer = _traced_cache_flow(tracing, tmp_path, q, (q - 1) // 4)
    assert "\nmethod = both\n" in capsys.readouterr().out
    names = {span.name for span in tracer.spans}
    assert {"cache.load", "cache.merge", "cache.verify"} <= names


def test_traced_scan_sees_its_rows_under_the_cli_span(tracing, capsys):
    # scan runs its rows in worker threads; their spans still nest under
    # the span of the cli.main call that started them
    tracer = tracing.Tracer(True)
    with tracer.patched():
        code = cli.main(["scan", "3", "30", "--with-vq", "--threads", "1"])
    assert code == 0
    assert capsys.readouterr().out.startswith(cli.CSV_HEADER + "\n")

    def under_cli(i):
        while tracer.spans[i].parent is not None:
            i = tracer.spans[i].parent
            if tracer.spans[i].name == "cli":
                return True
        return False

    layers = ("ek.compute_ek", "offsets.v_of_q", "multgroup.build_context")
    seen = {span.name for i, span in enumerate(tracer.spans)
            if span.name in layers and under_cli(i)}
    assert seen == set(layers)


def test_traced_stieltjes_sees_build_table_under_the_cli_span(tracing,
                                                             capsys):
    tracer = tracing.Tracer(True)
    with tracer.patched():
        assert cli.main(["stieltjes", "7", "--kmax", "3"]) == 0
    assert capsys.readouterr().out.count("\n") == 1 + 4 * 7
    assert [(span.name, span.parent) for span in tracer.spans] == [
        ("cli", None), ("stieltjes.build_table", 0)]
    assert tracer.counts[("setup", "stieltjes.entries")] == 28


def test_traced_vq_sees_v_of_q_under_the_cli_span(tracing, capsys):
    tracer = tracing.Tracer(True)
    with tracer.patched():
        assert cli.main(["vq", "1009"]) == 0
    assert capsys.readouterr().out.count("\n") == 1
    assert [(span.name, span.parent) for span in tracer.spans] == [
        ("cli", None), ("offsets.v_of_q", 0)]
    assert tracer.counts[("setup", "offsets.v_of_q.candidates")] == (
        offsets.GREEDY_COUNT - 1)
