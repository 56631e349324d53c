"""The benchmark's tracer (benchmarks/tracing.py) times the program by
replacing module attributes of ekconst; these checks keep those attributes
where it looks for them, so a traced run still sees every layer."""

import os

import pytest

from ekconst import cli, multgroup

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
    # four transforms of length (q-1)/2 per route
    assert tracer.counts[("setup", "fft.points")] == 4 * (q - 1)
    assert cli.build_context is multgroup.build_context  # restored
