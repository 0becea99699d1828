"""What perfbench's traced run needs from the library.

The benchmark reaches into canalis from outside: it replaces module
attributes by timing wrappers, feeds the sampler a random source that
has only ``getrandbits``, and reads numpy's entry in the import-time
report. A change to any of these breaks the traced run without failing
any other test, so they are pinned here.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import CountingRandom, Tracer  # noqa: E402

from canalis import exact_counts, generator, oracle, probability  # noqa: E402

WRAPPED = {
    generator: ["generate", "sample_category", "classify", "category_weights"],
    probability: ["prob_breakdown", "decimal_string"],
    exact_counts: ["count_exact_k", "scientific_string"],
    oracle: ["enumerate_classify"],
}


def test_wrapped_attributes_exist_and_are_restored():
    originals = {(m, a): getattr(m, a) for m, names in WRAPPED.items() for a in names}
    tracer = Tracer()
    run._install_wrappers(tracer)
    try:
        assert {(m, a) for m, a, _ in tracer._installed} == set(originals)
        assert all(getattr(m, a) is not f for (m, a), f in originals.items())
    finally:
        tracer.uninstall()
    assert all(getattr(m, a) is f for (m, a), f in originals.items())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_sampler_draws_through_the_counting_proxy(name):
    # a traced workload gives each generator a proxy that has getrandbits
    # and nothing else; every bias of the workload must draw through it
    wl = workloads.WORKLOADS[name](1, Tracer(), str(PERFBENCH.parent))
    for stream in wl.streams:
        assert isinstance(stream.rng, CountingRandom)
        table, record = stream.draw()
        assert table.n == wl.n and record.q >= 0
        assert stream.rng.calls > 0


def test_traced_round_reports_every_sampler_layer():
    tracer = Tracer()
    run._install_wrappers(tracer)
    try:
        wl = workloads.wide(3, tracer, str(PERFBENCH.parent))
        stats = run.measure(wl, 0)
        metrics = wl.layer_metrics(tracer, stats)
    finally:
        tracer.uninstall()
    assert stats["errors"] == [] and stats["failed"] == 0
    for key in ("attempts_per_draw", "bits_per_draw", "rng_calls_per_draw", "self_ms_per_draw"):
        assert metrics[f"generator.{key}"][0] > 0
    assert metrics["truth_table.classify_calls_per_draw"][0] == 0
    # generate calls sample_category through the module attribute once per
    # draw, so the category layer keeps its own timing
    assert tracer.calls["sample_category"] == stats["attempted"] > 0


def test_import_times_include_numpy():
    canalis_ms, numpy_ms = workloads.import_times(workloads._program_env(str(PERFBENCH.parent)))
    assert canalis_ms > 0 and numpy_ms > 0
