"""Span self-time arithmetic and the attribute-replacement wrappers."""

import json
from pathlib import Path

import tracing
from tracing import Span

import sqgraphs.cli
import sqgraphs.search
import sqgraphs.verify

ROOT = Path(__file__).resolve().parents[2]


def test_self_times_on_a_hand_built_tree():
    spans = [
        Span("a", 0.0, 10.0, -1, 0),
        Span("b", 1.0, 4.0, 0, 0),
        Span("c", 3.0, 6.0, 0, 0),  # overlaps b: the union is covered once
        Span("d", 8.0, 12.0, 0, 0),  # runs past its parent: clipped at 10
        Span("e", 2.0, 3.0, 1, 0),
        Span("f", 20.0, 21.5, -1, 5),
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 3.0, 4.0, 1.0, 1.5]


def test_recorder_wraps_every_binding_and_restores_them(tmp_path):
    originals = (sqgraphs.search.max_sum_search, sqgraphs.verify.count_graphs, sqgraphs.cli.main)
    recorder = tracing.Recorder()
    recorder.install()
    try:
        assert sqgraphs.verify.count_graphs is not originals[1]
        assert sqgraphs.verify.count_graphs is sqgraphs.search.count_graphs
        sqgraphs.cli.main(["exsum", "4", "3", "5", "--out", str(tmp_path)])
    finally:
        recorder.uninstall()
    assert (sqgraphs.search.max_sum_search, sqgraphs.verify.count_graphs, sqgraphs.cli.main) == originals
    assert recorder.missing == []
    spans = recorder.spans
    assert spans[0].name == "cli.main" and spans[0].parent == -1
    engine = next(i for i, sp in enumerate(spans) if sp.name == "search.max_sum_search")
    assert spans[engine].parent == 0 and spans[engine].info["optimal"] is True
    assert spans[engine].info["key"] == ("sum", 4, 3, 5)
    assert any(sp.name == "multigraph.find_violation" and sp.parent == engine for sp in spans)
    assert any(sp.name == "formulas.density" for sp in spans)
    assert all(sp.root == 0 for sp in spans)


def test_per_layer_reports_exactly_the_benchmark_metrics():
    import run
    import workloads

    spans = [Span("cli.main", 0.0, 2.0, -1, 0), Span("search.max_product_search", 0.5, 1.5, 0, 0,
             {"key": ("product", 7, 4, 15), "nodes": 10, "bound_prunes": 1, "symmetry_prunes": 2, "optimal": True})]
    passes = (
        workloads.PassResult([1.0, 1.0], [1.0, 1.0], [1.5, 0.0], attempted=2),
        workloads.PassResult([1.1, 1.1], [1.1, 1.1], [1.6, 0.0], attempted=2),
    )
    metrics = run.per_layer(spans, *passes, "search")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(metrics) == {m["name"] for m in bench["per_layer"]}
    assert metrics["cli.self_s"] == 1.0 and metrics["search.us_per_node"] == 1e5
    assert metrics["search.frontier.2-2-1"] == 7
    assert abs(metrics["trace.overhead_frac"] - 0.1) < 1e-12
    assert set(run.end_to_end(passes[:1], 0.1)) == {m["name"] for m in bench["end_to_end"]}
