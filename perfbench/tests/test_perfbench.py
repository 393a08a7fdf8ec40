"""Self-tests of the benchmark: references, census oracle, spans, seeding."""

from __future__ import annotations

import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(1, str(BENCH.parent / "src"))

import oracles  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


def test_convolution_reproduces_the_square_map_space():
    assert oracles.power(oracles.OCTAHEDRON, 2) == (36, 144, 240, 204, 88, 16, 1)
    assert oracles.power(oracles.SQUARE, 2) == (16, 32, 24, 8, 1)
    assert oracles.power(oracles.CROSS_4, 2)[0] == 64


def test_oracles_do_not_import_the_program():
    code = (
        f"import sys; sys.path.insert(0, {str(BENCH)!r}); import oracles; "
        "assert not any(m.startswith('hompoly') for m in sys.modules)"
    )
    subprocess.run([sys.executable, "-c", code], check=True)


def test_census_oracle_on_hand_made_graphs():
    four_cycle = ((0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (2, 3), (3, 3))
    six_cycle = ((0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (0, 2), (3, 3))
    degree_three_a = ((0, 0), (0, 1), (0, 2), (1, 3), (2, 4), (3, 4), (1, 0))
    degree_three_b = ((0, 0), (1, 0), (2, 0), (3, 1), (0, 2), (1, 3), (2, 4))
    path_forest = ((0, 0), (0, 1), (1, 1), (1, 2), (2, 3), (3, 3), (3, 4))
    assert oracles.census_reason(four_cycle) == "rejected(rule 3)"
    assert oracles.census_reason(six_cycle) == "rejected(rule 4)"
    assert oracles.census_reason(degree_three_a) == "rejected(rule 1)"
    assert oracles.census_reason(degree_three_b) == "rejected(rule 2)"
    assert oracles.census_reason(path_forest) == "accepted"
    # the first failing rule wins: a degree-3 A-node inside a 4-cycle graph
    both = ((0, 0), (0, 1), (1, 0), (1, 1), (0, 2), (2, 3), (3, 3))
    assert oracles.census_reason(both) == "rejected(rule 1)"


def test_self_time_on_a_synthetic_span_tree():
    tree = [
        ["root", 0.0, 10.0, -1, (0, "x"), None],
        ["a", 1.0, 4.0, 0, (0, "x"), None],
        ["b", 5.0, 9.0, 0, (0, "x"), None],
        ["c", 6.0, 7.0, 2, (0, "x"), None],
    ]
    assert spans.self_times(tree) == [3.0, 3.0, 3.0, 1.0]
    # overlapping children are covered once
    overlap = [
        ["root", 0.0, 10.0, -1, (0, "x"), None],
        ["a", 1.0, 4.0, 0, (0, "x"), None],
        ["b", 3.0, 6.0, 0, (0, "x"), None],
    ]
    assert spans.self_times(overlap)[0] == 5.0


def test_layer_totals_split_dd_by_conversion():
    tree = [
        ["item", 0.0, 10.0, -1, (0, "x"), None],
        ["polytope.hv", 1.0, 5.0, 0, (0, "x"), None],
        ["dd.enumerate_vertices", 2.0, 4.0, 1, (0, "x"), (12, 7)],
        ["polytope.vh", 5.0, 9.0, 0, (0, "x"), None],
        ["dd.enumerate_vertices", 6.0, 7.0, 3, (0, "x"), (5, 4)],
        ["linalg.mat_rank", 7.5, 8.5, 3, (0, "x"), None],
        ["linalg.mat_rank", 7.6, 7.8, 5, (0, "x"), None],
    ]
    out = spans.layer_totals(tree)
    assert (out["dd.hv.calls"], out["dd.hv.rows"], out["dd.hv.vertices"]) == (1, 12, 7)
    assert (out["dd.vh.calls"], out["dd.vh.rows"], out["dd.vh.facets"]) == (1, 5, 4)
    assert out["dd.hv.self_s"] == 2.0
    # nested calls count twice but their time once
    assert out["linalg.rank_calls"] == 2
    assert abs(out["linalg.rank_s"] - 1.0) < 1e-12


def test_seed_reorders_items_but_not_references(tmp_path):
    orders = {}
    for seed in (1, 2, 3):
        built = workloads.build("table", seed, tmp_path)
        orders[seed] = [item.name for item in built.items]
    assert len({tuple(o) for o in orders.values()}) > 1
    assert all(sorted(o) == sorted(orders[1]) for o in orders.values())

    row = "m\tn\trank0\trank1\trank2\ttotal\tprovenance\n5\t4\t4\t60\t80\t144\tclosed_form\n"
    for seed in (1, 2):
        item = next(i for i in workloads.build("table", seed, tmp_path).items if i.name == "table 5 4")
        assert item.check(0, row) is None

    # the census relabels nodes by seed, yet the unlabelled oracle answers fit
    canonical = oracles.census_subgraphs(tuple(range(4)), tuple(range(5)))
    reasons = [oracles.census_reason(edges) for edges in canonical]
    for seed in (1, 2):
        items = workloads.build("graphs", seed, tmp_path).items
        census = next(i for i in items if i.name.startswith("census"))
        assert census.check(0, reasons) is None


def test_traced_run_restores_every_binding():
    import hompoly.classify
    import hompoly.cli
    import hompoly.linalg
    import hompoly.polytope
    import hompoly.regular

    originals = {
        (hompoly.linalg, "mat_rank"): hompoly.linalg.mat_rank,
        (hompoly.classify, "mat_rank"): hompoly.classify.mat_rank,
        (hompoly.polytope, "mat_rank"): hompoly.polytope.mat_rank,
        (hompoly.regular, "table_row"): hompoly.regular.table_row,
        (hompoly.cli, "table_row"): hompoly.cli.table_row,
        (hompoly.polytope, "_face_lattice"): hompoly.polytope._face_lattice,
        (hompoly.cli, "main"): hompoly.cli.main,
    }
    before = spans.bindings()
    tracer = spans.Tracer()
    try:
        tracer.install()
        for (module, attr), fn in originals.items():
            assert getattr(module, attr) is not fn
        tracer.item = (0, "identity-check")
        status, _out = workloads.run_cli(("identity-check", "cube_bipyramid", "--m", "1", "--n", "1"))
    finally:
        tracer.remove()
    assert status == 0
    for (module, attr), fn in originals.items():
        assert getattr(module, attr) is fn
    assert spans.bindings() == before
    names = {s[spans.NAME] for s in tracer.spans}
    assert {"cli.main", "hom.hom_identity_check", "polytope.face_lattice"} <= names
    out = spans.layer_totals(tracer.spans)
    assert out["polytope.lattice_calls"] == 2


def test_sampler_scales_raw_time_by_the_mean_sampled_speed():
    sampler = speed.Sampler()
    unit = speed.REFERENCE_UNIT_S
    # half the samples at the reference speed, half at half of it
    sampler.inverse = [1 / unit, 1 / (2 * unit)] * 5
    assert abs(sampler.scale(4.0, 0) - 3.0) < 1e-12
    # a window only sees its own samples
    sampler.inverse.append(1 / (4 * unit))
    assert abs(sampler.scale(4.0, 10) - 1.0) < 1e-12
    # an empty window falls back on every sample so far
    assert sampler.scale(1.0, sampler.mark()) == sampler.scale(1.0, 0)


def test_sampler_samples_while_started_and_restores_the_handler():
    import signal

    before = signal.getsignal(signal.SIGALRM)
    sampler = speed.Sampler()
    sampler.start()
    try:
        end = time.perf_counter() + 10 * speed.INTERVAL_S
        while time.perf_counter() < end:
            sum(range(1000))
    finally:
        sampler.stop()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.inverse) >= 3
    assert 0 < sampler.spent < 10 * speed.INTERVAL_S
