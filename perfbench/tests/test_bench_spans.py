import pytest

import spans


def _span(name, start, end, parent, attrs=None):
    return [name, start, end, parent, attrs]


def test_self_time_subtracts_the_union_of_children():
    tree = [
        _span("cli.main", 0.0, 10.0, -1),       # 0
        _span("config.load_config", 1.0, 2.0, 0),   # 1
        _span("verifier.verify", 3.0, 9.0, 0),      # 2
        _span("verifier.eigen_spectrum", 4.0, 6.0, 2),  # 3
        _span("verifier.eigen_spectrum", 5.0, 8.0, 2),  # 4 overlaps 3
        _span("potentials.eval_potential", 8.5, 9.5, 2),  # 5 runs past its parent
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 1.0, 1.5, 2.0, 3.0, 1.0])


def test_self_time_of_a_leaf_is_its_duration():
    assert spans.self_times([_span("a", 2.0, 2.5, -1)]) == [0.5]


@pytest.mark.parametrize("n, expected", [
    (0, []), (19, []), (20, [50.0]), (99, [50.0]), (100, [50.0, 90.0]),
    (199, [50.0, 90.0]), (200, [50.0, 90.0, 95.0]), (1000, [50.0, 90.0, 95.0, 99.0]),
    (10000, [50.0, 90.0, 95.0, 99.0, 99.9]),
])
def test_highest_percentile_keeps_ten_samples_beyond_it(n, expected):
    assert spans.reportable_percentiles(n) == expected


def test_timing_summary_reports_only_allowed_percentiles():
    summary = spans.timing_summary([float(i) for i in range(1, 101)])
    assert summary == {"samples": 100, "p50_s": 50.0, "p90_s": 90.0}


def test_layer_arithmetic_on_a_round():
    eig = {"dim": 10, "dense": True, "computed": 10, "returned": 4}
    tri = {"dim": 20, "dense": False, "computed": 5, "returned": 5}
    tree = [
        _span("cli.main", 0.0, 4.0, -1),
        _span("verifier.reality_scan", 0.5, 3.5, 0),
        _span("verifier.eigen_spectrum", 1.0, 2.0, 1, eig),
        _span("verifier.eigen_spectrum", 2.0, 2.5, 1, tri),
        _span("verifier.bound_states", 2.5, 3.0, 1, {"in": 10, "kept": 3}),
    ]
    layers = spans.round_layers(tree)
    assert layers["cli.self_s"] == pytest.approx(1.0)
    assert layers["verifier.scan_self_s"] == pytest.approx(1.0)
    assert layers["verifier.eig_dense_s"] == pytest.approx(1.0)
    assert layers["verifier.eig_tridiag_s"] == pytest.approx(0.5)
    assert layers["verifier.eig_s"] == pytest.approx(1.5)
    assert layers["verifier.self_s"] == pytest.approx(1.5)  # scan 1.0 + bound_states 0.5
    assert layers["verifier.eig_pairs_kept_ratio"] == pytest.approx(9 / 15)
    assert layers["verifier.bound_kept_ratio"] == pytest.approx(0.3)
    counts = spans.round_counts(tree, bytes_out=123)
    assert counts["verifier.eig_dim_sum"] == 10
    assert counts["verifier.dense_bytes_computed"] == spans.DENSE_ARRAYS * 16 * 100
    assert (counts["verifier.eig_dense_calls"], counts["verifier.eig_tridiag_calls"]) == (1, 1)
    assert spans.point_times(tree) == [1.0, 0.5]


def test_tracer_is_transparent_and_restores_the_program(tmp_path):
    import susyhier.cli as cli
    import susyhier.verifier as verifier

    cfg = tmp_path / "v.ini"
    cfg.write_text("[model]\nfamily = morse_general\nv1 = 25\nv2 = 50\n"
                   "\n[grid]\nx_min = -3\nx_max = 30\nn_points = 401\n"
                   "\n[run]\nn_max = 2\ntol_abs = 0.5\n", encoding="utf-8")
    plain_out, traced_out = tmp_path / "a.csv", tmp_path / "b.csv"
    original = verifier.eigen_spectrum
    args = ["verify", "--config", str(cfg), "--mode", "self-consistent"]
    assert cli.main(args + ["--out", str(plain_out)]) == 0
    tracer = spans.Tracer()
    assert tracer.install() > 0
    try:
        assert cli.main(args + ["--out", str(traced_out)]) == 0
    finally:
        tracer.uninstall()
    assert verifier.eigen_spectrum is original
    assert plain_out.read_bytes() == traced_out.read_bytes()
    names = [s[0] for s in tracer.spans]
    assert names[0] == "cli.main"
    assert "cli.cmd_verify" in names  # reached through the cli._COMMANDS table
    assert names.count("verifier.eigen_spectrum") == 2
    eig = [s[4] for s in tracer.spans if s[0] == "verifier.eigen_spectrum"]
    assert [a["dim"] for a in eig] == [399, 799] and not any(a["dense"] for a in eig)
