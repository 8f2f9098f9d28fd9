"""End-to-end CLI behavior: determinism, exit codes, check paths."""

import json
import os

import pytest

from fgtri.cli import main



def test_gen_is_byte_deterministic(tmp_path):
    out1 = tmp_path / "a.twg"
    out2 = tmp_path / "b.twg"
    for out in (out1, out2):
        assert main(["gen", "--type", "zero-triangle", "--n", "30", "--plant",
                     "--seed", "7", "--out", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_gen_product_pair_and_solve(tmp_path):
    pair = tmp_path / "pair.imx"
    assert main(["gen", "--type", "product", "--kind", "min-eq", "--n", "6",
                 "--seed", "1", "--out", str(pair)]) == 0
    out = tmp_path / "ans.imx"
    assert main(["solve", "--solver", "product-bf", "--kind", "min-eq",
                 "--in", str(pair), "--out", str(out)]) == 0
    assert out.read_text().startswith("IMX 6 6")


def test_gen_same_command_twice_identical(tmp_path):
    a = tmp_path / "x1"
    b = tmp_path / "x2"
    for out in (a, b):
        assert main(["gen", "--type", "colored", "--n", "12", "--seed", "5",
                     "--value-sides", "all", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_solve_fast_with_check_passes(tmp_path):
    ok = 0
    for seed in range(10):
        twg = tmp_path / f"g{seed}.twg"
        assert main(["gen", "--type", "zero-triangle", "--n", "21",
                     "--seed", str(seed), "--out", str(twg)]) == 0
        code = main(["solve", "--solver", "ae-sparse-fast", "--check",
                     "--in", str(twg), "--out", os.devnull])
        ok += code == 0
    assert ok == 10


def test_solve_zero_bf_prints_witness_on_planted(tmp_path, capsys):
    twg = tmp_path / "p.twg"
    assert main(["gen", "--type", "zero-triangle", "--n", "15", "--plant",
                 "--seed", "3", "--out", str(twg)]) == 0
    capsys.readouterr()
    assert main(["solve", "--solver", "zero-bf", "--in", str(twg)]) == 0
    assert capsys.readouterr().out.startswith("WITNESS ")


def test_solve_malformed_file_exits_3(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("not a header\n")
    assert main(["solve", "--solver", "zero-bf", "--in", str(bad)]) == 3


def test_solve_unknown_solver_exits_2(tmp_path):
    twg = tmp_path / "g.twg"
    main(["gen", "--type", "zero-triangle", "--n", "9", "--seed", "1",
          "--out", str(twg)])
    assert main(["solve", "--solver", "no-such", "--in", str(twg)]) == 2


def test_reduce_zero_via_listing_planted_check(tmp_path):
    twg = tmp_path / "p.twg"
    main(["gen", "--type", "zero-triangle", "--n", "30", "--plant",
          "--seed", "11", "--out", str(twg)])
    report = tmp_path / "rep.jsonl"
    code = main(["reduce", "--pipeline", "zero-via-listing", "--s", "4",
                 "--inner", "bf-lister", "--check", "--seed", "2",
                 "--in", str(twg), "--out", os.devnull,
                 "--report", str(report)])
    assert code == 0
    lines = [json.loads(line) for line in report.read_text().splitlines()]
    assert lines and all(
        set(rec) == {"trial", "triple", "edges_kept", "pruned", "listed",
                     "hits"} for rec in lines)


def test_reduce_full_chain_with_detect_lister(tmp_path):
    twg = tmp_path / "p.twg"
    main(["gen", "--type", "zero-triangle", "--n", "24", "--plant",
          "--seed", "77", "--out", str(twg)])
    out = tmp_path / "verdict"
    code = main(["reduce", "--pipeline", "zero-via-listing", "--s", "2",
                 "--inner", "detect-lister", "--trials", "40", "--check",
                 "--seed", "6", "--in", str(twg), "--out", str(out)])
    assert code == 0
    assert out.read_text().startswith("WITNESS ")


def test_reduce_verdict_false_on_no_zero_instance(tmp_path, capsys):
    twg = tmp_path / "nz.twg"
    # Huge weights keep accidental zero triangles away.
    main(["gen", "--type", "zero-triangle", "--n", "15", "--weight-bound",
          "1000000", "--seed", "13", "--out", str(twg)])
    out = tmp_path / "verdict.txt"
    code = main(["reduce", "--pipeline", "zero-via-listing", "--s", "2",
                 "--trials", "3", "--seed", "5", "--in", str(twg),
                 "--out", str(out), "--check"])
    assert code == 0
    assert out.read_text() == "NONE\n"


def test_reduce_min_eq_check_on_16x16(tmp_path):
    pair = tmp_path / "pair.imx"
    main(["gen", "--type", "product", "--kind", "min-eq", "--n", "16",
          "--seed", "9", "--out", str(pair)])
    assert main(["reduce", "--pipeline", "min-eq-via-monoeq", "--inner",
                 "monoeq-bf", "--check", "--seed", "1", "--in", str(pair),
                 "--out", os.devnull]) == 0


def test_reduce_listing_via_detection_check(tmp_path):
    twg = tmp_path / "g.twg"
    main(["gen", "--type", "zero-triangle", "--n", "18", "--seed", "8",
          "--out", str(twg)])
    assert main(["reduce", "--pipeline", "listing-via-detection", "--inner",
                 "sparse-fast", "--cap", "2", "--check", "--seed", "4",
                 "--in", str(twg), "--out", os.devnull]) == 0


def test_reduce_set_pipelines_check(tmp_path):
    twg = tmp_path / "g.twg"
    main(["gen", "--type", "zero-triangle", "--n", "15", "--seed", "2",
          "--out", str(twg)])
    for pipeline in ("sparse-to-disjointness", "listing-to-intersection"):
        assert main(["reduce", "--pipeline", pipeline, "--check", "--seed",
                     "3", "--in", str(twg), "--out", os.devnull]) == 0


def test_reduce_tiled_iteration_finds_planted_triangle(tmp_path, capsys):
    twg = tmp_path / "p.twg"
    main(["gen", "--type", "zero-triangle", "--n", "24", "--plant",
          "--seed", "19", "--out", str(twg)])
    capsys.readouterr()
    out = tmp_path / "verdict"
    code = main(["reduce", "--pipeline", "zero-via-listing", "--s", "2",
                 "--tile", "4,4,4", "--trials", "40", "--seed", "3",
                 "--check", "--in", str(twg), "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.startswith("WITNESS ")
    # The witness is reported in whole-instance coordinates.
    from fgtri import parse, triangle_weight_sum
    g = parse(twg.read_text())
    a, b, c = (int(tok) for tok in text.split()[1:])
    assert triangle_weight_sum(g, (a, b, c)) == 0


def test_reduce_monoeq_pipeline_check(tmp_path):
    cvg = tmp_path / "c.cvg"
    main(["gen", "--type", "colored", "--n", "9", "--value-sides", "all",
          "--seed", "4", "--out", str(cvg)])
    assert main(["reduce", "--pipeline", "monoeq", "--inner", "mono-bf",
                 "--check", "--seed", "6", "--in", str(cvg),
                 "--out", os.devnull]) == 0


def test_every_product_pipeline_checks_green(tmp_path):
    pair = tmp_path / "pair.imx"
    main(["gen", "--type", "product", "--n", "6", "--seed", "23",
          "--out", str(pair)])
    bool_pair = tmp_path / "bool.imx"
    main(["gen", "--type", "product", "--kind", "min-witness", "--n", "6",
          "--seed", "24", "--out", str(bool_pair)])
    for pipeline in ("min-le-via-monoeq", "max-le-via-monoeq", "max-min",
                     "exists-eq", "exists-dom"):
        assert main(["reduce", "--pipeline", pipeline, "--inner",
                     "monoeq-bf", "--check", "--seed", "1", "--in",
                     str(pair), "--out", os.devnull]) == 0, pipeline
    assert main(["reduce", "--pipeline", "min-witness", "--inner",
                 "monoeq-bf", "--check", "--seed", "1", "--in",
                 str(bool_pair), "--out", os.devnull]) == 0


def test_mono_product_pipelines_check_green(tmp_path):
    cvg = tmp_path / "c.cvg"
    main(["gen", "--type", "colored", "--n", "12", "--value-sides", "a",
          "--value-range", "4", "--seed", "25", "--out", str(cvg)])
    for pipeline in ("mono-min-eq", "mono-eq", "mono-min-le"):
        assert main(["reduce", "--pipeline", pipeline, "--check", "--seed",
                     "2", "--in", str(cvg), "--out", os.devnull]) == 0, pipeline


def test_global_listing_pipeline_check_green(tmp_path):
    twg = tmp_path / "p.twg"
    main(["gen", "--type", "zero-triangle", "--n", "21", "--plant",
          "--seed", "26", "--out", str(twg)])
    assert main(["reduce", "--pipeline", "zero-via-global-listing",
                 "--s", "2", "--trials", "30", "--check", "--seed", "3",
                 "--in", str(twg), "--out", os.devnull]) == 0


def test_reduce_unknown_pipeline_exits_2(tmp_path):
    twg = tmp_path / "g.twg"
    main(["gen", "--type", "zero-triangle", "--n", "9", "--seed", "1",
          "--out", str(twg)])
    assert main(["reduce", "--pipeline", "wat", "--in", str(twg)]) == 2


def test_reduce_incompatible_instance_exits_2(tmp_path):
    cvg = tmp_path / "c.cvg"
    main(["gen", "--type", "colored", "--n", "9", "--seed", "2",
          "--out", str(cvg)])
    assert main(["reduce", "--pipeline", "zero-via-listing",
                 "--in", str(cvg)]) == 2


def test_verify_report_deterministic(tmp_path):
    reports = []
    for name in ("r1", "r2"):
        path = tmp_path / name
        code = main(["verify", "--n", "24", "--s", "2", "--trials", "30",
                     "--mult-runs", "10", "--seed", "21",
                     "--out", str(path)])
        assert code == 0
        reports.append(path.read_bytes())
    assert reports[0] == reports[1]
    records = [json.loads(line) for line in reports[0].decode().splitlines()]
    metrics = {rec["metric"] for rec in records}
    assert metrics == {"f1_planted_survives", "f2_per_edge_bound",
                       "f3_global_bound", "combine_multiplicity"}


def test_verify_single_range_f1_is_one(tmp_path):
    path = tmp_path / "rep"
    assert main(["verify", "--n", "18", "--s", "1", "--trials", "20",
                 "--mult-runs", "5", "--seed", "3", "--out", str(path)]) == 0
    records = {json.loads(line)["metric"]: json.loads(line)
               for line in path.read_text().splitlines()}
    assert records["f1_planted_survives"]["value"] == 1.0


def test_bench_table_shape(tmp_path):
    out = tmp_path / "bench.json"
    assert main(["bench", "--sizes", "16,9", "--solvers",
                 "ae-sparse-bf,ae-sparse-fast", "--reps", "2", "--seed", "2",
                 "--out", str(out)]) == 0
    table = json.loads(out.read_text())
    ns = [row["n"] for row in table["rows"]]
    assert ns == sorted(ns)  # emitted in ascending size order
    assert {row["solver"] for row in table["rows"]} == {
        "ae-sparse-bf", "ae-sparse-fast"}
    assert all(row["median_ms"] >= 0 for row in table["rows"])


def test_bench_empty_sweep_ok(tmp_path):
    out = tmp_path / "bench.json"
    assert main(["bench", "--sizes", "", "--solvers", "", "--seed", "1",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["rows"] == []


@pytest.mark.parametrize("sizes", ["", "9"])
def test_bench_unknown_solver_is_usage_error(sizes, tmp_path, capsys):
    out = tmp_path / "bench.json"
    assert main(["bench", "--sizes", sizes, "--solvers", "ae-sparse-bf,nope",
                 "--seed", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "usage error: unknown bench solver 'nope'\n"
    assert not out.exists()


def test_env_seed_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("FGT_SEED", "99")
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        assert main(["gen", "--type", "zero-triangle", "--n", "12",
                     "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_unwritable_out_exits_3(tmp_path):
    missing = tmp_path / "no-such-dir" / "x"
    assert main(["gen", "--type", "colored", "--seed", "1",
                 "--out", str(missing)]) == 3


def test_unwritable_report_exits_3(tmp_path):
    twg = tmp_path / "g.twg"
    main(["gen", "--type", "zero-triangle", "--n", "9", "--seed", "1",
          "--out", str(twg)])
    assert main(["reduce", "--pipeline", "sparse-to-disjointness",
                 "--in", str(twg), "--out", os.devnull,
                 "--report", str(tmp_path / "no-such-dir" / "r")]) == 3


def test_missing_input_returns_3(tmp_path):
    assert main(["solve", "--solver", "zero-bf",
                 "--in", str(tmp_path / "absent.twg")]) == 3


@pytest.mark.parametrize("argv", [
    ["verify", "--trials", "0"],
    ["verify", "--mult-runs", "0"],
    ["bench", "--reps", "0"],
])
def test_non_positive_counts_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--seed", "1"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "must be at least 1" in err and "Traceback" not in err


def test_non_utf8_input_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.twg"
    bad.write_bytes(b"\xff\xfe\x00")
    assert main(["solve", "--solver", "zero-bf", "--in", str(bad)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("I/O error") and "Traceback" not in err


@pytest.mark.parametrize("flag", ["--trials", "--trial-multiplier"])
def test_reduce_zero_trials_is_usage_error(flag, tmp_path, capsys):
    twg = tmp_path / "p.twg"
    main(["gen", "--type", "zero-triangle", "--n", "12", "--plant",
          "--seed", "3", "--out", str(twg)])
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_info:
        main(["reduce", "--pipeline", "zero-via-listing", "--check",
              flag, "0", "--seed", "1", "--in", str(twg)])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "must be at least 1" in err and "Traceback" not in err


# The gen argv of a tiny seeded instance for each pipeline's input type.
_TINY = {
    "twg": ["--type", "zero-triangle", "--n", "12", "--plant", "--seed", "3"],
    "cvg": ["--type", "colored", "--n", "9", "--value-sides", "a",
            "--value-range", "4", "--seed", "4"],
    "pair": ["--type", "product", "--kind", "min-witness", "--n", "4",
             "--seed", "5"],
}
_PIPELINE_INPUTS = {
    "zero-via-listing": "twg", "zero-via-global-listing": "twg",
    "listing-via-detection": "twg", "sparse-to-disjointness": "twg",
    "listing-to-intersection": "twg", "monoeq": "cvg", "mono-min-eq": "cvg",
    "mono-eq": "cvg", "mono-min-le": "cvg", "min-eq-via-monoeq": "pair",
    "min-le-via-monoeq": "pair", "max-le-via-monoeq": "pair",
    "max-min": "pair", "min-witness": "pair", "exists-eq": "pair",
    "exists-dom": "pair",
}
_FIXED_INNER = ("zero-via-global-listing", "mono-min-eq", "mono-eq",
                "mono-min-le", "sparse-to-disjointness",
                "listing-to-intersection")


def _tiny(tmp_path, kind: str) -> str:
    path = tmp_path / f"{kind}.txt"
    assert main(["gen", *_TINY[kind], "--out", str(path)]) == 0
    return str(path)


def test_pipeline_inputs_name_every_pipeline():
    from fgtri.cli import _PIPELINES
    assert set(_PIPELINE_INPUTS) == set(_PIPELINES)
    assert set(_FIXED_INNER) <= set(_PIPELINES)


@pytest.mark.parametrize("pipeline", sorted(_PIPELINE_INPUTS))
def test_every_pipeline_runs_on_its_default_inner(pipeline, tmp_path, capsys):
    inst = _tiny(tmp_path, _PIPELINE_INPUTS[pipeline])
    capsys.readouterr()
    assert main(["reduce", "--pipeline", pipeline, "--check", "--seed", "1",
                 "--in", inst, "--out", os.devnull]) == 0
    assert capsys.readouterr().err == "check: ok\n"


@pytest.mark.parametrize("pipeline", _FIXED_INNER)
def test_fixed_inner_pipeline_rejects_a_foreign_inner(pipeline, tmp_path,
                                                      capsys):
    inst = _tiny(tmp_path, _PIPELINE_INPUTS[pipeline])
    capsys.readouterr()
    assert main(["reduce", "--pipeline", pipeline, "--inner", "no-such",
                 "--seed", "1", "--in", inst, "--out", os.devnull]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: unknown --inner 'no-such'")
    assert "Traceback" not in err


def test_mono_product_bf_kind_defaults_and_rejects_unknown(tmp_path, capsys):
    inst = _tiny(tmp_path, "cvg")
    capsys.readouterr()
    assert main(["solve", "--solver", "mono-product-bf", "--in", inst]) == 0
    default = capsys.readouterr().out
    assert main(["solve", "--solver", "mono-product-bf", "--kind", "mono-eq",
                 "--in", inst]) == 0
    assert capsys.readouterr().out == default and default.startswith("ENTRY ")
    assert main(["solve", "--solver", "mono-product-bf", "--kind", "bogus",
                 "--in", inst]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: unknown --kind 'bogus'")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["reduce", "verify"])
def test_range_count_zero_is_usage_error(command, tmp_path, capsys):
    argv = [command, "--s", "0", "--seed", "1"]
    if command == "reduce":
        argv += ["--pipeline", "zero-via-listing", "--in",
                 _tiny(tmp_path, "twg")]
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "must be at least 1" in err and "Traceback" not in err


def test_reduce_negative_cap_is_usage_error(tmp_path, capsys):
    inst = _tiny(tmp_path, "twg")
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_info:
        main(["reduce", "--pipeline", "listing-via-detection", "--cap", "-1",
              "--check", "--seed", "1", "--in", inst])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "must be at least 0" in err and "Traceback" not in err


@pytest.mark.parametrize("pipeline", sorted(
    set(_PIPELINE_INPUTS) - {"zero-via-listing", "zero-via-global-listing"}))
def test_tile_on_a_pipeline_that_ignores_it_is_usage_error(pipeline, tmp_path,
                                                          capsys):
    inst = _tiny(tmp_path, _PIPELINE_INPUTS[pipeline])
    capsys.readouterr()
    assert main(["reduce", "--pipeline", pipeline, "--tile", "1,1,1",
                 "--check", "--seed", "1", "--in", inst,
                 "--out", os.devnull]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: --tile is read only by "
                          "zero-via-listing and zero-via-global-listing")
    assert "Traceback" not in err


# One pipeline that does not read each flag, and a value off the default.
_IGNORED_FLAGS = [
    ("--s", "9", "listing-via-detection"),
    ("--trials", "5", "listing-via-detection"),
    ("--trial-multiplier", "7", "monoeq"),
    ("--cap", "5", "zero-via-listing"),
    ("--global-cap", "10", "listing-via-detection"),
    ("--degree-threshold", "3", "mono-min-eq"),
    ("--size-threshold", "5", "min-eq-via-monoeq"),
]


@pytest.mark.parametrize("flag,value,pipeline", _IGNORED_FLAGS)
def test_flag_on_a_pipeline_that_ignores_it_is_usage_error(
        flag, value, pipeline, tmp_path, capsys):
    inst = _tiny(tmp_path, _PIPELINE_INPUTS[pipeline])
    capsys.readouterr()
    assert main(["reduce", "--pipeline", pipeline, flag, value, "--check",
                 "--seed", "1", "--in", inst, "--out", os.devnull]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: {flag} is read only by ")
    assert err.endswith(f", not by {pipeline}\n")


@pytest.mark.parametrize("flag,value,pipeline", [
    ("--s", "4", "listing-via-detection"),
    ("--trial-multiplier", "100", "monoeq"),
    ("--cap", "3", "zero-via-listing"),
    ("--global-cap", "-1", "listing-via-detection"),
    ("--degree-threshold", "2", "mono-min-eq"),
    ("--size-threshold", "-2", "min-eq-via-monoeq"),
])
def test_flag_at_its_default_is_accepted_everywhere(flag, value, pipeline,
                                                    tmp_path, capsys):
    inst = _tiny(tmp_path, _PIPELINE_INPUTS[pipeline])
    capsys.readouterr()
    assert main(["reduce", "--pipeline", pipeline, flag, value, "--check",
                 "--seed", "1", "--in", inst, "--out", os.devnull]) == 0
    assert capsys.readouterr().err == "check: ok\n"


def test_internal_error_exits_4_without_traceback(tmp_path, capsys,
                                                  monkeypatch):
    # A label budget of 0 makes every combine attempt fail, so the monoeq
    # pipeline runs out of retries inside the library.
    from functools import partial

    from fgtri import monoeq
    monkeypatch.setattr(monoeq, "combine_sparse_into_mono",
                        partial(monoeq.combine_sparse_into_mono, max_label=0))
    cvg = tmp_path / "c.cvg"
    main(["gen", "--type", "colored", "--n", "9", "--value-sides", "all",
          "--seed", "4", "--out", str(cvg)])
    capsys.readouterr()
    assert main(["reduce", "--pipeline", "monoeq", "--inner", "mono-bf",
                 "--size-threshold", "-1", "--degree-threshold", "1",
                 "--seed", "6", "--in", str(cvg), "--out", os.devnull]) == 4
    err = capsys.readouterr().err
    assert err.startswith("internal error: multiplicity exceeded 0")
    assert "Traceback" not in err and err.count("\n") == 1
