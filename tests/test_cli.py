import json
import subprocess
import sys

import pytest

from gsc.cli import BenchRow, main, parse_gen_spec, parse_sizes, run_bench_instance
from gsc.compiler import VerificationError
from gsc.graph import GraphFormatError, generate

from reference import write_graph


def run_cli(*args, **kw):
    return subprocess.run(
        [sys.executable, "-m", "gsc", *args], capture_output=True, text=True, **kw
    )


def test_parse_gen_spec():
    assert parse_gen_spec("path:100") == ("path", 100, None)
    assert parse_gen_spec("gnm:100:495") == ("gnm", 100, 495)
    with pytest.raises(Exception):
        parse_gen_spec("blob:4")
    with pytest.raises(Exception):
        parse_gen_spec("path")


def test_parse_sizes():
    assert parse_sizes("10,50,100") == [10, 50, 100]
    assert parse_sizes("10..1000") == [10, 20, 40, 80, 160, 320, 640, 1000]
    assert parse_sizes("16..16") == [16]
    for spec in ("5,0", "0", "3,-2", "0..4"):
        with pytest.raises(GraphFormatError):
            parse_sizes(spec)


def test_compile_star_summary(tmp_path):
    out = tmp_path / "r.json"
    proc = run_cli("compile", "--gen", "star:100", "--mapper", "natural", "--out", str(out))
    assert proc.returncode == 0
    assert "tocks=1" in proc.stdout
    obj = json.loads(out.read_text())
    assert obj["tocks"] == 1
    assert obj["tiles_reduced"] == 301
    assert obj["verified"] is True


def test_compile_path_mincut(tmp_path):
    proc = run_cli("compile", "--gen", "path:100", "--mapper", "mincut", "--seed", "7")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["tocks"] == 2


def test_compile_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.adj"
    bad.write_text("0 1\n0 0\n")  # asymmetric
    proc = run_cli("compile", "--in", str(bad))
    assert proc.returncode == 2
    assert "not symmetric" in proc.stderr


def test_karger_budget_is_not_an_option(capsys):
    # the min-cut contraction budget is a fixed setting of CompileOptions
    for argv in (["compile", "--gen", "gnm:12:30"],
                 ["bench", "--suite", "types", "--kind", "star", "--n", "10", "--workers", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--karger-budget", "7"])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "unrecognized arguments: --karger-budget 7" in out.err


def test_verify_is_not_a_compile_option(capsys):
    # the tableau runs by one fixed rule, the same in gsc compile and gsc verify
    with pytest.raises(SystemExit) as exc:
        main(["compile", "--gen", "gnm:12:30", "--verify", "never"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "unrecognized arguments: --verify never" in out.err


def test_gen_edge_count_only_for_gnm(capsys):
    for spec in ("path:5:3", "complete:4:1"):
        assert main(["compile", "--gen", spec]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: {spec.split(':')[0]} takes no edge count\n"


def test_unusable_out_fails_before_any_work(tmp_path, monkeypatch, capsys):
    def no_work(*args, **kw):
        raise AssertionError("work started despite an unusable --out")

    monkeypatch.setattr("gsc.graph.generate", no_work)
    monkeypatch.setattr("gsc.graph.load_graph", no_work)
    monkeypatch.setattr("gsc.cli.compile_graph", no_work)
    monkeypatch.setattr("gsc.cli.run_bench_instance", no_work)
    afile = tmp_path / "afile"
    afile.write_text("keep")
    for out, reason in ((tmp_path, "[Errno 21] Is a directory"),
                        (tmp_path / "none" / "r.json", "[Errno 2] No such file or directory"),
                        (afile / "r.json", "[Errno 20] Not a directory")):
        for argv in (
            ["compile", "--gen", "path:6"],
            ["compile", "--in", str(tmp_path / "g.json")],
            ["bench", "--suite", "types", "--kind", "path", "--n", "4", "--workers", "1"],
        ):
            assert main(argv + ["--out", str(out)]) == 2, argv
            out_err = capsys.readouterr()
            assert out_err.out == ""
            assert out_err.err == f"error: {reason}: {str(out)!r}\n"
    assert afile.read_text() == "keep"


def test_failed_compile_leaves_out_untouched(tmp_path, monkeypatch):
    out = tmp_path / "r.json"
    out.write_text("keep")
    gpath = tmp_path / "g.edges"
    gpath.write_text("4 2\n0 1\n2 3\n")
    assert main(["compile", "--in", str(gpath), "--out", str(out)]) == 3

    def fail(*args, **kw):
        raise VerificationError("forced")

    monkeypatch.setattr("gsc.cli.compile_graph", fail)
    assert main(["compile", "--gen", "path:4", "--out", str(out)]) == 4
    assert out.read_text() == "keep"


def test_vertex_limit_exits_2_before_any_work(tmp_path, capsys):
    gpath = tmp_path / "huge.json"
    gpath.write_text(json.dumps({"n": 1_000_000_000, "edges": [[0, 1]]}))
    out = tmp_path / "r.json"
    for source, limit in ((["--in", str(gpath)], "exceeds the limit of 10000000"),
                          (["--gen", "path:1000000000"], "exceeds the limit of 10000000"),
                          (["--gen", "complete:1000000"], "over the limit of 40000000")):
        capsys.readouterr()
        assert main(["compile", *source, "--mapper", "natural", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and limit in err and err.count("\n") == 1
    assert not out.exists()


def test_compile_disconnected_exit_code(tmp_path):
    f = tmp_path / "g.edges"
    f.write_text("4 2\n0 1\n2 3\n")
    proc = run_cli("compile", "--in", str(f))
    assert proc.returncode == 3


def test_compile_from_file_formats(tmp_path):
    g = generate("gnm", 10, m=16, seed=4)
    for name in ("g.json", "g.adj", "g.edges"):
        path = tmp_path / name
        write_graph(g, path)
        proc = run_cli("compile", "--in", str(path), "--mapper", "natural")
        assert proc.returncode == 0, proc.stderr


def test_verify_round_trip_and_tamper(tmp_path, capsys):
    gpath = tmp_path / "g.json"
    rpath = tmp_path / "r.json"
    g = generate("gnm", 8, m=12, seed=1)
    write_graph(g, gpath)
    proc = run_cli("compile", "--in", str(gpath), "--mapper", "random", "--out", str(rpath))
    assert proc.returncode == 0
    proc = run_cli("verify", "--graph", str(gpath), "--result", str(rpath))
    assert proc.returncode == 0
    assert "PASS" in proc.stdout

    # every stored field is checked against the re-derived result
    original = rpath.read_text()
    flip = {"+": "0", "0": "+"}
    forgeries = {
        "tocks": lambda r: r.update(tocks=r["tocks"] + 1),
        "tiles_full": lambda r: r.update(tiles_full=r["tiles_full"] + 1),
        "tiles_reduced": lambda r: r.update(tiles_reduced=r["tiles_reduced"] + 1),
        "spacetime_volume": lambda r: r.update(spacetime_volume=r["spacetime_volume"] + 1),
        "schedule.tocks": lambda r: r["schedule"].update(tocks=r["schedule"]["tocks"] + 1),
        "schedule.lower_bound": lambda r: r["schedule"].update(lower_bound=r["schedule"]["lower_bound"] - 1),
        "plan.init": lambda r: r["plan"].update(init=flip[r["plan"]["init"][0]] + r["plan"]["init"][1:]),
        "independent set": lambda r: r["plan"].update(independent_set=r["plan"]["independent_set"][:-1]),
        "verified": lambda r: r.update(verified=False),
    }
    for field, forge in forgeries.items():
        obj = json.loads(original)
        forge(obj)
        rpath.write_text(json.dumps(obj))
        assert main(["verify", "--graph", str(gpath), "--result", str(rpath)]) == 4, field
        assert field in capsys.readouterr().err
    rpath.write_text(original)

    # append an empty round, with the counts raised to match it
    obj = json.loads(original)
    obj["schedule"]["rounds"].append([])
    obj["tocks"] = obj["schedule"]["tocks"] = len(obj["schedule"]["rounds"])
    obj["spacetime_volume"] = obj["tiles_reduced"] * obj["tocks"]
    rpath.write_text(json.dumps(obj))
    assert main(["verify", "--graph", str(gpath), "--result", str(rpath)]) == 4
    assert capsys.readouterr().err == f"FAIL: schedule violations: round {obj['tocks'] - 1} is empty\n"
    rpath.write_text(original)

    # inject an overlap: merge all rounds into one
    obj = json.loads(rpath.read_text())
    if len(obj["schedule"]["rounds"]) > 1:
        merged = [b for rnd in obj["schedule"]["rounds"] for b in rnd]
        obj["schedule"]["rounds"] = [merged]
        rpath.write_text(json.dumps(obj))
        proc = run_cli("verify", "--graph", str(gpath), "--result", str(rpath))
        assert proc.returncode == 4
        assert "violation" in proc.stderr

    # drop one generator from plan and schedule: coverage failure
    obj = json.loads(rpath.read_text())
    victim = obj["plan"]["measured"][-1]
    obj["plan"]["measured"] = obj["plan"]["measured"][:-1]
    obj["schedule"]["rounds"] = [
        [b for b in rnd if b["gen"] != victim] for rnd in obj["schedule"]["rounds"]
    ]
    obj["schedule"]["rounds"] = [rnd for rnd in obj["schedule"]["rounds"] if rnd]
    rpath.write_text(json.dumps(obj))
    proc = run_cli("verify", "--graph", str(gpath), "--result", str(rpath))
    assert proc.returncode == 4

    # above n = 200 neither gsc compile nor gsc verify runs the tableau; the
    # certificate alone passes the result and rejects its tampered copies
    big_gpath = tmp_path / "tree.json"
    big_rpath = tmp_path / "tree_result.json"
    write_graph(generate("random_tree", 1000, seed=7), big_gpath)
    assert main(["compile", "--in", str(big_gpath), "--out", str(big_rpath)]) == 0
    big = big_rpath.read_text()
    assert json.loads(big)["verified"] is True
    assert main(["verify", "--graph", str(big_gpath), "--result", str(big_rpath)]) == 0
    assert "PASS" in capsys.readouterr().out
    big_rpath.write_text(big.replace('"verified": true', '"verified": false'))
    assert main(["verify", "--graph", str(big_gpath), "--result", str(big_rpath)]) == 4
    assert capsys.readouterr().err == "FAIL: stored fields differ from the re-derived result: verified\n"
    obj = json.loads(big)
    block = obj["schedule"]["rounds"][0][0]
    block["L"] = block["L"] - 1 if block["L"] > 0 else block["L"] + 1
    big_rpath.write_text(json.dumps(obj))
    assert main(["verify", "--graph", str(big_gpath), "--result", str(big_rpath)]) == 4
    assert "FAIL" in capsys.readouterr().err


def test_verify_pass_line_says_whether_the_tableau_ran(tmp_path, capsys):
    for n, replay in ((200, "ran"), (201, "skipped above n = 200")):
        gpath, rpath = tmp_path / f"path{n}.json", tmp_path / f"r{n}.json"
        write_graph(generate("path", n), gpath)
        assert main(["compile", "--in", str(gpath), "--mapper", "natural", "--out", str(rpath)]) == 0
        capsys.readouterr()
        assert main(["verify", "--graph", str(gpath), "--result", str(rpath)]) == 0
        assert capsys.readouterr().out == f"PASS: certificate holds, tableau replay {replay}\n"


def test_verify_reads_any_layout_of_the_same_values(tmp_path, capsys):
    gpath = tmp_path / "g.json"
    rpath = tmp_path / "r.json"
    write_graph(generate("gnm", 10, m=16, seed=2), gpath)
    assert main(["compile", "--in", str(gpath), "--out", str(rpath)]) == 0
    obj = json.loads(rpath.read_text())
    argv = ["verify", "--graph", str(gpath), "--result", str(rpath)]
    for layout in ({}, {"sort_keys": True}, {"indent": 4}):
        rpath.write_text(json.dumps(obj, **layout))
        capsys.readouterr()
        assert main(argv) == 0, layout
        assert capsys.readouterr().out.startswith("PASS"), layout
    # a forged value in another layout is still named
    obj["tocks"] += 1
    rpath.write_text(json.dumps(obj, sort_keys=True))
    assert main(argv) == 4
    assert capsys.readouterr().err == "FAIL: stored fields differ from the re-derived result: tocks\n"


def test_verify_malformed_result_exit_2(tmp_path, capsys):
    gpath = tmp_path / "g.json"
    rpath = tmp_path / "r.json"
    write_graph(generate("path", 6), gpath)
    assert main(["compile", "--in", str(gpath), "--mapper", "natural", "--out", str(rpath)]) == 0
    original = rpath.read_text()

    def first_block(r):
        return r["schedule"]["rounds"][0][0]

    # wrongly typed values that equal the right ones in Python (1.0 == 1 == true)
    for forge in (
        lambda r: r["schedule"].update(rounds=5),
        lambda r: r["plan"].update(measured=7),
        lambda r: r["plan"].update(independent_set=["a"]),
        lambda r: r.clear(),
        lambda r: r.update(verified="yes"),
        lambda r: r.update(verified=1),
        lambda r: r.update(n=6.0),
        lambda r: r.update(mapping=[float(p) for p in r["mapping"]]),
        lambda r: r["mapping"].__setitem__(1, True),
        lambda r: r["plan"].update(independent_set=[float(v) for v in r["plan"]["independent_set"]]),
        lambda r: r["plan"].update(measured=[float(v) for v in r["plan"]["measured"]]),
        lambda r: first_block(r).update(gen=float(first_block(r)["gen"])),
        lambda r: first_block(r).update(L=float(first_block(r)["L"])),
        lambda r: first_block(r).update(R=float(first_block(r)["R"])),
        lambda r: first_block(r).update(gen=True),
    ):
        obj = json.loads(original)
        forge(obj)
        rpath.write_text(json.dumps(obj))
        capsys.readouterr()
        assert main(["verify", "--graph", str(gpath), "--result", str(rpath)]) == 2, obj
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
    # the schedule is read into int64 columns, which cannot hold these
    for field, value in (("gen", 2**70), ("L", 2**63), ("R", -2**63 - 1)):
        obj = json.loads(original)
        first_block(obj)[field] = value
        rpath.write_text(json.dumps(obj))
        capsys.readouterr()
        assert main(["verify", "--graph", str(gpath), "--result", str(rpath)]) == 2, field
        assert capsys.readouterr().err == "error: block values must fit in 64 bits\n"
    for text, message in (
        (json.dumps({k: v for k, v in json.loads(original).items() if k != "n"}),
         "error: result is missing field 'n'\n"),
        ("[]", "error: result must be a JSON object\n"),
    ):
        rpath.write_text(text)
        capsys.readouterr()
        assert main(["verify", "--graph", str(gpath), "--result", str(rpath)]) == 2
        assert capsys.readouterr().err == message


def test_unreadable_paths_and_deep_json_exit_2(tmp_path, capsys):
    gpath = tmp_path / "g.json"
    rpath = tmp_path / "r.json"
    deep = tmp_path / "deep.json"
    write_graph(generate("path", 6), gpath)
    assert main(["compile", "--in", str(gpath), "--out", str(rpath)]) == 0
    deep.write_text("[" * 100_000 + "]" * 100_000)
    for argv in (
        ["compile", "--in", str(tmp_path)],
        ["compile", "--in", str(deep)],
        ["compile", "--gen", "path:6", "--out", str(tmp_path)],
        ["verify", "--graph", str(tmp_path), "--result", str(rpath)],
        ["verify", "--graph", str(deep), "--result", str(rpath)],
        ["verify", "--graph", str(gpath), "--result", str(tmp_path)],
        ["verify", "--graph", str(gpath), "--result", str(deep)],
        ["bench", "--suite", "types", "--kind", "path", "--n", "4", "--workers", "1",
         "--out", str(tmp_path)],
    ):
        capsys.readouterr()
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, (argv, err)


def test_verify_dimension_mismatch(tmp_path):
    gpath = tmp_path / "g.json"
    rpath = tmp_path / "r.json"
    write_graph(generate("path", 5), gpath)
    proc = run_cli("compile", "--gen", "path:6", "--out", str(rpath))
    assert proc.returncode == 0
    proc = run_cli("verify", "--graph", str(gpath), "--result", str(rpath))
    assert proc.returncode == 2
    assert "6 qubits" in proc.stderr


def test_bench_types_star_constant_tocks(tmp_path):
    out = tmp_path / "b.csv"
    code = main(
        [
            "bench", "--suite", "types", "--kind", "star", "--n", "10..1000",
            "--mappers", "mincut,random", "--timings", "zero",
            "--workers", "2", "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(BenchRow._fields)
    rows = [dict(zip(BenchRow._fields, ln.split(","))) for ln in lines[1:]]
    assert rows
    assert all(r["tocks"] == "1" for r in rows)
    # the mincut mapper is skipped above the default cap, random runs to 1000
    assert {r["n"] for r in rows if r["mapper"] == "random"} >= {"10", "1000"}
    assert all(int(r["n"]) <= 300 for r in rows if r["mapper"] == "mincut")


def test_bench_density_csv_deterministic(tmp_path):
    args = [
        "bench", "--suite", "density", "--n", "24", "--seeds", "3",
        "--densities", "0.2,0.6,1.0", "--mappers", "random", "--timings", "zero",
    ]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    rows = [
        dict(zip(BenchRow._fields, ln.split(",")))
        for ln in a.read_text().splitlines()[1:]
    ]
    # density 1.0 instances are complete graphs: tocks = n - 1
    dense = [r for r in rows if r["graph_kind"] == "gnm_d1"]
    assert dense and all(r["tocks"] == "23" for r in dense)


def test_bench_density_warns_when_raised_to_a_tree(tmp_path, capsys):
    args = ["bench", "--suite", "density", "--mappers", "random", "--schedulers", "paper",
            "--seeds", "1", "--workers", "1", "--timings", "zero", "--out", str(tmp_path / "d.csv")]
    assert main(args + ["--n", "100", "--densities", "0.01,0.2"]) == 0
    assert capsys.readouterr().err == (
        "warning: density 0.01 at n=100 asks for 50 edges, fewer than the n-1 = 99 "
        "a connected graph needs; its rows use 99 edges, density 0.020000\n"
    )
    rows = (tmp_path / "d.csv").read_text().splitlines()[1:]
    assert [r.split(",")[:4] for r in rows] == [
        ["gnm_d0.01", "100", "99", "0.020000"],
        ["gnm_d0.2", "100", "990", "0.200000"],
    ]
    # a grid whose every density reaches a tree prints nothing
    assert main(args + ["--n", "24", "--densities", "0.2,0.6,1.0"]) == 0
    assert capsys.readouterr().err == ""


def test_bench_scaling_sparse_small(tmp_path):
    out = tmp_path / "s.csv"
    code = main(
        [
            "bench", "--suite", "scaling", "--family", "sparse", "--n", "16,32",
            "--seeds", "2", "--mappers", "random", "--timings", "zero", "--out", str(out),
        ]
    )
    assert code == 0
    rows = [
        dict(zip(BenchRow._fields, ln.split(",")))
        for ln in out.read_text().splitlines()[1:]
    ]
    # both schedulers are reported by default
    assert len(rows) == 8
    assert {r["scheduler"] for r in rows} == {"paper", "first-fit"}
    for r in rows:
        assert int(r["tocks"]) < int(r["n"])


def test_bench_workers_merge_deterministic(tmp_path):
    args = [
        "bench", "--suite", "types", "--kind", "random_tree", "--n", "12,20",
        "--seeds", "2", "--mappers", "random,mincut", "--timings", "zero",
    ]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(args + ["--workers", "1", "--out", str(a)]) == 0
    assert main(args + ["--workers", "2", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_bench_rejects_bad_suite_args(tmp_path, monkeypatch, capsys):
    assert main(["bench", "--suite", "types", "--kind", "blob", "--n", "10"]) == 2
    assert main(["bench", "--suite", "types", "--kind", "star", "--n", "10",
                 "--mappers", "warp"]) == 2
    assert main(["bench", "--suite", "density", "--n", "10", "--densities", "abc"]) == 2
    assert main(["bench", "--suite", "types", "--kind", "star", "--n", "1..x"]) == 2
    capsys.readouterr()

    def no_worker(task):
        raise AssertionError("a bench instance ran despite a bad option")

    # fewer than one seed or worker and a density outside (0, 1] are
    # rejected before any instance runs
    monkeypatch.setattr("gsc.cli.run_bench_instance", no_worker)
    for flag, value in (("--seeds", "0"), ("--seeds", "-2"), ("--workers", "0"), ("--workers", "-4")):
        assert main(["bench", "--suite", "types", "--kind", "random_tree", "--n", "10",
                     flag, value]) == 2
        assert capsys.readouterr().err == f"error: {flag} must be at least 1, got {value}\n"
    # and so is a negative min-cut cap, which would skip the mapper silently
    for value in ("-1", "-5"):
        assert main(["bench", "--suite", "types", "--kind", "random_tree", "--n", "10",
                     "--mincut-cap", value]) == 2
        assert capsys.readouterr().err == f"error: --mincut-cap must be at least 0, got {value}\n"
    for densities, bad in (("1.5,-0.3", "1.5"), ("0.2,-0.3", "-0.3"), ("0", "0"), ("nan", "nan")):
        assert main(["bench", "--suite", "density", "--n", "10", "--densities", densities]) == 2
        assert capsys.readouterr().err == f"error: density {bad} outside (0, 1]\n"
    # and so is a size below 1, even after valid sizes in a list
    for sizes in ("5,0", "0"):
        assert main(["bench", "--suite", "types", "--kind", "path", "--n", sizes]) == 2
        assert capsys.readouterr().err == f"error: bad size list {sizes!r}: every size must be >= 1\n"
    # and so is a flag of another suite, which that suite would ignore
    for suite, flag, value, owner in (("types", "--densities", "0.5", "density"),
                                      ("types", "--family", "dense", "scaling"),
                                      ("density", "--kind", "star", "types"),
                                      ("density", "--family", "sparse", "scaling"),
                                      ("scaling", "--kind", "path", "types"),
                                      ("scaling", "--densities", "0.5", "density")):
        assert main(["bench", "--suite", suite, "--n", "10", flag, value]) == 2
        assert capsys.readouterr().err == f"error: {flag} applies only to --suite {owner}, not to --suite {suite}\n"
    # and so is an option that selects nothing
    for suite in ("types", "density"):
        for flag, value in (("--mappers", ","), ("--schedulers", ""), ("--n", ",")):
            assert main(["bench", "--suite", suite, "--n", "10", flag, value]) == 2
            assert capsys.readouterr().err == f"error: {flag} {value!r} selects nothing\n"
    # and so is a min-cut cap below every size when mincut is the only mapper;
    # no CSV, not even its header, is written
    out = tmp_path / "b.csv"
    for suite_args in (["types", "--kind", "path"], ["density", "--densities", "1"], ["scaling"]):
        assert main(["bench", "--suite", *suite_args, "--n", "3,5", "--mappers", "mincut",
                     "--mincut-cap", "2", "--out", str(out)]) == 2
        assert capsys.readouterr().err == ("error: --mincut-cap 2 is below every size and mincut "
                                           "is the only mapper, so no instance would run\n")
        assert not out.exists()


def test_bench_checks_every_size_before_any_task(tmp_path, monkeypatch, capsys):
    def no_work(*args, **kw):
        raise AssertionError("a bench instance ran despite a size no task can generate")

    monkeypatch.setattr("gsc.cli.run_bench_instance", no_work)
    out = tmp_path / "b.csv"
    assert main(["bench", "--suite", "types", "--kind", "path", "--n", "5,20000000", "--mappers", "natural",
                 "--schedulers", "paper", "--workers", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: n=20000000 exceeds the limit of 10000000 vertices\n"
    assert not out.exists()


def test_bench_task_value_error_exits_2(tmp_path, monkeypatch, capsys):
    def sampler_gives_up(task):
        raise ValueError(f"could not sample a connected G(n={task['n']}, m={task['m']}) graph")

    monkeypatch.setattr("gsc.cli.run_bench_instance", sampler_gives_up)
    out = tmp_path / "d.csv"
    assert main(["bench", "--suite", "density", "--n", "1000", "--densities", "0.01", "--seeds", "1",
                 "--mappers", "natural", "--schedulers", "paper", "--workers", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: could not sample a connected G(n=1000, m=4995) graph\n"
    assert not out.exists()


def test_bench_density_far_below_connectivity_exits_2_before_work(tmp_path, monkeypatch, capsys):
    # about 50 isolated vertices per G(1000, 1498) sample: refused before any sampling
    monkeypatch.setattr("gsc.cli.run_bench_instance", lambda task: pytest.fail("an instance ran"))
    out = tmp_path / "d.csv"
    assert main(["bench", "--suite", "density", "--n", "1000", "--densities", "0.003", "--seeds", "1",
                 "--mappers", "natural", "--schedulers", "paper", "--workers", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: gnm edge count m=1498 is far below the connectivity threshold")
    assert "49.6 isolated vertices" in err
    assert not out.exists()


def test_bench_pool_is_no_larger_than_the_task_count(monkeypatch, capsys):
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)  # cmd_bench imports it when run
    args = ["bench", "--suite", "types", "--kind", "path", "--n", "4", "--mappers", "natural",
            "--timings", "zero", "--workers", "100000"]
    assert main(args + ["--schedulers", "paper,first-fit"]) == 0
    assert sizes == [2]
    assert len(capsys.readouterr().out.splitlines()) == 1 + 2
    assert main(args + ["--schedulers", "paper"]) == 0  # one task runs in this process
    assert sizes == [2]


def test_bench_row_edge_count_and_density():
    for kind, n, edge_count, density in (("path", 3, 2, 2 / 3), ("star", 5, 4, 0.4), ("path", 1, 0, 0.0),
                                         ("complete", 4, 6, 1.0)):
        row = run_bench_instance({"label": kind, "kind": kind, "n": n, "m": None, "rep": 0, "seed": 0,
                                  "mapper": "natural", "scheduler": "paper", "zero_timings": True})
        assert (row.edge_count, row.density) == (edge_count, f"{density:.6f}")


def test_bench_number_errors_name_the_flag(capsys):
    for flag, value, message in (
        ("--densities", ",", "--densities ',' selects nothing"),
        ("--densities", "0.2,x", "--densities '0.2,x': 'x' is not a valid float"),
        ("--n", "10..x", "--n '10..x': 'x' is not a valid int"),
        ("--n", "10..", "--n '10..': '' is not a valid int"),
        ("--n", "10,abc", "--n '10,abc': 'abc' is not a valid int"),
    ):
        assert main(["bench", "--suite", "density", "--n", "10", flag, value]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def test_verify_forged_mapping_messages(tmp_path, capsys):
    """A stored mapping is read into an int64 position array; a forged one
    is refused with the same message whether it is short, out of int64
    range or not made of integers."""
    gpath = tmp_path / "g.json"
    rpath = tmp_path / "r.json"
    write_graph(generate("path", 6), gpath)
    assert main(["compile", "--in", str(gpath), "--mapper", "natural", "--out", str(rpath)]) == 0
    original = json.loads(rpath.read_text())
    for forge, message in (
        (lambda m: m.pop(), "mapping covers 5 vertices, graph has 6"),
        (lambda m: m.__setitem__(2, 2**70), "mapping is not a bijection onto 0..n-1"),
        (lambda m: m.__setitem__(5, 5.0), "result mapping must be an integer, got 5.0"),
    ):
        obj = json.loads(json.dumps(original))
        forge(obj["mapping"])
        rpath.write_text(json.dumps(obj))
        capsys.readouterr()
        assert main(["verify", "--graph", str(gpath), "--result", str(rpath)]) == 2, message
        assert capsys.readouterr().err == f"error: {message}\n"
