import json
import subprocess
import sys

import pytest

from gsc.cli import BENCH_FIELDS, main, parse_gen_spec, parse_sizes
from gsc.graph import GraphFormatError, generate, save_graph


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


def test_compile_rejects_nonpositive_karger_budget(tmp_path, capsys):
    for budget in ("-7", "0"):
        assert main(["compile", "--gen", "gnm:12:30", "--karger-budget", budget]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: karger_budget must be at least 1, got {budget}\n"
    # options are checked before the input is read
    missing = tmp_path / "missing.json"
    assert main(["compile", "--in", str(missing), "--karger-budget", "0"]) == 2
    assert "karger_budget" in capsys.readouterr().err


def test_compile_disconnected_exit_code(tmp_path):
    f = tmp_path / "g.edges"
    f.write_text("4 2\n0 1\n2 3\n")
    proc = run_cli("compile", "--in", str(f))
    assert proc.returncode == 3


def test_compile_from_file_formats(tmp_path):
    g = generate("gnm", 10, m=16, seed=4)
    for name in ("g.json", "g.adj", "g.edges"):
        path = tmp_path / name
        save_graph(g, path)
        proc = run_cli("compile", "--in", str(path), "--mapper", "natural")
        assert proc.returncode == 0, proc.stderr


def test_verify_round_trip_and_tamper(tmp_path, capsys):
    gpath = tmp_path / "g.json"
    rpath = tmp_path / "r.json"
    g = generate("gnm", 8, m=12, seed=1)
    save_graph(g, gpath)
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
    }
    for field, forge in forgeries.items():
        obj = json.loads(original)
        forge(obj)
        rpath.write_text(json.dumps(obj))
        assert main(["verify", "--graph", str(gpath), "--result", str(rpath)]) == 4, field
        assert field in capsys.readouterr().err
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

    # a result compiled without the tableau: gsc verify runs it at n = 1000
    big_gpath = tmp_path / "tree.json"
    big_rpath = tmp_path / "tree_result.json"
    save_graph(generate("random_tree", 1000, seed=7), big_gpath)
    assert main(["compile", "--in", str(big_gpath), "--verify", "never", "--out", str(big_rpath)]) == 0
    assert "verified=skipped" in capsys.readouterr().out
    assert main(["verify", "--graph", str(big_gpath), "--result", str(big_rpath)]) == 0
    assert "PASS" in capsys.readouterr().out
    obj = json.loads(big_rpath.read_text())
    block = obj["schedule"]["rounds"][0][0]
    block["L"] = block["L"] - 1 if block["L"] > 0 else block["L"] + 1
    big_rpath.write_text(json.dumps(obj))
    assert main(["verify", "--graph", str(big_gpath), "--result", str(big_rpath)]) == 4
    assert "FAIL" in capsys.readouterr().err


def test_verify_malformed_result_exit_2(tmp_path, capsys):
    gpath = tmp_path / "g.json"
    rpath = tmp_path / "r.json"
    save_graph(generate("path", 6), gpath)
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
    for text, message in (
        (json.dumps({k: v for k, v in json.loads(original).items() if k != "n"}),
         "error: result is missing field 'n'\n"),
        ("[]", "error: result must be a JSON object\n"),
    ):
        rpath.write_text(text)
        capsys.readouterr()
        assert main(["verify", "--graph", str(gpath), "--result", str(rpath)]) == 2
        assert capsys.readouterr().err == message


def test_verify_dimension_mismatch(tmp_path):
    gpath = tmp_path / "g.json"
    rpath = tmp_path / "r.json"
    save_graph(generate("path", 5), gpath)
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
    assert lines[0] == ",".join(BENCH_FIELDS)
    rows = [dict(zip(BENCH_FIELDS, ln.split(","))) for ln in lines[1:]]
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
        dict(zip(BENCH_FIELDS, ln.split(",")))
        for ln in a.read_text().splitlines()[1:]
    ]
    # density 1.0 instances are complete graphs: tocks = n - 1
    dense = [r for r in rows if r["graph_kind"] == "gnm_d1"]
    assert dense and all(r["tocks"] == "23" for r in dense)


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
        dict(zip(BENCH_FIELDS, ln.split(",")))
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


def test_bench_rejects_bad_suite_args(monkeypatch, capsys):
    assert main(["bench", "--suite", "types", "--kind", "blob", "--n", "10"]) == 2
    assert main(["bench", "--suite", "types", "--kind", "star", "--n", "10",
                 "--mappers", "warp"]) == 2
    assert main(["bench", "--suite", "density", "--n", "10", "--densities", "abc"]) == 2
    assert main(["bench", "--suite", "types", "--kind", "star", "--n", "1..x"]) == 2
    capsys.readouterr()

    def no_worker(task):
        raise AssertionError("a bench instance ran despite a bad option")

    # a nonpositive budget is rejected before any instance runs
    monkeypatch.setattr("gsc.cli.run_bench_instance", no_worker)
    for budget in ("-1", "0"):
        assert main(["bench", "--suite", "types", "--kind", "star", "--n", "10",
                     "--workers", "2", "--karger-budget", budget]) == 2
        assert capsys.readouterr().err == f"error: karger_budget must be at least 1, got {budget}\n"
    # and so is a size below 1, even after valid sizes in a list
    for sizes in ("5,0", "0"):
        assert main(["bench", "--suite", "types", "--kind", "path", "--n", sizes]) == 2
        assert capsys.readouterr().err == f"error: bad size list {sizes!r}: every size must be >= 1\n"
