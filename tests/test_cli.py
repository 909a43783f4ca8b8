import pytest

from gtvm import corpus, snapshot
from gtvm.cli import main
from gtvm.corpus.fixtures import load_fixture


@pytest.fixture
def tri_gms(tmp_path):
    path = tmp_path / "triangle.gms"
    snapshot.save_file(load_fixture("triangle"), path)
    return str(path)


def test_run_counts(tri_gms, tmp_path, capsys):
    out = tmp_path / "after.gms"
    code = main(["run", "graphPatterns", "countMatchesASM",
                 "--model", tri_gms, "--out", str(out)])
    captured = capsys.readouterr().out
    assert code == 0
    assert "Number of nodes = 3" in captured
    assert "Number of nodes in circles of three = 3" in captured
    assert "Number of dangling edges = 0" in captured
    assert out.exists()
    reloaded = snapshot.load_file(out, corpus.metamodels())
    assert reloaded.audit() == []


def test_run_hello_world(capsys):
    code = main(["run", "helloWorldASM"])
    captured = capsys.readouterr().out
    assert code == 0
    assert "2.1 Hello World transformation finished" in captured


def test_run_missing_file(capsys):
    assert main(["run", "missing.vtcl"]) == 1


def test_run_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.vtcl"
    bad.write_text("machine m{ rule main() = seq{")
    assert main(["run", str(bad)]) == 1


def test_run_runtime_error(tmp_path, capsys):
    src = tmp_path / "diverge.vtcl"
    src.write_text("""
    import nemf.packages;
    machine diverge{
      rule main() =
        iterate choose N with find graphPatterns.SimpleNode(N) do skip;
    }""")
    tri = tmp_path / "t.gms"
    snapshot.save_file(load_fixture("triangle"), tri)
    import os
    os.environ["GTVM_STEP_BUDGET"] = "25"
    try:
        assert main(["run", "graphPatterns", str(src), "--model", str(tri)]) == 2
    finally:
        del os.environ["GTVM_STEP_BUDGET"]


@pytest.mark.parametrize("budget", ["abc", "-5"])
def test_run_bad_step_budget(budget, monkeypatch, capsys):
    monkeypatch.setenv("GTVM_STEP_BUDGET", budget)
    assert main(["run", "helloWorldASM"]) == 1
    assert "GTVM_STEP_BUDGET must be a non-negative integer" in capsys.readouterr().err


def test_run_self_calling_rule(tmp_path, capsys):
    src = tmp_path / "loop.vtcl"
    src.write_text("machine loop{ rule main() = seq { call main(); } }")
    assert main(["run", str(src)]) == 2
    assert "nested deeper than" in capsys.readouterr().err


def test_run_deep_nesting(tmp_path, capsys):
    src = tmp_path / "deep.vtcl"
    src.write_text("machine deep{ rule main() = " + "seq{ " * 3000 + "skip;"
                   + " }" * 3000 + " }")
    assert main(["run", str(src)]) == 1
    assert "nesting deeper than" in capsys.readouterr().err
    src.write_text("machine deep{ rule down(in N) = " + "seq{ " * 8
                   + "if (N != 98) call down(N + 1);" + " }" * 8
                   + " rule main() = call down(0); }")
    assert main(["run", str(src)]) == 2
    assert "nested deeper than" in capsys.readouterr().err


def test_match_dangling(tmp_path, capsys):
    gms = tmp_path / "d.gms"
    snapshot.save_file(load_fixture("dangling"), gms)
    code = main(["match", "--model", str(gms), "--pattern", "danglingEdge"])
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert len(out) == 1 and out[0].startswith("Edge=")


def test_match_count_empty(tmp_path, capsys):
    gms = tmp_path / "e.gms"
    snapshot.save_file(load_fixture("empty"), gms)
    code = main(["match", "--model", str(gms), "--pattern", "SimpleNode", "--count"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "0"


def test_match_recursive_refused_on_inc(tri_gms, capsys):
    code = main(["match", "--model", tri_gms, "--pattern", "transitiveConnected",
                 "--matcher", "inc"])
    err = capsys.readouterr().err
    assert code == 1
    assert "ls" in err
    code = main(["match", "--model", tri_gms, "--pattern", "transitiveConnected",
                 "--matcher", "ls"])
    assert code == 0


def test_match_unknown_pattern(tri_gms, capsys):
    assert main(["match", "--model", tri_gms, "--pattern", "nothing"]) == 1


def test_diff_identical(tri_gms, capsys):
    assert main(["diff", tri_gms, tri_gms]) == 0
    assert "identical" in capsys.readouterr().out


def test_diff_reverse_twice_identity(tmp_path, capsys):
    tri = tmp_path / "tri.gms"
    space = load_fixture("triangle")
    snapshot.save_file(space, tri)
    from gtvm.corpus import run_task
    run_task("2.3", "asm", space)
    run_task("2.3", "asm", space)
    again = tmp_path / "again.gms"
    snapshot.save_file(space, again)
    assert main(["diff", str(tri), str(again)]) == 0


def test_diff_variants_isomorphic(tmp_path, capsys):
    from gtvm.corpus import run_task
    a = tmp_path / "a.gms"
    b = tmp_path / "b.gms"
    snapshot.save_file(run_task("2.6", "all-asm", "chain4").space, a)
    snapshot.save_file(run_task("2.6", "all-gt", "chain4").space, b)
    assert main(["diff", str(a), str(b)]) == 1  # ids differ strictly
    assert main(["diff", str(a), str(b), "--ignore-ids"]) == 0


def test_diff_load_failure(tmp_path):
    assert main(["diff", str(tmp_path / "no.gms"), str(tmp_path / "no.gms")]) == 2


def test_fixture_subcommand(tmp_path, capsys):
    out = tmp_path / "x.gms"
    assert main(["fixture", "selfloop", "--out", str(out)]) == 0
    assert out.read_text() == corpus.fixture_gms("selfloop")


def test_corpus_invocations_end_to_end(tmp_path, capsys):
    """Every documented corpus invocation runs through the CLI."""
    fixture_file = {}
    for name in ("triangle", "chain4", "delete"):
        path = tmp_path / f"{name}.gms"
        snapshot.save_file(load_fixture(name), path)
        fixture_file[name] = str(path)
    runs = [
        (["run", "helloWorldASM"], None),
        (["run", "helloWorldGT"], None),
        (["run", "graphPatterns", "countMatchesASM"], "triangle"),
        (["run", "graphPatterns", "countMatchesMC"], "triangle"),
        (["run", "graphPatterns", "reverseEdgesASM"], "triangle"),
        (["run", "graphPatterns", "reverseEdgesGT"], "triangle"),
        (["run", "graphPatterns", "reverseEdgesRel"], "triangle"),
        (["run", "graphPatterns", "simpleMigration-fixed"], "triangle"),
        (["run", "graphPatterns", "simpleMigrationInplace"], "triangle"),
        (["run", "graphPatterns", "simpleMigrationTopology"], "triangle"),
        (["run", "graphPatterns", "simpleMigrationTopologyInplace"], "triangle"),
        (["run", "graphPatterns", "deleteNodeASM"], "delete"),
        (["run", "graphPatterns", "deleteNodeGT"], "delete"),
        (["run", "graphPatterns", "deleteNodeIncidentASM"], "delete"),
        (["run", "graphPatterns", "deleteNodeIncidentGT"], "delete"),
        (["run", "graphPatterns", "transitiveEdgesASM"], "chain4"),
        (["run", "graphPatterns", "transitiveEdgesGT"], "chain4"),
        (["run", "graphPatterns", "transitiveEdgesIterativeASM"], "chain4"),
        (["run", "graphPatterns", "transitiveEdgesIterativeGT"], "chain4"),
        (["run", "graphPatterns", "transitiveEdgesAllASM"], "chain4"),
        (["run", "graphPatterns", "transitiveEdgesAllGT"], "chain4"),
        (["run", "graphPatterns", "simpleMigration"], "triangle"),
    ]
    for argv, fixture in runs:
        if fixture is not None:
            argv = argv + ["--model", fixture_file[fixture]]
        assert main(argv) == 0, argv
        capsys.readouterr()
