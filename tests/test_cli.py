import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qfa
from qfa.cli import main
from qfa.core import GroupSpec, write_subset, GroupSubset
from qfa.setspec import SetSpecError, parse_set_spec
from qfa.suites import emit_report, run_suite


def test_parse_gs():
    A = parse_set_spec("gs:p=3,n=4")
    assert len(A) == 40


def test_parse_quadric():
    A = parse_set_spec("quadric:p=3,n=3,c=0")
    assert len(A) == 9


def test_parse_sparse_and_qgs():
    assert len(parse_set_spec("sparse:p=3,n=4")) == 3
    A = parse_set_spec("qgs:p=3,n=4")
    assert 0 < len(A) < 81


def test_parse_union_cosets():
    A = parse_set_spec("union-cosets:p=3,n=3,duals=100,reps=000;100")
    assert len(A) == 18


def test_parse_file(tmp_path):
    spec = GroupSpec(3, 2)
    A = GroupSubset.from_members(spec, [[1, 0], [0, 2]])
    path = tmp_path / "s.txt"
    write_subset(A, str(path))
    back = parse_set_spec(f"file:{path}")
    assert len(back) == 2


def test_parse_errors_have_positions():
    with pytest.raises(SetSpecError):
        parse_set_spec("nosuch:p=3,n=2")
    with pytest.raises(SetSpecError):
        parse_set_spec("gs:p=3")
    with pytest.raises(SetSpecError):
        parse_set_spec("gs:p3,n=2")


def test_suite_report_json_roundtrip():
    r = run_suite("quadric")
    blob = emit_report(r, "json")
    doc = json.loads(blob)
    assert doc["suite"] == "quadric"
    assert doc["verdict"] == "PASS"
    assert {c["id"] for c in doc["checks"]} == {
        "quadric-cap2",
        "quadric-no-2fop2",
        "quadric-vc2",
        "quadric-size",
    }
    for c in doc["checks"]:
        assert {"id", "anchor", "status", "measured", "bound", "witness", "runtime_ms"} <= set(c)


def test_suite_replayability():
    r1 = run_suite("quadric", {"seed": 7})
    r2 = run_suite("quadric", dict(r1.config))
    assert [c["status"] for c in r1.checks] == [c["status"] for c in r2.checks]
    assert [c["measured"] for c in r1.checks] == [c["measured"] for c in r2.checks]


def test_unknown_suite_raises():
    with pytest.raises(KeyError):
        run_suite("bogus")


def test_cli_verify_exit_code(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["verify", "--suite", "quadric", "--json", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["verdict"] == "PASS"
    text = capsys.readouterr().out
    assert "quadric-cap2" in text


def test_python_m_qfa_runs_the_cli(tmp_path):
    # the qfa command without a console script on PATH
    src = str(Path(qfa.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-m", "qfa", "verify", "--suite", "quadric"],
        env=dict(os.environ, PYTHONPATH=src), cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    assert "suite quadric  [PASS]" in out.stdout


def test_cli_verify_takes_no_unread_flags(tmp_path, capsys):
    # no check reads p, n or eps, so verify has no flags for them, and a
    # report's config records only the seed that the checks do read
    for flag, value in (("--p", "7"), ("--n", "2"), ("--eps", "0.9")):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "uniformity", flag, value])
        assert exc.value.code == 2
    out = tmp_path / "report.json"
    assert main(["verify", "--suite", "quadric", "--seed", "5", "--json", str(out)]) == 0
    assert json.loads(out.read_text())["config"] == {"seed": 5}


def test_cli_detect_witness(capsys):
    rc = main(["detect", "hop2", "--set", "gs:p=3,n=4", "--k", "3", "--witness"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "witness"
    assert doc["witness"]["kind"] == "HOP2"


def test_cli_detect_none(capsys):
    rc = main(["detect", "hop2", "--set", "quadric:p=3,n=2,c=0", "--k", "2"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "none"


@pytest.mark.parametrize("kind,witness", [("vc", "VC"), ("vc2", "VC2"), ("cap2", "CUBE")])
def test_cli_detect_value_searches_exit_1_when_the_budget_runs_out(kind, witness, capsys):
    args = ["detect", kind, "--set", "gs:p=3,n=4", "--k", "3", "--witness"]
    assert main(args) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "exact" and doc["witness"]["kind"] == witness and "note" not in doc
    assert main(args + ["--budget-nodes", "10"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "bound-only"
    assert doc["note"] == "the search budget does not cover the space"


def test_cli_usage_error_exit_2(capsys):
    rc = main(["detect", "op", "--set", "nosuch:p=3", "--k", "2"])
    assert rc == 2


def test_cli_detect_k_below_one_exit_2(capsys):
    for kind in ("op", "hop2", "fop2"):
        assert main(["detect", kind, "--set", "gs:p=3,n=2", "--k", "0"]) == 2


def test_cli_bad_formula_exit_2(tmp_path, capsys):
    from qfa.factors import QuadraticFactor, write_factor

    ffile = tmp_path / "f.txt"
    write_factor(QuadraticFactor(GroupSpec(3, 2), [[1, 0]], []), str(ffile))
    for argv in (
        ["regularize", "--set", "gs:p=3,n=2", "--psi", "9**9**9"],
        ["factor", "repair", "--factor", str(ffile), "--target-rank-fn", "1/x"],
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("qfa: error: unsupported") and "Traceback" not in err


def test_cli_short_factor_file_exit_2(tmp_path, capsys):
    from support import MALFORMED_FACTOR_FILES

    bad = [(f"bad{i}.txt", text) for i, (text, _, _) in enumerate(MALFORMED_FACTOR_FILES)]
    for name, text in [("empty.txt", ""), ("header.txt", "3 2 1 0\n"), *bad]:
        ffile = tmp_path / name
        ffile.write_text(text)
        assert main(["factor", "rank", "--factor", str(ffile)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"qfa: error: {ffile}:") and "Traceback" not in err


def test_cli_concurrent_jobs_match_serial():
    r1 = run_suite("quadric", jobs=1)
    r2 = run_suite("quadric", jobs=4)
    assert [c["id"] for c in r1.checks] == [c["id"] for c in r2.checks]
    assert [c["status"] for c in r1.checks] == [c["status"] for c in r2.checks]


def test_cli_config_file(tmp_path, capsys):
    cfg = tmp_path / "qfa.cfg"
    out = tmp_path / "report.json"
    cfg.write_text("seed=12\n")
    rc = main(["--config", str(cfg), "verify", "--suite", "quadric", "--json", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["config"] == {"seed": 12}
    # a key verify does not read, a line without "=", a missing file and a
    # directory are usage errors (exit 2), not an ignored setting or a traceback
    for text, msg in (("seed=3\np=7\neps=0.9\n", "unknown key 'p'"), ("seed 3\n", "expected key=value")):
        cfg.write_text(text)
        capsys.readouterr()
        assert main(["--config", str(cfg), "verify", "--suite", "quadric"]) == 2
        assert msg in capsys.readouterr().err
    assert main(["--config", str(tmp_path / "missing.cfg"), "verify", "--suite", "quadric"]) == 2
    assert "missing.cfg" in capsys.readouterr().err
    assert main(["--config", str(tmp_path), "verify", "--suite", "quadric"]) == 2


def test_cli_regularize_and_chain(tmp_path, capsys):
    chain = tmp_path / "chain.json"
    rc = main([
        "regularize", "--set", "gs:p=3,n=6", "--eps", "0.1",
        "--max-codim", "4", "--emit-chain", str(chain),
    ])
    assert rc == 0
    doc = json.loads(chain.read_text())
    assert doc["eps"] == 0.1 and len(doc["factors"]) >= 1


def test_cli_measure_u2(capsys):
    rc = main(["measure", "u2", "--set", "quadric:p=3,n=3,c=0"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["name"] == "u2" and doc["measured"] > 0


def test_report_verdicts_on_synthetic_results():
    from qfa.suites import CheckResult, SuiteResult

    empty = SuiteResult("synthetic", {})
    assert empty.verdict == "PASS"
    assert json.loads(emit_report(empty, "json"))["checks"] == []
    failing = SuiteResult("synthetic", {})
    failing.add("a", "slug", CheckResult("PASS"), 1.0)
    failing.add("b", "slug", CheckResult("FAIL", measured=2.0, bound=1.0), 1.0)
    assert failing.verdict == "FAIL"
    text = emit_report(failing, "text").decode()
    assert "[FAIL]" in text


def test_gs_zero_coset_check_names_a_failing_plane(monkeypatch):
    import itertools

    import numpy as np

    from qfa import constructions as cons
    from qfa import suites
    from qfa.core import _canonical_lines

    A = cons.gs(6, 3)
    digits = A.spec.digits.astype(np.int64)
    zero = (digits @ np.stack(_canonical_lines(digits, 3)).T) % 3 == 0
    plane = zero[:, 3] & zero[:, 40]
    bad = A.indicator.copy()
    bad[np.flatnonzero(plane & ~bad)[:15]] = True  # 55 of the plane's 81 points

    def first_failure():
        # the loop the check replaces: lines first, then planes in order
        for i in range(zero.shape[1]):
            if not 1 / 3 <= bad[zero[:, i]].mean() <= 2 / 3:
                return f"line {i}"
        for i, j in itertools.combinations(range(zero.shape[1]), 2):
            if not 1 / 3 <= bad[zero[:, i] & zero[:, j]].mean() <= 2 / 3:
                return f"plane {i},{j}"

    assert first_failure() == "plane 3,40"
    monkeypatch.setattr(cons, "gs", lambda n, p: GroupSubset(A.spec, bad))
    res = suites._check_gs_zero_coset({})
    assert (res.status, res.note, res.measured) == ("FAIL", "plane 3,40", 55 / 81)


def test_sparse_span_check_names_a_low_rank_subset(monkeypatch):
    import numpy as np

    from qfa import constructions as cons
    from qfa import suites

    spec = GroupSpec(3, 8)
    e = spec.basis_vector
    # in index order: e1, e2, e1 + e2, 2 e2, e3, ..., e8; members 1 and 3 span
    # one line, rank 1 < sqrt(2), and no earlier pair or single fails
    rows = [e(1), e(2), e(1) + e(2), 2 * e(2)] + [e(i) for i in range(3, 9)]
    monkeypatch.setattr(cons, "sparse_example", lambda n, p: GroupSubset.from_members(spec, rows))
    res = suites._check_sparse_span({})
    assert (res.status, res.note) == ("FAIL", "subset (1, 3)")


def test_density_transfer_check_names_a_flat_off_by_1e_9(monkeypatch):
    import numpy as np

    from qfa import suites

    flat = np.random.default_rng(7).integers(0, 3, size=5)  # the first seeded flat
    exact = suites._binary_transfer_errors

    def shifted(A, F):
        err = exact(A, F)
        err[tuple(flat)] += 1e-9
        return err

    monkeypatch.setattr(suites, "_binary_transfer_errors", shifted)
    res = suites._check_density_transfer({"seed": 7})
    assert res.status == "FAIL"
    assert res.note.startswith(f"n=6 flat {flat.tolist()}: exhaustive ")


def test_density_transfer_table_raises_on_counts_that_do_not_add_up(monkeypatch):
    from qfa import constructions as cons
    from qfa import core, suites
    from qfa.factors import QuadraticFactor

    spec = GroupSpec(3, 4)
    F = QuadraticFactor(spec, [spec.basis_vector(1)], [cons.trace_sym_space(4, 3)[0]])
    # doubling every transform keeps the counts integral but eight times too large
    monkeypatch.setattr(suites, "dft", lambda f, sp: core.dft(f, sp) * 2)
    with pytest.raises(ArithmeticError, match="do not sum"):
        suites._binary_transfer_errors(cons.gs(4, 3), F)


def test_density_transfer_guard_reports_error_under_optimize(run_optimized):
    out = run_optimized(
        "from qfa import core, suites\n"
        "assert False, 'asserts are live'\n"
        "suites.dft = lambda f, spec: core.dft(f, spec) + 1e-3\n"
        "suites.SUITES['uniformity'] = [e for e in suites.SUITES['uniformity'] if e[0] == 'density-transfer']\n"
        "result = suites.run_suite('uniformity')\n"
        "print(result.verdict, result.checks[0]['status'], result.checks[0]['note'])\n"
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("FAIL ERROR ArithmeticError: Fourier count is "), out.stdout


def test_cli_detect_tree_counts(capsys):
    rc = main(["detect", "tree", "--set", "quadric:p=3,n=2,c=0", "--k", "1"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "tree" and int(doc["count"]) >= 0
    assert doc["status"] == "exact" and "note" not in doc
    # the count takes the search budget, and exits 1 when it runs out
    assert main(["detect", "tree", "--set", "gs:p=3,n=3", "--k", "3", "--budget-nodes", "10"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "bound-only" and "count" not in doc
    assert doc["note"] == "the search budget does not cover the space"


def _pullback_on_the_wrong_label_space(tmp_path):
    from qfa.factors import QuadraticFactor, write_factor

    sp = GroupSpec(3, 3)
    # B's labels live in F_3^1, and R lives in F_3^3
    for name in ("b.txt", "r.txt"):
        write_factor(QuadraticFactor(sp, [sp.basis_vector(1)], []), str(tmp_path / name))
    return ["factor", "pullback", "--factor", str(tmp_path / "b.txt"), "--pullback", str(tmp_path / "r.txt")]


@pytest.mark.parametrize("argv,message", [
    (lambda tmp_path: ["measure", "u2", "--set", "gs:p=3,n=40"], "exceeds the enumeration cap"),
    (_pullback_on_the_wrong_label_space, "label space"),
])
def test_cli_shape_and_capacity_errors_exit_2(argv, message, tmp_path, capsys):
    assert main(argv(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("qfa: error: ") and message in err and "Traceback" not in err


def test_cli_factor_repair_and_pullback_keep_shifts(tmp_path, capsys):
    import numpy as np
    from qfa.factors import QuadraticFactor, read_factor, refines, write_factor

    sp = GroupSpec(3, 3)
    M = np.array([[1, 1, 0], [1, 0, 0], [0, 0, 0]])
    B = QuadraticFactor(sp, [], [M, 2 * M], [sp.basis_vector(1), sp.basis_vector(3)])
    bfile, out = tmp_path / "b.txt", tmp_path / "out.txt"
    write_factor(B, str(bfile))
    assert len(bfile.read_text().splitlines()) == 1 + 2 * 3 + 2
    assert main(["factor", "repair", "--factor", str(bfile), "--out", str(out)]) == 0
    assert refines(read_factor(str(out)), B)
    lab = GroupSpec(3, 2)
    write_factor(QuadraticFactor(lab, [[1, 1]]), str(tmp_path / "r.txt"))
    argv = ["factor", "pullback", "--factor", str(bfile), "--pullback", str(tmp_path / "r.txt")]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert doc["purely_linear"] is True


def test_cli_factor_pullback(tmp_path, capsys):
    import numpy as np
    from qfa.core import GroupSpec
    from qfa.constructions import trace_sym_space
    from qfa.factors import LinearFactor, QuadraticFactor, write_factor

    sp = GroupSpec(3, 4)
    mats = trace_sym_space(4, 3)
    B = QuadraticFactor(sp, [sp.basis_vector(1)], [mats[0]])
    bfile = tmp_path / "b.txt"
    write_factor(B, str(bfile))
    lab = GroupSpec(3, 2)
    R = QuadraticFactor(lab, LinearFactor(lab, [np.array([1, 1])]), [])
    rfile = tmp_path / "r.txt"
    write_factor(R, str(rfile))
    out = tmp_path / "out.txt"
    rc = main([
        "factor", "pullback", "--factor", str(bfile),
        "--pullback", str(rfile), "--out", str(out),
    ])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["complexity"][1] > 0 or doc["purely_linear"]


def test_cli_measure_triad_quantities(tmp_path, capsys):
    import numpy as np
    from qfa.core import GroupSpec
    from qfa.constructions import trace_sym_space
    from qfa.factors import QuadraticFactor, write_factor

    sp = GroupSpec(3, 4)
    mats = trace_sym_space(4, 3)
    F = QuadraticFactor(sp, [], [mats[0]])
    ffile = tmp_path / "f.txt"
    write_factor(F, str(ffile))
    tfile = tmp_path / "t.json"
    tfile.write_text(json.dumps([0, 1, 2, 0, 1, 2]))
    for quantity in ("dev23", "oct", "k222"):
        rc = main([
            "measure", quantity, "--set", "gs:p=3,n=4",
            "--factor", str(ffile), "--triad", str(tfile),
        ])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["name"] == quantity


def test_parse_quadric_custom_matrix():
    from qfa.setspec import parse_set_spec

    A = parse_set_spec("quadric:p=3,n=2,c=1,m=01;10")
    # x^T M x = 2 x1 x2 = 1 has solutions (1,2),(2,1) over F_3
    assert len(A) == 2
