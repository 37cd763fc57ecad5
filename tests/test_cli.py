import json
import os
import subprocess
import sys
import time
from pathlib import Path
from random import Random

from macdaha import clear_caches, suites
from macdaha.cli import _ENVELOPE, _SUITE_SIZE, _UNBOUNDED_SUITES, main
from macdaha.suites import SUITES, _check, list_suites, run_suite


def run(capsys, argv):
    rc = main(argv)
    out, err = capsys.readouterr()
    return rc, out, err


def test_poly_eigen_generic(capsys):
    rc, out, _ = run(capsys, ["poly", "--lambda", "2,0", "--vars", "2",
                              "--method", "eigen", "--generic"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["n"] == 2 and doc["basis"] == "monomial-symmetric"
    coeffs = {tuple(t["sig"]): t["coeff"] for t in doc["terms"]}
    assert coeffs[(2, 0)] == "1"
    assert coeffs[(1, 1)] == "(q^2*t^2 - q^2 + t^2 - 1)/(q^2*t^2 - 1)"


def test_poly_methods_agree(capsys):
    docs = []
    for method in ("eigen", "branch", "gt"):
        rc, out, _ = run(capsys, ["poly", "--lambda", "2,1,0", "--vars", "3",
                                  "--method", method])
        assert rc == 0
        docs.append(out)
    assert docs[0] == docs[1] == docs[2]


def test_psi_in_one_variable_at_large_k(capsys):
    # psi_qnum forms no [k-1]! in one variable (it would be raised to the
    # power 0), and in 4 variables it cancels its q-numbers formally, with
    # no q-factorial multiplied out.
    for lam, mu in (("3", ""), ("5,3,1,0", "4,2,0")):
        clear_caches()
        t0 = time.perf_counter()
        rc, out, _ = run(capsys, ["psi", "--lambda", lam, f"--mu={mu}", "--k", "500"])
        assert time.perf_counter() - t0 < 1, lam
        assert rc == 0 and json.loads(out)["route"] == "psi_qnum", lam
        assert (json.loads(out)["value"] == "1") == (lam == "3"), lam


def test_psi_size_envelope(capsys):
    # Just outside the psi envelope: 11 variables, the spread lambda_1 -
    # lambda_n one above the bound in 2 variables, with --generic, with
    # neither flag (the generic row) and with --k at k = 16, and k one above
    # the cap in 4 variables: each exits 2 at once.
    for argv in (["--lambda", ",".join(["0"] * 11), "--mu", ",".join(["0"] * 10), "--k", "2"],
                 ["--lambda", "105,0", "--mu", "52", "--generic"],
                 ["--lambda", "105,0", "--mu", "52"],
                 ["--lambda", "833,0", "--mu", "416", "--k", "16"],
                 ["--lambda", "0,0,0,0", "--mu", "0,0,0", "--k", "8193"]):
        t0 = time.perf_counter()
        rc, out, err = run(capsys, ["psi", *argv])
        assert time.perf_counter() - t0 < 1, argv
        assert rc == 2 and out == "" and len(err.strip().splitlines()) == 1, argv
        assert "psi" in err, argv
    # Just inside: one variable at any k, and the spread bound at k = 2.
    for argv in (["--lambda", "7", "--mu=", "--k", "1000000"],
                 ["--lambda", "7", "--mu=", "--generic"],
                 ["--lambda", "8192,0", "--mu", "4096", "--k", "2"]):
        rc, out, _ = run(capsys, ["psi", *argv])
        assert rc == 0 and json.loads(out)["value"], argv


def test_psi_verbs(capsys):
    rc, out, _ = run(capsys, ["psi", "--lambda", "2,0", "--mu", "1", "--k", "1"])
    assert rc == 0
    assert json.loads(out) == {"value": "1", "route": "psi_qnum"}
    rc, out, _ = run(capsys, ["psi", "--lambda", "2,0", "--mu", "1", "--generic"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["route"] == "psi_branch"
    assert doc["value"] == "(q*t - q + t - 1)/(q*t - 1)"


def test_matelt_routes_agree(capsys):
    vals = {}
    for route in ("mat_elt", "diag_sum"):
        rc, out, _ = run(capsys, ["matelt", "--lambda", "1,0", "--mu", "0",
                                  "--k", "2", "--route", route])
        assert rc == 0
        vals[route] = json.loads(out)["value"]
    assert vals["mat_elt"] == vals["diag_sum"]
    rc, out, _ = run(capsys, ["matelt", "--lambda", "1,0", "--mu", "0",
                              "--k", "2", "--route", "cg_sq"])
    assert json.loads(out)["route"] == "cg_sq"


def test_trace_verbs(capsys):
    rc, out, _ = run(capsys, ["trace", "--lambda", "0,0", "--vars", "2", "--k", "2"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["basis"] == "laurent-monomial"
    rc, out, _ = run(capsys, ["trace", "--lambda", "1,0", "--vars", "2",
                              "--k", "2", "--ratio"])
    assert rc == 0
    assert json.loads(out)["basis"] == "monomial-symmetric"


def test_usage_errors_exit_2(capsys):
    cases = [
        ["psi", "--lambda", "2,0", "--mu", "3", "--k", "1"],     # not interlacing
        ["psi", "--lambda", "2,0", "--mu", "1", "--k", "0"],     # k < 1
        ["poly", "--lambda", "1,2", "--vars", "2"],              # not decreasing
        ["poly", "--lambda", "2,0", "--vars", "3"],              # length mismatch
        ["verify", "--suite", "does-not-exist"],
        ["verify"],
        ["matelt", "--lambda", "2,0", "--mu", "1,1", "--k", "2"],
        ["matelt", "--lambda", "2,1,0", "--mu", "5,5", "--k", "2"],   # off-window
        ["verify", "--suite", "adjoint", "--samples", "-1"],
        ["verify", "--suite", "trace", "--n", "0"],
        ["poly", "--lambda=", "--vars", "0"],
        ["trace", "--lambda=", "--vars", "0", "--k", "2"],
    ]
    for argv in cases:
        rc, out, err = run(capsys, argv)
        assert rc == 2, argv
        assert err.strip() and len(err.strip().splitlines()) == 1


def test_crash_exits_3_and_failure_exits_1(capsys, monkeypatch):
    def crash(**kwargs):
        raise RuntimeError("simulated fault")

    def value_error(**kwargs):
        raise ValueError("simulated internal check")

    def fail(**kwargs):
        return [{"name": "always-false", "pass": False}]

    monkeypatch.setitem(SUITES, "qfield-axioms", (crash, "raises"))
    rc, out, err = run(capsys, ["verify", "--suite", "qfield-axioms"])
    assert rc == 3 and out == ""
    assert err == "internal error: RuntimeError: simulated fault\n"
    monkeypatch.setitem(SUITES, "qfield-axioms", (value_error, "raises"))
    rc, out, err = run(capsys, ["verify", "--suite", "qfield-axioms"])
    assert rc == 3 and out == ""
    assert err == "internal error: ValueError: simulated internal check\n"
    monkeypatch.setitem(SUITES, "qfield-axioms", (fail, "fails"))
    rc, out, err = run(capsys, ["verify", "--suite", "qfield-axioms"])
    assert rc == 1 and json.loads(out)["pass"] is False and err == ""


def test_suite_with_no_checks_fails(capsys, monkeypatch):
    monkeypatch.setitem(SUITES, "qfield-axioms", (lambda **kwargs: [], "runs nothing"))
    assert run_suite("qfield-axioms")["pass"] is False
    rc, out, err = run(capsys, ["verify", "--suite", "qfield-axioms"])
    doc = json.loads(out)
    assert rc == 1 and doc["checks"] == [] and doc["pass"] is False and err == ""


def test_check_with_no_instance_fails(capsys, monkeypatch):
    # One check over an empty iterable of instances fails its suite.
    monkeypatch.setitem(SUITES, "qfield-axioms",
                        (lambda **kwargs: [_check("nothing", iter(()))], "runs nothing"))
    rc, out, err = run(capsys, ["verify", "--suite", "qfield-axioms"])
    doc = json.loads(out)
    assert rc == 1 and err == ""
    assert doc["checks"] == [{"name": "nothing", "pass": False}] and doc["pass"] is False


def test_qfield_axioms_draws_its_samples_lazily(monkeypatch):
    # The suite draws each sample as its checks run, in the order the
    # whole lists were drawn in before: the triples, then the Pochhammer
    # samples.  No triple is drawn before the first check starts.
    for seed, samples in ((0, 1), (3, 10)):
        rng = Random(seed)
        want = [suites._rand_coeffrat(rng) for _ in range(3 * samples)]
        want_poch = [(rng.randint(-4, 4), rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 2))
                     for _ in range(samples)]
        drawn, at_check = [], []
        rand, check = suites._rand_coeffrat, suites._check
        monkeypatch.setattr(suites, "_rand_coeffrat",
                            lambda r: drawn.append(rand(r)) or drawn[-1])
        monkeypatch.setattr(suites, "_check",
                            lambda name, outcomes: at_check.append(len(drawn)) or
                            check(name, outcomes))
        poch = suites.poch_ratio
        args = []
        monkeypatch.setattr(suites, "poch_ratio",
                            lambda a, d, b: args.append((a, d, b)) or poch(a, d, b))
        assert all(c["pass"] for c in suites.suite_qfield_axioms(samples=samples, seed=seed))
        assert drawn == want and at_check[0] == 0
        assert args[::3] == [(a, d1 + d2, b) for a, d1, d2, b in want_poch]
        monkeypatch.undo()


def test_check_evaluates_every_instance():
    # A failing first instance does not stop the rest from being evaluated.
    seen = []

    def instances():
        for i in range(5):
            seen.append(i)
            yield i > 0

    assert _check("first-fails", instances()) == {"name": "first-fails", "pass": False}
    assert seen == [0, 1, 2, 3, 4]
    assert _check("all-hold", (True for _ in range(3)))["pass"] is True


def test_daha_relations_emit_only_checks_with_instances(capsys):
    # In 1 variable there is no T_i, so the relations among the T_i and
    # Y_i Y_j (i < j) have no instance; in 2 the braid relation and
    # locality (|i - j| > 1) have none.  Neither is emitted.
    one = ["XX-commute", "Y1-Xcycle", "symmetrizer-idempotent"]
    two = ["hecke-quadratic", "TXT", "TinvYTinv", "XX-commute", "YY-commute", "Y1-Xcycle",
           "X1inv-Y2", "symmetrizer-idempotent"]
    for n, names in (("1", one), ("2", two)):
        rc, out, _ = run(capsys, ["verify", "--suite", "daha-relations", "--n", n,
                                  "--samples", "2"])
        doc = json.loads(out)
        assert rc == 0 and doc["pass"] is True, n
        assert [c["name"] for c in doc["checks"]] == \
            [f"{tag}:{name}" for tag in ("generic", "special") for name in names], n


def test_verify_suite_report_shape(capsys):
    rc, out, _ = run(capsys, ["verify", "--suite", "qfield-axioms",
                              "--samples", "4", "--seed", "1"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["suite"] == "qfield-axioms"
    assert doc["seed"] == 1
    assert doc["pass"] is True
    assert all(set(c) == {"name", "pass"} for c in doc["checks"])


def test_verify_deterministic_output(capsys):
    argv = ["verify", "--suite", "daha-relations", "--n", "2", "--samples",
            "3", "--seed", "7"]
    rc1, out1, _ = run(capsys, argv)
    rc2, out2, _ = run(capsys, argv)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_poly_deterministic_output(capsys):
    argv = ["poly", "--lambda", "3,1", "--vars", "2", "--method", "branch"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2


def test_suite_catalog():
    cat = list_suites()
    names = [c["suite"] for c in cat]
    assert len(set(names)) == len(names)
    for required in ("qfield-axioms", "macops-eigen", "constructor-agreement",
                     "symmetry", "adjoint", "daha-relations",
                     "spherical-macdonald", "res-intertwine", "res-diff",
                     "matelt-routes", "branch", "trace"):
        assert required in names
    assert all(c["description"].strip() for c in cat)
    assert set(names) == set(SUITES)


def test_verify_all_small(capsys):
    rc, out, _ = run(capsys, ["verify", "--suite", "all", "--n", "2", "--l", "2",
                              "--k", "2", "--maxdeg", "2", "--samples", "3",
                              "--seed", "0"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert len(doc["suites"]) == len(SUITES)


def test_poly_size_envelope(capsys):
    # Just outside each method's envelope (d = |lambda| - n*lambda_n one
    # above its bound in 4 variables, and 11 variables): a usage error
    # before any computation.
    outside = [("eigen", "--lambda=16,-1,-1,-1", "4"), ("branch", "--lambda=9,5,2,0", "4"),
               ("gt", "--lambda=15,0,0,0", "4")]
    outside += [(m, "--lambda=" + ",".join(["0"] * 11), "11")
                for m in ("eigen", "branch", "gt")]
    for method, lam, n in outside:
        t0 = time.perf_counter()
        rc, out, err = run(capsys, ["poly", lam, "--vars", n, "--method", method])
        assert time.perf_counter() - t0 < 1, (method, lam)
        assert rc == 2 and out == "" and len(err.strip().splitlines()) == 1, (method, lam)
    # Inside (d = 14 in 4 variables, two below the eigen bound) still prints.
    rc, out, _ = run(capsys, ["poly", "--lambda=7,5,2,0", "--vars", "4"])
    assert rc == 0 and json.loads(out)["n"] == 4


def test_verify_restriction_envelope(capsys):
    # 6 variables for res-intertwine (also through --suite all) and 12
    # for res-diff are outside; both exit 2 at once.
    for argv in (["--suite", "res-intertwine", "--n", "3"],
                 ["--suite", "all", "--n", "6", "--l", "1"],
                 ["--suite", "res-diff", "--n", "4", "--l", "3"]):
        t0 = time.perf_counter()
        rc, out, err = run(capsys, ["verify", *argv])
        assert time.perf_counter() - t0 < 1, argv
        assert rc == 2 and out == "" and len(err.strip().splitlines()) == 1, argv
    for suite, n in (("res-intertwine", "5"), ("res-diff", "6")):
        rc, out, _ = run(capsys, ["verify", "--suite", suite, "--n", n, "--l", "1",
                                  "--samples", "1"])
        assert rc == 0 and json.loads(out)["pass"] is True


def test_verify_matelt_routes_envelope(capsys):
    # k one above the matelt-routes bound for 2, 3 and 4 variables (also
    # through --suite all), and 11 variables: each exits 2 at once.
    for argv in (["--suite", "matelt-routes", "--n", "2", "--k", "14"],
                 ["--suite", "matelt-routes", "--n", "3", "--k", "7"],
                 ["--suite", "all", "--n", "3", "--l", "1", "--k", "7"],
                 ["--suite", "matelt-routes", "--n", "4", "--k", "5"],
                 ["--suite", "matelt-routes", "--n", "11", "--k", "1"]):
        t0 = time.perf_counter()
        rc, out, err = run(capsys, ["verify", *argv])
        assert time.perf_counter() - t0 < 1, argv
        assert rc == 2 and out == "" and len(err.strip().splitlines()) == 1, argv
        assert "matelt-routes" in err, argv
    rc, out, _ = run(capsys, ["verify", "--suite", "matelt-routes", "--n", "2", "--k", "3",
                              "--maxdeg", "2"])
    assert rc == 0 and json.loads(out)["pass"] is True


def test_verify_trace_envelope(capsys):
    # Just outside the trace envelope at d = min(--maxdeg, 3): k one above
    # the cap for 2, 4, 5 and 6 variables (also through --suite all), and
    # 7 variables; each exits 2 at once.  No row bounds d below 3.
    for argv in (["--suite", "trace", "--n", "2", "--k", "9"],
                 ["--suite", "all", "--n", "2", "--l", "1", "--k", "9"],
                 ["--suite", "trace", "--n", "4", "--k", "7"],
                 ["--suite", "trace", "--n", "5", "--k", "4"],
                 ["--suite", "trace", "--n", "6", "--k", "3"],
                 ["--suite", "trace", "--n", "7", "--k", "2"]):
        t0 = time.perf_counter()
        rc, out, err = run(capsys, ["verify", *argv])
        assert time.perf_counter() - t0 < 1, argv
        assert rc == 2 and out == "" and len(err.strip().splitlines()) == 1, argv
        assert "trace" in err, argv
    # Just inside: the k cap for 2 variables at d = 3.
    rc, out, _ = run(capsys, ["verify", "--suite", "trace", "--n", "2", "--k", "8"])
    assert rc == 0 and json.loads(out)["pass"] is True


def test_verify_adjoint_envelope(capsys):
    # Just outside the adjoint envelope: l one above the bound in 2
    # variables and at (n, k) = (3, 2), k one above the cap for 3 variables
    # and for 6, and 8 variables; each exits 2 at once.  (--suite all
    # stops earlier, at the res-intertwine bound n*l <= 5.)
    for argv in (["--suite", "adjoint", "--n", "2", "--l", "27"],
                 ["--suite", "adjoint", "--n", "3", "--l", "11", "--k", "2"],
                 ["--suite", "adjoint", "--n", "3", "--l", "1", "--k", "9"],
                 ["--suite", "adjoint", "--n", "6", "--l", "1", "--k", "2"],
                 ["--suite", "adjoint", "--n", "8", "--l", "1", "--k", "1"]):
        t0 = time.perf_counter()
        rc, out, err = run(capsys, ["verify", *argv])
        assert time.perf_counter() - t0 < 1, argv
        assert rc == 2 and out == "" and len(err.strip().splitlines()) == 1, argv
        assert "adjoint" in err, argv
    # Just inside: the k cap for 3 variables, and any k in 2 variables.
    for argv in (["--n", "3", "--l", "1", "--k", "8"], ["--n", "2", "--l", "1", "--k", "40"]):
        rc, out, _ = run(capsys, ["verify", "--suite", "adjoint", *argv])
        assert rc == 0 and json.loads(out)["pass"] is True, argv


def test_verify_operator_suite_envelopes(capsys):
    # Just outside: --maxdeg one above the macops-eigen bound in 2
    # variables and the constructor-agreement bound in 2 and 3 (also
    # through --suite all), 11 variables, daha-relations in 6 variables,
    # spherical-macdonald in 6 and --maxdeg one above its bound in 5;
    # symmetry and branch with --maxdeg one above their bound at k = 1 and
    # with k one above their cap in 2 variables; each exits 2 at once.
    for argv, name in ((["--suite", "macops-eigen", "--n", "2", "--maxdeg", "20"], "macops-eigen"),
                       (["--suite", "macops-eigen", "--n", "11", "--maxdeg", "0"], "macops-eigen"),
                       (["--suite", "constructor-agreement", "--n", "2", "--maxdeg", "22"],
                        "constructor-agreement"),
                       (["--suite", "constructor-agreement", "--n", "3", "--maxdeg", "14"],
                        "constructor-agreement"),
                       (["--suite", "all", "--n", "3", "--l", "1", "--maxdeg", "14"],
                        "macops-eigen"),
                       (["--suite", "daha-relations", "--n", "6"], "daha-relations"),
                       (["--suite", "spherical-macdonald", "--n", "6", "--maxdeg", "0"],
                        "spherical-macdonald"),
                       (["--suite", "spherical-macdonald", "--n", "5", "--maxdeg", "25"],
                        "spherical-macdonald"),
                       (["--suite", "symmetry", "--n", "2", "--k", "1", "--maxdeg", "20"],
                        "symmetry"),
                       (["--suite", "symmetry", "--n", "2", "--k", "85", "--maxdeg", "0"],
                        "symmetry"),
                       (["--suite", "branch", "--n", "2", "--k", "1", "--maxdeg", "22"], "branch"),
                       (["--suite", "branch", "--n", "2", "--k", "97", "--maxdeg", "0"],
                        "branch")):
        t0 = time.perf_counter()
        rc, out, err = run(capsys, ["verify", *argv])
        assert time.perf_counter() - t0 < 1, argv
        assert rc == 2 and out == "" and len(err.strip().splitlines()) == 1, argv
        assert name in err, argv
    # Just inside: each suite at a bound, with one sample where it draws
    # samples.
    for argv in (["--suite", "macops-eigen", "--n", "1", "--maxdeg", "64"],
                 ["--suite", "symmetry", "--n", "1", "--k", "1000", "--maxdeg", "64"],
                 ["--suite", "branch", "--n", "1", "--k", "1", "--maxdeg", "64"],
                 ["--suite", "constructor-agreement", "--n", "1", "--maxdeg", "64"],
                 ["--suite", "daha-relations", "--n", "4", "--samples", "1"],
                 ["--suite", "daha-relations", "--n", "5", "--samples", "1"],
                 ["--suite", "spherical-macdonald", "--n", "5", "--maxdeg", "24",
                  "--samples", "1"]):
        rc, out, _ = run(capsys, ["verify", *argv])
        assert rc == 0 and json.loads(out)["pass"] is True, argv


def test_every_suite_has_an_envelope_or_is_listed_unbounded():
    # A new suite cannot ship without a decision: a row of the envelope
    # table with the map from its arguments to (variables, k, size), or a
    # place on the list of unbounded suites, which may only shrink.
    bounded, unbounded = set(_SUITE_SIZE), set(_UNBOUNDED_SUITES)
    assert bounded <= set(_ENVELOPE)
    assert unbounded <= {"qfield-axioms"}
    assert not bounded & unbounded and bounded | unbounded == set(SUITES)


def test_package_runs_as_module():
    # python -m macdaha answers as python -m macdaha.cli does: one poly
    # call and one usage error.
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    for argv, rc in ((["poly", "--lambda=2,1,0", "--vars", "3"], 0),
                     (["poly", "--lambda=1,2", "--vars", "2"], 2)):
        pkg, mod = (subprocess.run([sys.executable, "-m", name, *argv], env=env,
                                   capture_output=True, text=True, timeout=60)
                    for name in ("macdaha", "macdaha.cli"))
        assert (pkg.returncode, pkg.stdout, pkg.stderr) == \
            (mod.returncode, mod.stdout, mod.stderr), argv
        assert pkg.returncode == rc and bool(pkg.stdout) == (rc == 0), argv


def test_matelt_size_envelope(capsys):
    # Just outside the matelt envelope, for every route: 11 variables, and
    # k one above the bound for 1, 2, 3 and 4 variables; each is a usage
    # error before any computation.
    for route in ("mat_elt", "diag_sum", "cg_sq"):
        for argv in (["--lambda", ",".join(["0"] * 11), "--mu", ",".join(["0"] * 10),
                      "--k", "1"],
                     ["--lambda", "3", "--mu=", "--k", "501"],
                     ["--lambda", "3,1", "--mu", "2", "--k", "20"],
                     ["--lambda", "3,1,0", "--mu", "2,0", "--k", "10"],
                     ["--lambda", "3,1,0,0", "--mu", "2,0,0", "--k", "7"]):
            t0 = time.perf_counter()
            rc, out, err = run(capsys, ["matelt", *argv, "--route", route])
            assert time.perf_counter() - t0 < 1, (argv, route)
            assert rc == 2 and out == "" and len(err.strip().splitlines()) == 1, (argv, route)
    # a small input inside still prints
    rc, out, _ = run(capsys, ["matelt", "--lambda", "3,1,0", "--mu", "2,0", "--k", "3"])
    assert rc == 0 and json.loads(out)["route"] == "mat_elt"


def test_matelt_spread_envelope(capsys):
    # One above the spread bound lambda_1 - lambda_n at (n, k) = (2, 9),
    # (3, 3) and (3, 6), with mu inside the window: a usage error before
    # any computation, for every route.
    for route in ("mat_elt", "diag_sum", "cg_sq"):
        for argv in (["--lambda", "1651,0", "--mu", "0", "--k", "9"],
                     ["--lambda", "1041,0,0", "--mu", "0,0", "--k", "3"],
                     ["--lambda", "199,0,0", "--mu", "100,0", "--k", "6"]):
            t0 = time.perf_counter()
            rc, out, err = run(capsys, ["matelt", *argv, "--route", route])
            assert time.perf_counter() - t0 < 1, (argv, route)
            assert rc == 2 and out == "", (argv, route)
            assert "lambda_1 - lambda_n" in err and len(err.strip().splitlines()) == 1
    # at the bound with a corner mu, where the routes are cheap, it prints
    rc, out, _ = run(capsys, ["matelt", "--lambda", "1040,0,0", "--mu", "1040,0", "--k", "3",
                              "--route", "cg_sq"])
    assert rc == 0 and json.loads(out)["route"] == "cg_sq"


def test_trace_size_envelope(capsys):
    # Just outside the trace envelope: 7 variables, k one above the cap
    # for 4 variables, and d one above the bound at (n, k) = (4, 4),
    # (5, 3) and (3, 6); each is a usage error before any computation.
    for argv in (["--lambda", ",".join(["0"] * 7), "--vars", "7", "--k", "1"],
                 ["--lambda", "0,0,0,0", "--vars", "4", "--k", "7"],
                 ["--lambda", "10,0,0,0", "--vars", "4", "--k", "4", "--ratio"],
                 ["--lambda", "5,0,0,0,0", "--vars", "5", "--k", "3", "--ratio"],
                 ["--lambda", "18,-1,-1", "--vars", "3", "--k", "6"]):
        t0 = time.perf_counter()
        rc, out, err = run(capsys, ["trace", *argv])
        assert time.perf_counter() - t0 < 1, argv
        assert rc == 2 and out == "" and len(err.strip().splitlines()) == 1, argv
    # One variable has no bound; a small input inside still prints.
    for argv in (["--lambda", "5", "--vars", "1", "--k", "40", "--ratio"],
                 ["--lambda", "1,0", "--vars", "2", "--k", "8"]):
        rc, out, _ = run(capsys, ["trace", *argv])
        assert rc == 0 and json.loads(out)["n"] == int(argv[3]), argv
