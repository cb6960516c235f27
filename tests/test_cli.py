import json
import os

import pytest

import hsw.verify
from hsw.cli import main


def run(capsys, args):
    rc = main(args)
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def test_length_defaults(capsys):
    rc, out, _ = run(capsys, ["length"])
    assert (rc, out) == (0, "0\n")


def test_length_translation(capsys):
    rc, out, _ = run(capsys, ["length", "--datum", "A2", "--lambda", "1,1"])
    assert (rc, out) == (0, "4\n")


def test_reduced_word_text(capsys):
    rc, out, _ = run(capsys, ["reduced-word", "--datum", "A1", "--lambda", "2"])
    assert rc == 0
    assert out == "length: 2\nomega: e\nword: s0,s1\n"


def test_hecke_mul_json(capsys):
    rc, out, _ = run(capsys, ["hecke-mul", "--datum", "A1",
                              "--left", "s", "--right", "s",
                              "--output", "json"])
    assert rc == 0
    data = json.loads(out)
    assert data == {"terms": [
        {"element": {"w_word": [], "translation": [0]}, "coeff": {"0": 1}},
        {"element": {"w_word": [1], "translation": [0]},
         "coeff": {"-1": -1, "1": 1}},
    ]}


def test_theta_text(capsys):
    rc, out, _ = run(capsys, ["theta", "--datum", "A1", "--lambda=-1"])
    assert rc == 0
    assert out == "(v^-1 - v)*T[s1@-1] + (1)*T[e@-1]\n"


def test_canonical_basis_text(capsys):
    rc, out, _ = run(capsys, ["canonical-basis", "--datum", "A1", "--lambda", "2"])
    assert rc == 0
    assert out == "m[2] + (v^-1)*m[-2] + (v^-2)*m[0]\n"


def test_bs_char_twisted(capsys):
    rc, out, _ = run(capsys, ["bs-char", "--datum", "A1", "--omega", "-1"])
    assert (rc, out) == (0, "m[-1]\n")


def test_decompose_text(capsys):
    rc, out, _ = run(capsys, ["decompose", "--datum", "A1", "--word", "s0,s1"])
    assert rc == 0
    assert out == "b[2]: 1\nb[0]: 1\n"


def test_q_analogue_text(capsys):
    rc, out, _ = run(capsys, ["q-analogue", "--datum", "A2",
                              "--chi", "0,0", "--eta", "1,1"])
    assert (rc, out) == (0, "q + q^2\n")


def test_pairing_and_hom_rank(capsys):
    rc, out, _ = run(capsys, ["pairing", "--datum", "A1",
                              "--left-word", "s1", "--right-word", "s1"])
    assert (rc, out) == (0, "v^-2 + 2 + v^2\n")
    rc, out, _ = run(capsys, ["hom-rank", "--datum", "A1",
                              "--left-word", "s0", "--right-word", "s0"])
    assert (rc, out) == (0, "1 + v^2\n")


def test_kato_single_pair(capsys):
    rc, out, _ = run(capsys, ["kato-check", "--datum", "A2",
                              "--lambda", "1,1", "--mu", "0,0",
                              "--output", "json"])
    assert rc == 0
    data = json.loads(out)
    assert data["pass"] is True
    assert data["rows"][0]["lhs"] == {"-4": 1, "-2": 1}


def test_kato_grid_exit_code(capsys):
    rc, out, _ = run(capsys, ["kato-check", "--datum", "A1", "--max-length", "2"])
    assert rc == 0
    assert out.endswith("16/16 pass\n")


def test_oracle_single_pair(capsys):
    rc, out, _ = run(capsys, ["oracle-check", "--datum", "A1",
                              "--left-word", "s0", "--right-word", "s0,s1"])
    assert rc == 0
    assert out == "oracle:    2*v + v^3\npredicted: 2*v + v^3\nPASS\n"


def test_verify_subset(capsys):
    rc, out, _ = run(capsys, ["verify", "--datum", "A1",
                              "--checks", "quadratic,length",
                              "--max-length", "3", "--output", "json"])
    assert rc == 0
    data = json.loads(out)
    assert data["pass"] is True
    assert [r["name"] for r in data["reports"]] == ["quadratic", "length"]


@pytest.mark.parametrize("args", [
    ["verify", "--checks", "projection", "--trials", "-3"],
    ["verify", "--checks", "bernstein", "--box", "-1"],
    ["verify", "--checks", "length", "--max-length", "-1"],
    ["verify", "--checks", "pushforward", "--max-word", "-2"],
    ["kato-check", "--max-length", "-1"],
    ["oracle-check", "--max-word", "-1"],
])
def test_negative_count_is_input_error(capsys, args):
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert "must be nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize("checks", [",", ""])
def test_checks_naming_no_check_is_input_error(capsys, checks):
    rc, out, err = run(capsys, ["verify", "--datum", "A1", "--checks", checks])
    assert rc == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_unknown_datum_is_input_error(capsys):
    rc, _, err = run(capsys, ["length", "--datum", "NOPE"])
    assert rc == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("entry", [2.9, "2", True])
def test_non_integer_datum_entry_is_input_error(capsys, tmp_path, entry):
    path = tmp_path / "datum.json"
    path.write_text(json.dumps({"simple_roots": [[entry]], "simple_coroots": [[1]]}))
    rc, out, err = run(capsys, ["length", "--datum", str(path)])
    assert (rc, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("text,says", [
    ("5", "JSON object"), ("[]", "at least one"), ('"A1"', "JSON object"),
    ("null", "JSON object"), ("[5]", "JSON object"),
    ('{"simple_roots": [[2]]}', "no simple_coroots"),
])
def test_malformed_datum_file_is_input_error(capsys, tmp_path, text, says):
    path = tmp_path / "datum.json"
    path.write_text(text)
    rc, out, err = run(capsys, ["verify", "--datum", str(path)])
    assert (rc, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1 and says in err


def test_bad_weight_is_input_error(capsys):
    rc, _, err = run(capsys, ["canonical-basis", "--datum", "A1",
                              "--lambda", "1,1"])
    assert rc == 2
    assert "coordinates" in err


def test_unknown_verb_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-verb"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_json_output_is_deterministic(capsys):
    args = ["canonical-basis", "--datum", "A2", "--lambda", "1,1",
            "--output", "json"]
    _, first, _ = run(capsys, args)
    _, second, _ = run(capsys, args)
    assert first == second


def test_internal_error_exits_three(capsys, monkeypatch):
    import hsw.cli

    def broken(*args, **kwargs):
        raise RuntimeError("Freudenthal recursion produced a non-integer")

    monkeypatch.setattr(hsw.cli, "lusztig_q", broken)
    rc, out, err = run(capsys, ["q-analogue", "--datum", "A2",
                                "--chi", "0,0", "--eta", "1,1"])
    assert rc == 3
    assert out == ""
    assert err == "internal error: Freudenthal recursion produced a non-integer\n"
    assert "Traceback" not in err


# -- a module-side check that fails in the forked worker ------------------------------


@pytest.fixture
def worker(monkeypatch, hang_guard):
    """Force the forked worker; afterwards no child process may be left,
    and a hang ends in an alarm instead of a stuck run."""
    if not hasattr(os, "fork"):
        pytest.skip("needs os.fork")
    monkeypatch.setattr(hsw.verify, "_cpu_count", lambda: 2)
    yield monkeypatch
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _raising(exc):
    def check(datum, **knobs):
        raise exc
    return check


@pytest.mark.parametrize("exc, rc, err", [
    (RuntimeError("worker invariant broke"), 3, "internal error: worker invariant broke\n"),
    (ValueError("worker input rejected"), 2, "error: worker input rejected\n"),
])
def test_worker_error_exit_status(capsys, worker, exc, rc, err):
    worker.setitem(hsw.verify.CHECKS, "kato", _raising(exc))
    got = run(capsys, ["verify", "--datum", "A1", "--checks", "quadratic,kato"])
    assert got == (rc, "", err)


def test_worker_that_exits_early_is_internal_error(capsys, worker):
    parent = os.getpid()

    def vanish(datum, **knobs):
        if os.getpid() == parent:
            raise AssertionError("kato ran in the parent process")
        os._exit(0)

    worker.setitem(hsw.verify.CHECKS, "kato", vanish)
    rc, out, err = run(capsys, ["verify", "--datum", "A1", "--checks", "quadratic,kato"])
    assert (rc, out) == (3, "")
    assert err.startswith("internal error:") and err.count("\n") == 1


@pytest.mark.parametrize("checks, rc, err", [
    ("kato,quadratic", 2, "error: module side\n"),
    ("quadratic,kato", 3, "internal error: T side\n"),
])
def test_first_raising_check_in_order_decides(capsys, worker, checks, rc, err):
    worker.setitem(hsw.verify.CHECKS, "kato", _raising(ValueError("module side")))
    worker.setitem(hsw.verify.CHECKS, "quadratic", _raising(RuntimeError("T side")))
    got = run(capsys, ["verify", "--datum", "A1", "--checks", checks])
    assert got == (rc, "", err)
