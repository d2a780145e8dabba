"""The built-in worked example and its self-verification report."""

import json

from algebroids import FMatrix, Report, builtin_data, parse, verify_paper
from algebroids.report import CheckResult
from algebroids.verify import CHECKS


def test_builtin_verification_passes():
    rep = verify_paper()
    assert rep.all_passed
    assert [r.check for r in rep.results] == list(CHECKS)
    lines = rep.text().splitlines()
    assert all(line.startswith("PASS ") for line in lines[:-1])
    assert lines[-1] == "10/10 checks passed"


def test_verification_is_deterministic():
    a = verify_paper()
    b = verify_paper()
    assert a.text() == b.text()
    assert a.json() == b.json()


def test_json_schema():
    payload = json.loads(verify_paper().json())
    assert len(payload) == 10
    for entry in payload:
        assert set(entry) == {"check", "pass", "witness"}
        assert entry["pass"] is True
        assert isinstance(entry["witness"], str)


def test_fault_in_reduction_matrix_is_caught():
    data = builtin_data()
    tn = data.t_chart.coords
    rows = [list(row) for row in data.r.entries]
    rows[0][0] = rows[0][0] + parse("1", tn)
    data.r = FMatrix(rows)
    rep = verify_paper(data)
    assert not rep.all_passed
    verdicts = {r.check: r for r in rep.results}
    assert not verdicts["left-inverse"].passed
    assert "entry" in verdicts["left-inverse"].witness
    # checks that never look at R are unaffected
    assert verdicts["transform-equivalence"].passed
    assert verdicts["frame-bracket"].passed
    assert verdicts["induced-anchor"].passed


def test_fault_in_expected_gram_is_caught():
    data = builtin_data()
    tn = data.t_chart.coords
    rows = [list(row) for row in data.rtr_expected.entries]
    rows[1][1] = parse("3", tn)
    data.rtr_expected = FMatrix(rows)
    rep = verify_paper(data)
    verdicts = {r.check: r.passed for r in rep.results}
    assert not verdicts["gram-matrix"]
    assert verdicts["gram-determinant"]
    assert verdicts["left-inverse"]


def test_fresh_data_after_mutation():
    data = builtin_data()
    data.det_expected = parse("5", data.t_chart.coords)
    assert not verify_paper(data).all_passed
    assert verify_paper(builtin_data()).all_passed


def test_report_rendering():
    rep = Report()
    rep.add("alpha", True)
    rep.add("beta", False, "saw 2, wanted 1")
    rep.add("gamma", False)
    assert not rep.all_passed
    assert rep.text().splitlines() == [
        "PASS alpha",
        "FAIL beta: saw 2, wanted 1",
        "FAIL gamma: no witness",
        "1/3 checks passed",
    ]
    payload = json.loads(rep.json())
    assert payload[1] == {"check": "beta", "pass": False, "witness": "saw 2, wanted 1"}


def test_report_witness_joins_the_first_three():
    rep = Report([CheckResult("jacobi", False, ("a", "b", "c", "d"))])
    assert rep.item("jacobi").witness == "a; b; c"
    assert rep.text().splitlines()[0] == "FAIL jacobi: a; b; c"
    assert json.loads(rep.json())[0]["witness"] == "a; b; c"


def test_shared_inputs_are_derived_once(monkeypatch):
    from algebroids import verify

    data = builtin_data()
    calls = {"pinv": 0, "gram": 0}
    pinv, matmul = verify.left_pseudo_inverse, verify.matmul

    def counting_pinv(r):
        calls["pinv"] += 1
        return pinv(r)

    def counting_matmul(a, b):
        if a == data.r.transpose() and b == data.r:
            calls["gram"] += 1
        return matmul(a, b)

    monkeypatch.setattr(verify, "left_pseudo_inverse", counting_pinv)
    monkeypatch.setattr(verify, "matmul", counting_matmul)
    text = verify_paper(data).text()
    assert calls == {"pinv": 1, "gram": 1}
    assert text == verify_paper(builtin_data()).text()
    assert text.splitlines()[-1] == "10/10 checks passed"


def test_failed_shared_input_fails_only_its_checks(monkeypatch):
    from algebroids import verify

    def broken(r):
        raise ArithmeticError("no inverse today")

    monkeypatch.setattr(verify, "left_pseudo_inverse", broken)
    verdicts = {r.check: r for r in verify_paper().results}
    failed = {name for name, r in verdicts.items() if not r.passed}
    assert failed == {"left-inverse", "reduction-inverse"}
    assert verdicts["left-inverse"].witness == "error: no inverse today"
    assert verdicts["reduction-inverse"].witness == "error: no inverse today"
