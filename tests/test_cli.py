"""Input grammar, subcommands, exit codes, and output stability."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arquiver import Arrow, ParseError, build, coxeter_matrix, parse_quiver
from arquiver.cli import main
from arquiver.report import build_report, report_from_json, report_to_json, to_dot
from conftest import a3_linear, e6_example

E6_TEXT = "n 6\narrow 1 2\narrow 2 3\narrow 3 4\narrow 3 5\narrow 6 5\n"


def test_parse_g2():
    q = parse_quiver("n 2\narrow 1 2 1 3\n")
    assert q.arrows == (Arrow(1, 2, (1, 3)),)


def test_parse_a1():
    assert parse_quiver("n 1\n").n == 1


def test_parse_comments_blanks_tabs_crlf():
    text = "# leading comment\r\n\r\nn 3\r\narrow 1 2\t# tab separated\r\narrow\t2\t3\r\n"
    q = parse_quiver(text)
    assert q.n == 3 and len(q.arrows) == 2


def test_parse_bad_valuation_names_line():
    with pytest.raises(ParseError) as exc:
        parse_quiver("n 2\narrow 1 2 0 1\n")
    assert exc.value.line == 2


@pytest.mark.parametrize(
    "text,line",
    [
        ("arrow 1 2\nn 2\n", 1),
        ("n 2\nn 2\n", 2),
        ("n 2\narrow 1 2 3\n", 2),
        ("n 2\nfoo 1\n", 2),
        ("n 2\narrow 1 2\narrow 2 1\n", 3),
        ("n 2\narrow 1 2\narrow 1 2\n", 3),
        ("n 0\n", 1),
        ("n 2\narrow 1 1\n", 2),
        ("n 2\narrow 1 5\n", 2),
        ("n x\n", 1),
        ("n \u00b2\n", 1),
        ("n 2\narrow 1 \u0662\n", 2),
    ],
)
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(ParseError) as exc:
        parse_quiver(text)
    assert exc.value.line == line


def test_parse_rejects_non_ascii_digits_by_name():
    with pytest.raises(ParseError, match="expected an integer, got '\u00b2'"):
        parse_quiver("n \u00b2\n")


def test_parse_rejects_integers_longer_than_int_accepts():
    with pytest.raises(ParseError, match="line 2: integer of 5000 digits is too long"):
        parse_quiver("n 2\narrow 1 " + "2" * 5000 + "\n")


@settings(max_examples=500, deadline=None)
@given(st.text())
def test_parse_arbitrary_text_raises_only_parse_errors(text):
    try:
        parse_quiver(text)
    except ParseError:
        pass


def test_parse_missing_n():
    with pytest.raises(ParseError):
        parse_quiver("# nothing\n")


def test_report_round_trip():
    arq = build(e6_example())
    order = coxeter_matrix(arq).order
    for include in (False, True):
        report = build_report(arq, order, include_hammocks=include)
        assert report_from_json(report_to_json(report)) == report


def test_report_json_is_deterministic_and_integer_only():
    arq = build(a3_linear())
    order = coxeter_matrix(arq).order
    text = report_to_json(build_report(arq, order, include_hammocks=True))
    assert text == report_to_json(build_report(arq, order, include_hammocks=True))

    def no_floats(value):
        if isinstance(value, float):
            raise AssertionError("float in report")
        if isinstance(value, dict):
            for v in value.values():
                no_floats(v)
        if isinstance(value, list):
            for v in value:
                no_floats(v)

    no_floats(json.loads(text))


def test_dot_is_stable_and_layered():
    arq = build(a3_linear())
    dot = to_dot(arq)
    assert dot == to_dot(build(a3_linear()))
    assert dot.startswith("digraph")
    assert "rankdir=LR" in dot
    assert dot.count("rank=same") == max(arq.m) + 1
    assert 'shape=box' in dot and 'shape=doublecircle' in dot


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_cli_classify_e6(tmp_path, capsys):
    path = _write(tmp_path, "e6.q", E6_TEXT)
    assert main(["classify", path]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "E 6"


def test_cli_classify_not_dynkin(tmp_path, capsys):
    path = _write(tmp_path, "bad.q", "n 2\narrow 1 2 2 2\n")
    assert main(["classify", path]) == 2
    assert "NotDynkin" in capsys.readouterr().out


def test_cli_coxeter_a3(tmp_path, capsys):
    path = _write(tmp_path, "a3.q", "n 3\narrow 1 2\narrow 2 3\n")
    assert main(["coxeter", path]) == 0
    assert "order: 4" in capsys.readouterr().out


def test_cli_check_passes(tmp_path, capsys):
    path = _write(tmp_path, "f4.q", "n 4\narrow 1 2\narrow 2 3 1 2\narrow 4 3\n")
    assert main(["check", path]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out and "PASS" in out


def test_cli_check_rejects_invalid_input(tmp_path, capsys):
    path = _write(tmp_path, "bad.q", "n 2\narrow 1 2\narrow 2 1\n")
    assert main(["check", path]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_build_writes_json_and_dot(tmp_path, capsys):
    path = _write(tmp_path, "a3.q", "n 3\narrow 1 2\narrow 2 3\n")
    json_out = str(tmp_path / "report.json")
    dot_out = str(tmp_path / "drawing.dot")
    assert main(["build", path, "--json", json_out, "--dot", dot_out]) == 0
    report = report_from_json((tmp_path / "report.json").read_text())
    assert report.coxeter_order == 4
    first = (tmp_path / "drawing.dot").read_bytes()
    assert main(["build", path, "--dot", dot_out]) == 0
    capsys.readouterr()
    assert (tmp_path / "drawing.dot").read_bytes() == first


def test_cli_build_stdout_json(tmp_path, capsys):
    path = _write(tmp_path, "g2.q", "n 2\narrow 1 2 1 3\n")
    assert main(["build", path, "--hammocks"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["coxeter_order"] == 6
    assert payload["hammocks"]["1"]["terminator"] == [3, 1]


def test_cli_hammock_output(tmp_path, capsys):
    path = _write(tmp_path, "g2.q", "n 2\narrow 1 2 1 3\n")
    assert main(["hammock", path, "-k", "1"]) == 0
    out = capsys.readouterr().out
    assert "terminator: (3,1)" in out
    assert "m(1) = 2" in out
    assert "rho(1) = 1" in out


def test_cli_hammock_bad_vertex(tmp_path, capsys):
    path = _write(tmp_path, "g2.q", "n 2\narrow 1 2 1 3\n")
    assert main(["hammock", path, "-k", "7"]) == 2


def test_cli_cluster(tmp_path, capsys):
    path = _write(tmp_path, "a3.q", "n 3\narrow 1 2\narrow 2 3\n")
    assert main(["cluster", path]) == 0
    out = capsys.readouterr().out
    assert "cluster objects: 9" in out
    assert "module=3 derived=3 cluster=3" in out


def test_cli_parse_error_exit_code(tmp_path, capsys):
    path = _write(tmp_path, "bad.q", "arrows 1 2\n")
    assert main(["classify", path]) == 2
    assert "line 1" in capsys.readouterr().err


def test_cli_missing_file(tmp_path, capsys):
    assert main(["classify", str(tmp_path / "nope.q")]) == 2


def test_cli_check_exit_one_on_failing_oracle(tmp_path, capsys, monkeypatch):
    from arquiver import cli
    from arquiver.oracle import OracleReport

    def failing(arq, order):
        report = OracleReport()
        report.add("mesh-additivity", False, "synthetic")
        return report

    monkeypatch.setattr(cli.oracle, "run_all", failing)
    path = _write(tmp_path, "a3.q", "n 3\narrow 1 2\narrow 2 3\n")
    assert main(["check", path]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_cli_internal_error_exit_code(tmp_path, capsys, monkeypatch):
    from arquiver import cli
    from arquiver.errors import KnitInconsistentError

    def broken(q):
        raise KnitInconsistentError("synthetic")

    monkeypatch.setattr(cli.ar_quiver, "build", broken)
    path = _write(tmp_path, "a3.q", "n 3\narrow 1 2\narrow 2 3\n")
    assert main(["build", path]) == 1
    assert "internal error" in capsys.readouterr().err


FAMILY_TEXTS = {
    "A4": "n 4\narrow 2 1\narrow 2 3\narrow 4 3\n",
    "B3": "n 3\narrow 1 2 1 2\narrow 3 2\n",
    "C3": "n 3\narrow 2 1 1 2\narrow 2 3\n",
    "D5": "n 5\narrow 1 3\narrow 3 2\narrow 4 3\narrow 4 5\n",
    "E6": E6_TEXT,
    "F4": "n 4\narrow 1 2\narrow 2 3 1 2\narrow 4 3\n",
    "G2": "n 2\narrow 2 1 3 1\n",
}


@pytest.mark.parametrize("name", sorted(FAMILY_TEXTS))
@pytest.mark.parametrize("hammocks", [False, True])
def test_cli_build_streams_the_report_bytes(tmp_path, capsys, name, hammocks):
    text = FAMILY_TEXTS[name]
    arq = build(parse_quiver(text))
    assert arq.dynkin.name == name
    expected = report_to_json(
        build_report(arq, coxeter_matrix(arq).order, include_hammocks=hammocks)
    )
    path = _write(tmp_path, f"{name}.q", text)
    flag = ["--hammocks"] if hammocks else []
    out = tmp_path / "report.json"
    assert main(["build", path, "--json", str(out)] + flag) == 0
    assert out.read_bytes() == expected.encode("utf-8")
    capsys.readouterr()
    assert main(["build", path] + flag) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("command", [["classify"], ["build"], ["hammock", "-k", "1"]])
def test_cli_invalid_utf8_is_a_parse_error(tmp_path, capsys, command):
    path = tmp_path / "bad.q"
    path.write_bytes(b"n 2\narrow 1 2\n\xff\n")
    assert main([command[0], str(path)] + command[1:]) == 2
    err = capsys.readouterr().err
    assert err == "error: line 3: invalid UTF-8 byte 0xff\n"


@pytest.mark.parametrize("name", sorted(FAMILY_TEXTS))
def test_cli_hammock_knits_only_the_requested_hammock(tmp_path, capsys, monkeypatch, name):
    from arquiver import cli, hammock_vertices

    text = FAMILY_TEXTS[name]
    arq = build(parse_quiver(text))
    path = _write(tmp_path, f"{name}.q", text)

    def no_build(q):
        raise AssertionError("hammock -k built the whole quiver")

    def fmt(v):
        return f"({v.level},{v.base})"

    monkeypatch.setattr(cli.ar_quiver, "build", no_build)
    for res in arq.hammocks:
        lines = [f"k = {res.k}"]
        lines += [f"h{fmt(v)} = {res.table[v]}" for v in sorted(res.table)]
        lines += [
            f"terminator: {fmt(res.terminator)}",
            f"m({res.orbit}) = {res.orbit_index}",
            f"rho({res.orbit}) = {res.k}",
            "hammock vertices: " + " ".join(fmt(v) for v in sorted(hammock_vertices(res))),
        ]
        assert main(["hammock", path, "-k", str(res.k)]) == 0
        assert capsys.readouterr().out == "\n".join(lines) + "\n"


def test_cli_hammock_range_error_precedes_classification(tmp_path, capsys):
    path = _write(tmp_path, "bad.q", "n 2\narrow 1 2 2 2\n")
    assert main(["hammock", path, "-k", "7"]) == 2
    assert capsys.readouterr().err == "error: vertex 7 is not in 1..2\n"
