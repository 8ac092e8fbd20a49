"""Input grammar, subcommands, exit codes, and output stability."""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arquiver import (
    Arrow,
    ParseError,
    build,
    cluster_count,
    coxeter_matrix,
    counts_and_nilpotency,
    derived_nilpotency,
    hammock_vertices,
    hammocks,
    parse_quiver,
)
from arquiver.cli import main
from arquiver.report import build_report, report_to_json, to_dot
from conftest import a3_linear, e6_example
from plane import dims, table_of

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
        # Lines break only at \n, \r\n and \r, as open() reads them.
        ("n 2\n\x0c\narrow 1 2\nfoo\n", 4),
        ("n 3\narrow 1 2\x85arrow 2 3\n", 2),
        ("n 2\u2028arrow 1 2\n", 1),
        ("n 2\rarrow 1 2\x1carrow 2 1\r", 2),
        ("\x0b\x0c\u2029\n", 2),
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
    counts = counts_and_nilpotency(arq, order)
    for include in (False, True):
        payload = json.loads(report_to_json(build_report(arq, order, include)))
        assert payload["dynkin"] == {
            "family": "E",
            "rank": 6,
            "relabel": list(arq.dynkin.relabel),
        }
        assert payload["coxeter_order"] == order == 12
        assert payload["m"] == list(arq.m)
        assert payload["rho"] == list(arq.rho)
        assert payload["counts"] == {
            "indecomposables": len(arq.vertices),
            "cluster": cluster_count(arq, order),
        }
        assert payload["nilpotency"] == {
            "module": counts.nilpotency,
            "derived": derived_nilpotency(arq, order),
            "cluster": order - 1,
        }
        assert len(payload["vertices"]) == len(arq.vertices) == 36
        vectors = dims(arq)
        for entry in payload["vertices"]:
            assert entry["dim"] == list(vectors[(entry["r"], entry["i"])])
        assert len(payload["arrows"]) == len(arq.arrows)
        assert ("hammocks" in payload) == include
        if include:
            assert sorted(payload["hammocks"], key=int) == [
                str(k) for k in arq.quiver.vertices()
            ]
            for res in hammocks(arq):
                hammock = payload["hammocks"][str(res.k)]
                assert hammock["terminator"] == list(res.terminator)


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


def test_cli_check_classifies_the_quiver_once(tmp_path, capsys, monkeypatch):
    from arquiver import ar_quiver

    calls, classify = [], ar_quiver.classify_quiver

    def counted(q):
        calls.append(q)
        return classify(q)

    monkeypatch.setattr(ar_quiver, "classify_quiver", counted)
    assert main(["check", _write(tmp_path, "e6.q", E6_TEXT)]) == 0
    assert "FAIL" not in capsys.readouterr().out
    assert len(calls) == 1


def test_cli_check_rejects_invalid_input(tmp_path, capsys):
    path = _write(tmp_path, "bad.q", "n 2\narrow 1 2\narrow 2 1\n")
    assert main(["check", path]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_build_writes_json_and_dot(tmp_path, capsys):
    path = _write(tmp_path, "a3.q", "n 3\narrow 1 2\narrow 2 3\n")
    json_out = str(tmp_path / "report.json")
    dot_out = str(tmp_path / "drawing.dot")
    assert main(["build", path, "--json", json_out, "--dot", dot_out]) == 0
    assert json.loads((tmp_path / "report.json").read_text())["coxeter_order"] == 4
    first = (tmp_path / "drawing.dot").read_bytes()
    assert main(["build", path, "--dot", dot_out]) == 0
    capsys.readouterr()
    assert (tmp_path / "drawing.dot").read_bytes() == first


@pytest.mark.parametrize("to_file", [True, False], ids=["json", "stdout"])
def test_cli_build_writes_no_report_when_a_target_cannot_be_opened(tmp_path, capsys, to_file):
    # The DOT target is a directory: the build fails before writing the report.
    path = _write(tmp_path, "a3.q", "n 3\narrow 1 2\narrow 2 3\n")
    json_out = tmp_path / "report.json"
    args = ["build", path, "--dot", str(tmp_path)]
    assert main(args + ["--json", str(json_out)] if to_file else args) == 2
    out, err = capsys.readouterr()
    assert err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"
    assert out == ""
    assert not to_file or json_out.read_bytes() == b""


def test_cli_build_to_one_file_for_both_targets_leaves_the_drawing(tmp_path, capsys):
    # As when the report is written and closed before the drawing is opened.
    path = _write(tmp_path, "a3.q", "n 3\narrow 1 2\narrow 2 3\n")
    both = tmp_path / "both.out"
    assert main(["build", path, "--json", str(both), "--dot", str(both)]) == 0
    assert both.read_text(encoding="utf-8") == to_dot(build(a3_linear()))


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


@pytest.mark.parametrize("command", ["classify", "build"])
def test_cli_edgeless_large_input_is_not_dynkin(tmp_path, capsys, command):
    path = _write(tmp_path, "wide.q", "n 200000\n")
    assert main([command, path]) == 2


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


def test_cli_check_names_the_order_identity_witness(tmp_path, capsys, monkeypatch):
    from arquiver import coxeter

    solve = coxeter.coxeter_matrix

    def doubled(arq):
        cd = solve(arq)
        return replace(cd, order=2 * cd.order)

    monkeypatch.setattr(coxeter, "coxeter_matrix", doubled)
    assert main(["check", _write(tmp_path, "e6.q", E6_TEXT)]) == 1
    last = capsys.readouterr().out.splitlines()[-1]
    assert last == "order-identity: FAIL (order 24 is not h = 12 for E6)"


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
    # Lines break only at \n, \r\n and \r, as open() reads them.
    for data, line in [
        (b"n 2\narrow 1 2\n\xff\n", 3),
        (b"n 2\n\x0c\narrow 1 2\n\xff\n", 4),
        (b"n 2\r\n# \xc2\x85 \xe2\x80\xa8\rarrow 1 2\r\xff\n", 4),
    ]:
        path = tmp_path / "bad.q"
        path.write_bytes(data)
        assert main([command[0], str(path)] + command[1:]) == 2
        err = capsys.readouterr().err
        assert err == f"error: line {line}: invalid UTF-8 byte 0xff\n"


def test_cli_comment_holding_a_unicode_line_separator_is_one_comment(tmp_path, capsys):
    plain, commented = tmp_path / "plain.q", tmp_path / "commented.q"
    plain.write_bytes(b"n 3\narrow 1 2\narrow 2 3\n")
    commented.write_bytes("n 3\n# see\x85note\narrow 1 2\narrow 2 3\n".encode("utf-8"))
    for path in (plain, commented):
        assert main(["build", str(path), "--json", f"{path}.json", "--dot", f"{path}.dot"]) == 0
    assert capsys.readouterr() == ("", "")
    for suffix in (".json", ".dot"):
        assert Path(f"{commented}{suffix}").read_bytes() == Path(f"{plain}{suffix}").read_bytes()


@pytest.mark.parametrize("name", sorted(FAMILY_TEXTS))
def test_cli_build_skips_one_utf8_byte_order_mark(tmp_path, capsys, name):
    text = FAMILY_TEXTS[name]
    plain, marked = tmp_path / "plain.q", tmp_path / "marked.q"
    plain.write_bytes(text.encode("utf-8"))
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    for path in (plain, marked):
        args = ["build", str(path), "--json", f"{path}.json", "--dot", f"{path}.dot", "--hammocks"]
        assert main(args) == 0
    assert capsys.readouterr() == ("", "")
    for suffix in (".json", ".dot"):
        assert Path(f"{marked}{suffix}").read_bytes() == Path(f"{plain}{suffix}").read_bytes()


def test_cli_second_byte_order_mark_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "twice.q"
    path.write_bytes(b"\xef\xbb\xbf" * 2 + E6_TEXT.encode("utf-8"))
    assert main(["build", str(path)]) == 2
    assert capsys.readouterr().err == "error: line 1: unknown directive '\\ufeffn'\n"


@pytest.mark.parametrize("name", sorted(FAMILY_TEXTS))
def test_cli_hammock_knits_only_the_requested_hammock(tmp_path, capsys, name):
    text = FAMILY_TEXTS[name]
    arq = build(parse_quiver(text))
    path = _write(tmp_path, f"{name}.q", text)

    def fmt(v):
        return f"({v.level},{v.base})"

    for res in hammocks(arq):
        lines = [f"k = {res.k}"]
        table = table_of(res)
        lines += [f"h{fmt(v)} = {table[v]}" for v in sorted(table)]
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


D16_TEXT = "n 16\n" + "".join(
    f"arrow {a} {b}\n"
    for a, b in [
        (1, 2), (3, 2), (3, 4), (5, 4), (5, 6), (7, 6), (7, 8), (9, 8),
        (9, 10), (11, 10), (11, 12), (13, 12), (13, 14), (15, 14), (16, 14),
    ]
)
B32_TEXT = "n 32\narrow 2 1 2 1\n" + "".join(
    f"arrow {a} {b}\n"
    for a, b in [
        (2, 3), (3, 4), (4, 5), (6, 5), (7, 6), (8, 7), (9, 8), (9, 10), (10, 11),
        (12, 11), (12, 13), (14, 13), (15, 14), (16, 15), (17, 16), (17, 18),
        (18, 19), (19, 20), (21, 20), (21, 22), (23, 22), (24, 23), (25, 24),
        (26, 25), (26, 27), (27, 28), (29, 28), (29, 30), (30, 31), (31, 32),
    ]
)
A40_TEXT = "n 40\n" + "".join(
    f"arrow {a} {b}\n"
    for a, b in [
        (1, 2), (3, 2), (3, 4), (5, 4), (5, 6), (6, 7), (8, 7), (9, 8), (10, 9),
        (11, 10), (12, 11), (13, 12), (14, 13), (15, 14), (15, 16), (16, 17),
        (18, 17), (19, 18), (20, 19), (20, 21), (21, 22), (23, 22), (24, 23),
        (24, 25), (26, 25), (26, 27), (28, 27), (28, 29), (30, 29), (31, 30),
        (32, 31), (32, 33), (33, 34), (35, 34), (35, 36), (37, 36), (37, 38),
        (38, 39), (40, 39),
    ]
)
GOLDEN_TEXTS = {**FAMILY_TEXTS, "D16": D16_TEXT, "B32": B32_TEXT, "A40": A40_TEXT}


def _output_digests(tmp_path, capsys, name, outputs):
    """sha256 of the named output files and stdouts the CLI writes for one input."""
    import hashlib

    def sha(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    path = _write(tmp_path, f"{name}.q", GOLDEN_TEXTS[name])
    digests = {}
    if "json" in outputs:
        json_out, dot_out = tmp_path / "report.json", tmp_path / "drawing.dot"
        argv = ["build", path, "--json", str(json_out), "--dot", str(dot_out), "--hammocks"]
        assert main(argv) == 0
        assert capsys.readouterr().out == ""
        digests = {"json": sha(json_out.read_bytes()), "dot": sha(dot_out.read_bytes())}
    for command in (["coxeter"], ["cluster"], ["check"], ["hammock", "-k", "1"]):
        if command[0] in outputs:
            assert main([command[0], path] + command[1:]) == 0
            digests[command[0]] = sha(capsys.readouterr().out.encode("utf-8"))
    return digests


# Digests of the reports written by the implementation at the time these
# inputs were pinned; any change to a report's bytes must update them.
GOLDEN_SHA256 = {
    "A4": {
        "json": "359ae9df8a2d781387836dba5b4e3924ff8f4ee50b78534b5800cde6d7f7bb51",
        "dot": "894cb91fb38f556e6af59c2cd04f550985801401b29dcf27948d97c46f9c8c76",
        "coxeter": "08bc970891605e0181a16e92cca193ab7690326d6383ce6e23d76c371d38fe25",
        "cluster": "9480dd212428b216a18f0d58ef3ee876556e801610a8175a3c63e2bbb3e04229",
        "check": "7c8792ded4dfa87fb3924db9fd3c18dfdfcb5d55dd4b7eb16f932fa1289a9393",
        "hammock": "4f4f3dd0dbb8269397ba839f816ce0e5c11cd2bc5d7bfe859510b950917d5180",
    },
    "B3": {
        "json": "efc689d9685fac479adb21db1b8bba1df2f597316a6f01cba86caceb6284c23f",
        "dot": "64a476adbf6eaceddac6308c5a20cf4e21cd66a11513753a79ccea6c55e50c30",
        "coxeter": "da32dae2b6fe0639f5926762121ac369b335e774efb7c7d9dda47875daee9522",
        "cluster": "77ab436a28e871d7c3c41fc027d6db9877a428d602406308598593cb41a9b7d3",
        "check": "7c8792ded4dfa87fb3924db9fd3c18dfdfcb5d55dd4b7eb16f932fa1289a9393",
        "hammock": "e5900805d5831d4c64fd5d07e443f74bad39ac0324142c075cfcdfffb28b8a95",
    },
    "C3": {
        "json": "95fa18b8276bb793db5cc2bdca0061c65993a03b8687c9d885d6995225ca652f",
        "dot": "c93f61280c30f0731d651b6fcec0dae0d77af5a7df5c4f9954b78511c6979df6",
        "coxeter": "1ae95a7c4fb03e82b00832bef06b83ad10489353f2d2a7bda2be134c5302427e",
        "cluster": "77ab436a28e871d7c3c41fc027d6db9877a428d602406308598593cb41a9b7d3",
        "check": "7c8792ded4dfa87fb3924db9fd3c18dfdfcb5d55dd4b7eb16f932fa1289a9393",
        "hammock": "4dae1360dc3ff01fa6a3d3a1486570a929311aae12c8e85d01d6ddb0ee2d9003",
    },
    "D16": {
        "json": "c452fa842841db1839fc83c2ee76938fbb4173adad4e61f23e573a61ef327d32",
        "dot": "d19dec64b86424098a7d51dbe5710a94deeb586f1a98f5b9fd756ad3575ff6fe",
        "coxeter": "bdfaafb2b83e7e7160615241f3d2075c3c2565d5e31f144d37aad788e92839fa",
        "cluster": "80dd9fe8d06624b24592a7d47b533b23d68e9249115b500086df39677ef8e045",
        "check": "7c8792ded4dfa87fb3924db9fd3c18dfdfcb5d55dd4b7eb16f932fa1289a9393",
        "hammock": "a8aca33717b3de5c2844d07802988b0766a7240f92ef910b7112bf6287fe3524",
    },
    "D5": {
        "json": "320d0aa706493e81a2c8da5f3695b333d2b409b72115a6d3581c90db428e3805",
        "dot": "0dbb108580baebb86819108e91a73a20974294af866ab02edccd3eab00cd013f",
        "coxeter": "527a1d3d7ae0445c4d355efae5ee840b53fc174016108dae83bfa366aa872080",
        "cluster": "d63dd41b64ed7b7ce76f5bf98525f30a802a62685ff18c7f1843a1cd9fb5281c",
        "check": "7c8792ded4dfa87fb3924db9fd3c18dfdfcb5d55dd4b7eb16f932fa1289a9393",
        "hammock": "d2c7a03411ae5cf248e3c883c299aad2222cc830efe9778f4832284d89a2573f",
    },
    "E6": {
        "json": "2dda75763d1600a21c53b986ceae67f449d1915a702139be98a6a900e7b40008",
        "dot": "f43fa71c3ccaa9799fb7d1af3bccaf31c50041c44b30292f60d59f447f2f2629",
        "coxeter": "d5011bd15948b5a7a96f69801cab83a9c047b3dee1c7058e7bc1216904c20afd",
        "cluster": "5bfe493da60a1bd7826758111d23839f4ab54dab05bd3d9dd10fa1cdbcf1054c",
        "check": "7c8792ded4dfa87fb3924db9fd3c18dfdfcb5d55dd4b7eb16f932fa1289a9393",
        "hammock": "5b4cda92fe2a19782be160882da1c1a806006f30dd945248b6d3153a6ecc030e",
    },
    "F4": {
        "json": "358b69e35a15ed02dfccb9c0545b6ca1501521dc9cbef21c38edc58dabfd2932",
        "dot": "2eac5c87f8c08a847c517cfa6a140101876b6218cfa0da509adab88d27a1b09a",
        "coxeter": "1d2dac33f37d41e3e722fc37b6faa0d4633de99bc5c56f7d5c471eb9ae684ee1",
        "cluster": "1a197e04b3ca51f3581616a7668d38d93c1c94b57f5fe4aaf040fbd3fe60f931",
        "check": "7c8792ded4dfa87fb3924db9fd3c18dfdfcb5d55dd4b7eb16f932fa1289a9393",
        "hammock": "bfae13f1b1155f328cad091e084eae40fb39d703389c713640c51caeb1a96d46",
    },
    "G2": {
        "json": "fd10a690e1eb59b4019eb232dfdc7900081fccd51fa5efddae3cd3d12015bd1a",
        "dot": "d67b672521ae3d1e3743d21b33eaa97677d4656331d88451658ea99dda545dc3",
        "coxeter": "ca4f6c3638e2767c3b082588717f441fb0b842015229b599feddfbd09cbc1e54",
        "cluster": "ea4b78d91ea8f7da971ff26fbc61792f9cf0e2e7bd0d77727f862e187ff366df",
        "check": "7c8792ded4dfa87fb3924db9fd3c18dfdfcb5d55dd4b7eb16f932fa1289a9393",
        "hammock": "21d3e57159fd6dbf2963ca782a579fae18f5470a771f1954696e20fc1e2a2123",
    },
    # Large ranks pin the Coxeter stage and the oracle only.
    "B32": {
        "coxeter": "39642808f73b4a0f05daac34381fea9509ddef2457ab1d998e3ed4e0c8e5f073",
        "check": "7c8792ded4dfa87fb3924db9fd3c18dfdfcb5d55dd4b7eb16f932fa1289a9393",
    },
    "A40": {
        "coxeter": "2d019858ba906bdc4a458fcd572a7c17d569f6a23875169aebb8355955ec2fca",
        "check": "7c8792ded4dfa87fb3924db9fd3c18dfdfcb5d55dd4b7eb16f932fa1289a9393",
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN_TEXTS))
def test_cli_output_bytes_are_pinned(tmp_path, capsys, name):
    expected = GOLDEN_SHA256[name]
    assert _output_digests(tmp_path, capsys, name, expected) == expected
