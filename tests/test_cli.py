import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import partition_snf
import partition_snf.cli as cli_module
import partition_snf.polynomials as polynomials_module
import partition_snf.recurrence as recurrence_module
import partition_snf.snf as snf_module
import partition_snf.weights as weights_module
from partition_snf import (
    Cell,
    Monomial,
    Partition,
    Polynomial,
    SnfResult,
    polynomial_from_json,
    polynomial_to_json,
    snf_both,
    snf_inductive,
    snf_recurrence,
    weight_polynomial,
)
from partition_snf.cli import main
from partition_snf.polynomials import PackedLayout

from helpers import accept_every_certification, tamper_inductive

LETTER_GRID_3_2 = {
    (1, 1): "abcde+bcde+bce+cde+ce+de+c+e+1",
    (1, 2): "bce+ce+c+e+1",
    (1, 3): "c+1",
    (1, 4): "1",
    (2, 1): "de+e+1",
    (2, 2): "e+1",
    (2, 3): "1",
    (2, 4): "1",
    (3, 1): "1",
    (3, 2): "1",
    (3, 3): "1",
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_weight_lines(out):
    cells = {}
    for line in out.splitlines():
        if line.startswith("("):
            cell, text = line.split(" ", 1)
            r, c = cell.strip("()").split(",")
            cells[(int(r), int(c))] = text
    return cells


class TestWeightsCommand:
    def test_letter_grid_3_2(self, capsys):
        code, out, _ = run_cli(capsys, "weights", "3,2", "--naming", "letters")
        assert code == 0
        assert parse_weight_lines(out) == LETTER_GRID_3_2

    def test_empty_partition(self, capsys):
        code, out, _ = run_cli(capsys, "weights", "")
        assert code == 0
        assert parse_weight_lines(out) == {(1, 1): "1"}

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "weights", "3,2", "--format", "json")
        assert code == 0
        envelope = json.loads(out)
        assert envelope["command"] == "weights"
        assert envelope["input"]["partition"] == [3, 2]
        cells = envelope["result"]["cells"]
        assert len(cells) == 11
        for item in cells:
            poly = polynomial_from_json(item["polynomial"])
            if item["border"]:
                assert poly == 1

    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(capsys, "weights", "5,4,1", "--format", "json")
        _, second, _ = run_cli(capsys, "weights", "5,4,1", "--format", "json")
        assert first == second

    def test_letter_grid_5_4_1(self, capsys):
        code, out, _ = run_cli(capsys, "weights", "5,4,1", "--naming", "letters")
        assert code == 0
        cells = parse_weight_lines(out)
        assert cells[(3, 1)] == "j+1"
        assert cells[(2, 4)] == "i+1"
        assert cells[(4, 1)] == "1"
        assert cells[(4, 2)] == "1"

    def test_letters_overflow_rejected(self, capsys):
        code, _, err = run_cli(capsys, "weights", "27", "--naming", "letters")
        assert code == 1
        assert "26" in err

    def test_text_builds_no_json(self, capsys, monkeypatch):
        def no_json(poly, level):
            raise AssertionError("JSON built under --format text")

        monkeypatch.setattr(cli_module, "_polynomial_json", no_json)
        code, out, _ = run_cli(capsys, "weights", "3,2", "--naming", "letters")
        assert code == 0
        assert parse_weight_lines(out) == LETTER_GRID_3_2

    def test_bad_partition_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "weights", "2,3")
        assert code == 1
        assert "decreasing" in err


class TestSnfCommand:
    def test_both_agree(self, capsys):
        code, out, _ = run_cli(capsys, "snf", "3,2", "--naming", "letters")
        assert code == 0
        assert "diagonal: abcde | e | 1" in out
        assert "agree: true" in out
        assert out.count("verified: true") == 2

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_agreeing_results_render_once(self, capsys, monkeypatch, fmt):
        # Agreeing results differ only in their algorithm, so the shared
        # block is rendered once; differing ones are rendered apart.
        lines, calls = cli_module._snf_lines, []

        def counted(result, naming):
            calls.append(result.algorithm)
            return lines(result, naming)

        monkeypatch.setattr(cli_module, "_snf_lines", counted)
        writer, envelopes = cli_module._json_chunks, []

        def kept(envelope):
            envelopes.append(envelope)
            return writer(envelope)

        monkeypatch.setattr(cli_module, "_json_chunks", kept)

        def shared(field):
            blocks = envelopes[-1]["result"]
            return getattr(blocks["recurrence"], field) is getattr(
                blocks["inductive"], field
            )

        code, out, _ = run_cli(capsys, "snf", "3,2", "--format", fmt)
        if fmt == "json":
            # The envelope holds the one P, Q and diagonal of both blocks;
            # TestJsonWriter::test_each_polynomial_rendered_once pins that
            # the writer renders each of their polynomials once.
            assert (code, calls) == (0, [])
            assert all(map(shared, ("P", "Q", "diagonal")))
            result = json.loads(out)["result"]
            assert [result[name]["algorithm"] for name in ("recurrence", "inductive")] == [
                "recurrence", "inductive"
            ]
        else:
            assert (code, calls) == (0, ["recurrence"])
            assert "algorithm: recurrence" in out and "algorithm: inductive" in out
        calls.clear()
        tamper_inductive(monkeypatch, "P")
        accept_every_certification(monkeypatch)
        code, _, _ = run_cli(capsys, "snf", "3,2", "--format", fmt)
        if fmt == "json":
            assert (code, calls, shared("P")) == (2, [], False)
        else:
            assert (code, calls) == (2, ["recurrence", "inductive"])

    @pytest.mark.parametrize("field", ["P", "Q"])
    def test_disagreeing_transforms(self, capsys, monkeypatch, field):
        # Same diagonal, different transform: the wrong pair fails its own
        # certification, and once past certification agree must read false.
        tamper_inductive(monkeypatch, field)
        code, out, err = run_cli(capsys, "snf", "3,2", "--naming", "letters")
        assert code == 2
        assert out == ""
        assert err.startswith("verification failed: inductive: ")
        accept_every_certification(monkeypatch)
        code, out, _ = run_cli(capsys, "snf", "3,2", "--naming", "letters")
        assert code == 2
        assert "agree: false" in out

    @pytest.mark.parametrize(
        "part, message",
        [
            ("1_0", "not an integer part"),
            ("9" * 5000, "exceeds the limit"),
            ("x" * 5000, "not an integer part"),
            ("\x01" * 30, "not an integer part"),
        ],
    )
    def test_bad_part_is_one_short_line(self, capsys, part, message):
        code, out, err = run_cli(capsys, "snf", part)
        assert (code, out) == (1, "")
        [line] = err.splitlines()
        assert message in line and len(line) < 80

    def test_empty_partition(self, capsys):
        code, out, _ = run_cli(capsys, "snf", "", "--algorithm", "recurrence")
        assert code == 0
        assert "diagonal: 1" in out

    def test_json_schema(self, capsys):
        code, out, _ = run_cli(capsys, "snf", "3,2", "--format", "json")
        assert code == 0
        envelope = json.loads(out)
        assert envelope["verified"] is True
        result = envelope["result"]
        assert result["agree"] is True
        for name in ("recurrence", "inductive"):
            block = result[name]
            assert block["algorithm"] == name
            assert block["verified"] is True
            assert len(block["diagonal"]) == 3
            assert block["P"]["rows"] == 3
            assert block["Q"]["cols"] == 3

    def test_rectangle(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "snf",
            "3,2",
            "--algorithm",
            "inductive",
            "--rect",
            "2",
            "3",
            "--naming",
            "letters",
        )
        assert code == 0
        assert "rectangle: 2x3" in out
        assert "diagonal: bce | 1" in out

    def test_rect_requires_inductive(self, capsys):
        code, _, err = run_cli(capsys, "snf", "3,2", "--rect", "2", "3")
        assert code == 1
        assert "inductive" in err

    def test_rect_corner_validation(self, capsys):
        code, _, err = run_cli(
            capsys, "snf", "3,2", "--algorithm", "inductive", "--rect", "2", "2"
        )
        assert code == 1
        assert "border" in err

    @pytest.mark.parametrize(
        "argv",
        [("snf", "3,2"), ("snf", "3,2", "--algorithm", "inductive", "--rect", "2", "3")],
    )
    def test_json_renders_no_text(self, capsys, monkeypatch, argv):
        def no_render(*args, **kwargs):
            raise AssertionError("text rendered under --format json")

        monkeypatch.setattr(cli_module, "render", no_render)
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        assert json.loads(out)["verified"] is True

    @pytest.mark.parametrize(
        "argv",
        [("snf", "3,2"), ("snf", "3,2", "--algorithm", "inductive", "--rect", "2", "3")],
    )
    def test_text_builds_no_json(self, capsys, monkeypatch, argv):
        def no_json(self, leaf):
            raise AssertionError("JSON built under --format text")

        monkeypatch.setattr(SnfResult, "_json", no_json)
        code, out, _ = run_cli(capsys, *argv, "--naming", "letters")
        assert code == 0
        assert "verified: true" in out

    def test_json_still_checks_agreement(self, capsys, monkeypatch):
        tamper_inductive(monkeypatch, "P")
        code, out, err = run_cli(capsys, "snf", "3,2", "--format", "json")
        assert code == 2
        assert out == ""
        assert err.startswith("verification failed: inductive: ")
        accept_every_certification(monkeypatch)
        code, out, _ = run_cli(capsys, "snf", "3,2", "--format", "json")
        assert code == 2
        envelope = json.loads(out)
        assert envelope["result"]["agree"] is False
        assert envelope["verified"] is False

    def test_failed_certification_exits_2(self, capsys, monkeypatch):
        # Both algorithms share one certification, reported as the
        # recurrence's, which is the one that runs first.
        monkeypatch.setattr(
            "partition_snf.snf._leading_keys", lambda weights, d, e: [0] * d
        )
        code, out, err = run_cli(capsys, "snf", "3,2")
        assert code == 2
        assert out == ""
        assert err.startswith("verification failed: recurrence: ")


class TestRecurrenceCommand:
    def test_all_columns(self, capsys):
        code, out, _ = run_cli(capsys, "recurrence", "3,2", "--naming", "letters")
        assert code == 0
        assert "coefficient[1] = bc+c+1" in out
        assert "j=1: residual abcde, expected abcde, ok" in out
        assert "j=2: residual 0, expected 0, ok" in out
        assert "j=3: residual 0, expected 0, ok" in out

    def test_single_column(self, capsys):
        code, out, _ = run_cli(
            capsys, "recurrence", "5,4,1", "--j", "1", "--naming", "letters"
        )
        assert code == 0
        assert "j=1: residual abcdefghij, expected abcdefghij, ok" in out

    def test_bad_column(self, capsys):
        code, _, err = run_cli(capsys, "recurrence", "3,2", "--j", "9")
        assert code == 1
        assert "column" in err

    def test_json_checks(self, capsys):
        code, out, _ = run_cli(capsys, "recurrence", "3,2", "--format", "json")
        assert code == 0
        envelope = json.loads(out)
        checks = envelope["result"]["checks"]
        assert [c["j"] for c in checks] == [1, 2, 3]
        assert all(c["ok"] for c in checks)

    def test_packs_each_shape_once(self, capsys, monkeypatch):
        # One weight set serves the printout and every column: each
        # coefficient is walked once, and no weight is encoded twice.
        walk, encode = recurrence_module._walk, PackedLayout.encode
        walked, encoded = [], []

        def counted_walk(*args):
            walked.append(args)
            return walk(*args)

        def counted_encode(layout, poly):
            encoded.append(poly)
            return encode(layout, poly)

        monkeypatch.setattr(recurrence_module, "_walk", counted_walk)
        monkeypatch.setattr(PackedLayout, "encode", counted_encode)
        staircase = (10, 9, 8, 7, 6, 5, 4, 3, 2, 1)
        argv = ("recurrence", ",".join(map(str, staircase)), "--j", "all")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and out.count(", ok") == 6
        rank = Partition(staircase).rank
        assert len(walked) == rank + 1 == 6
        assert encoded and len(encoded) == len(set(encoded))


def _capped_cli(argv, cap: int) -> subprocess.CompletedProcess:
    """The CLI in a child process under an address-space cap of ``cap``
    bytes, with a 20 s timeout."""
    src = str(Path(partition_snf.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "partition_snf", *argv],
        capture_output=True,
        text=True,
        timeout=20,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        env={**os.environ, "PYTHONPATH": src},
    )


class TestClosedStdout:
    @pytest.mark.parametrize(
        "argv",
        [
            ("snf", "10,9,8,7,6,5,4,3,2,1"),
            ("snf", "10,9,8,7,6,5,4,3,2,1", "--format", "json"),
            ("weights", "8,8,8,8,8,8"),
        ],
    )
    def test_exits_1_without_a_traceback(self, argv):
        # The reader is gone before the first byte is written, so the
        # writes fail however much of the output a pipe would hold.
        src = str(Path(partition_snf.__file__).resolve().parents[1])
        child = subprocess.Popen(
            [sys.executable, "-m", "partition_snf", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        child.stdout.close()
        _, err = child.communicate(timeout=60)
        assert child.returncode == 1, err
        assert "Traceback" not in err and "Exception ignored" not in err
        assert len(err.splitlines()) <= 1


class TestDegreeLimit:
    """``W(1,1)`` holds the degree-``|lam|`` leading monomial, so every
    command on a partition past the limit is refused before it starts."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("snf", "70000"),
            ("snf", "70000", "--algorithm", "inductive"),
            ("recurrence", "70000"),
            ("weights", "70000"),
            ("snf", "99999999999999999999"),
            ("recurrence", "99999999999999999999"),
        ],
    )
    def test_refused_up_front(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 5.0
        assert code == 1
        assert out == ""
        assert "exceeds the limit" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("weights", "100000000"),
            ("weights", "99999999999999999999"),
            ("snf", "3000000000"),
            # Walking coefficient 1 of these before the check would run
            # out of memory, or never reach a refused coefficient.
            ("recurrence", "40000,30000"),
            ("recurrence", "65536"),
            ("qcatalan", "363"),
            ("qcatalan", "99999999999999999999"),
        ],
    )
    def test_refused_within_a_memory_cap(self, argv):
        # Building the extension's cells, or one row of a leading monomial,
        # before the degree check would exhaust memory on these; a child
        # process under a 1 GiB address-space cap fails instead.
        done = _capped_cli(argv, 1 << 30)
        assert done.returncode == 1
        assert done.stdout == ""
        assert "exceeds the limit" in done.stderr

    @pytest.mark.parametrize(
        "argv, cap",
        [
            pytest.param(("weights", "40,40,40,40,40,40"), 256 << 20, id="argv0"),
            pytest.param(("snf", "11,10,9,8,7,6,5,4,3,2,1"), 256 << 20, id="argv1"),
            # Under this cap an allocation can fail inside a comprehension,
            # which CPython 3.11 may raise as SystemError, not MemoryError.
            pytest.param(
                ("snf", "11,10,9,8,7,6,5,4,3,2,1"), 200 << 20, id="argv1-200MiB"
            ),
        ],
    )
    def test_out_of_memory_is_one_line(self, argv, cap):
        # The origin weight of six rows of 40 has C(46, 6) terms, and the
        # 12-part staircase's multivariate weights fill the weight memo:
        # both run far past a 256 MiB cap, and the CLI reports it in one
        # line, not a traceback.
        done = _capped_cli(argv, cap)
        assert done.returncode == 1
        assert done.stdout == ""
        assert "Traceback" not in done.stderr
        assert done.stderr.splitlines() == ["error: out of memory"]

    def test_out_of_memory_in_the_json_encoder_is_one_line(self, capsys, monkeypatch):
        # The third polynomial fails to render, after two have been; the
        # output is built in full before any of it is written.
        render, calls = cli_module._polynomial_json, []

        def exhausted(poly, level):
            calls.append(level)
            if len(calls) == 3:
                raise MemoryError
            return render(poly, level)

        monkeypatch.setattr(cli_module, "_polynomial_json", exhausted)
        code, out, err = run_cli(capsys, "recurrence", "3,2", "--format", "json")
        assert len(calls) == 3
        assert (code, out) == (1, "")
        assert err.splitlines() == ["error: out of memory"]

    def test_out_of_memory_joining_the_text_is_one_line(self, capsys, monkeypatch):
        # The command's lines are built; joining them fails.
        class Exhausting(list):
            def __iter__(self):
                raise MemoryError

        command = cli_module._DISPATCH["recurrence"]

        def exhausting(args):
            lines, result, code = command(args)
            return Exhausting(lines), result, code

        monkeypatch.setitem(cli_module._DISPATCH, "recurrence", exhausting)
        code, out, err = run_cli(capsys, "recurrence", "3,2")
        assert (code, out) == (1, "")
        assert err.splitlines() == ["error: out of memory"]

    def test_qcatalan_runs_in_z_q_within_the_cap(self):
        # The staircase reductions run in Z[q] and never enumerate the
        # Catalan-many multivariate terms, so n = 20 fits 256 MiB.
        done = _capped_cli(("qcatalan", "20", "--format", "json"), 256 << 20)
        assert (done.returncode, done.stderr) == (0, "")
        rows = json.loads(done.stdout)["result"]["rows"]
        assert [row["n"] for row in rows] == list(range(21))
        assert all(row["ok"] for row in rows[1:])


class TestQCatalanCommand:
    def test_table(self, capsys):
        code, out, _ = run_cli(capsys, "qcatalan", "3")
        assert code == 0
        assert "n=3 1+2q+q^2+q^3 exponents=3,0 ok" in out

    def test_zero_rows(self, capsys):
        code, out, _ = run_cli(capsys, "qcatalan", "0")
        assert code == 0
        assert out.strip() == "n=0 1"

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "qcatalan", "4", "--format", "json")
        assert code == 0
        envelope = json.loads(out)
        rows = envelope["result"]["rows"]
        assert rows[3]["snf_exponents"] == [3, 0]
        assert rows[4]["snf_exponents"] == [6, 1, 0]
        assert envelope["verified"] is True

    def test_golden_output(self, capsys):
        code, out, err = run_cli(capsys, "qcatalan", "5")
        assert (code, err) == (0, "")
        assert out == QCATALAN_5_TEXT
        code, out, err = run_cli(capsys, "qcatalan", "5", "--format", "json")
        assert (code, err) == (0, "")
        envelope = {
            "command": "qcatalan",
            "input": {"n_max": 5, "format": "json"},
            "result": {"rows": QCATALAN_5_ROWS},
            "verified": True,
        }
        assert out == json.dumps(envelope, indent=2) + "\n"


QCATALAN_5_TEXT = """\
n=0 1
n=1 1 exponents=0 ok
n=2 1+q exponents=1,0 ok
n=3 1+2q+q^2+q^3 exponents=3,0 ok
n=4 1+3q+3q^2+3q^3+2q^4+q^5+q^6 exponents=6,1,0 ok
n=5 1+4q+6q^2+7q^3+7q^4+5q^5+5q^6+3q^7+2q^8+q^9+q^10 exponents=10,3,0 ok
"""

QCATALAN_5_ROWS = [
    {"n": 0, "poly": [1], "rendered": "1"},
    {"n": 1, "poly": [1], "rendered": "1", "snf_exponents": [0], "ok": True},
    {"n": 2, "poly": [1, 1], "rendered": "1+q", "snf_exponents": [1, 0], "ok": True},
    {
        "n": 3,
        "poly": [1, 2, 1, 1],
        "rendered": "1+2q+q^2+q^3",
        "snf_exponents": [3, 0],
        "ok": True,
    },
    {
        "n": 4,
        "poly": [1, 3, 3, 3, 2, 1, 1],
        "rendered": "1+3q+3q^2+3q^3+2q^4+q^5+q^6",
        "snf_exponents": [6, 1, 0],
        "ok": True,
    },
    {
        "n": 5,
        "poly": [1, 4, 6, 7, 7, 5, 5, 3, 2, 1, 1],
        "rendered": "1+4q+6q^2+7q^3+7q^4+5q^5+5q^6+3q^7+2q^8+q^9+q^10",
        "snf_exponents": [10, 3, 0],
        "ok": True,
    },
]


class TestSelftestCommand:
    def test_small_run(self, capsys):
        code, out, _ = run_cli(capsys, "selftest", "4")
        assert code == 0
        assert "result: PASS" in out

    def test_bad_size(self, capsys):
        code, _, err = run_cli(capsys, "selftest", "0")
        assert code == 1


ENVELOPES = [
    (("weights", "3,2"), {"partition": [3, 2], "naming": "coords"}),
    (
        ("snf", "3,2"),
        {"partition": [3, 2], "algorithm": "both", "rect": None, "naming": "coords"},
    ),
    (
        ("snf", "3,2", "--algorithm", "recurrence"),
        {
            "partition": [3, 2],
            "algorithm": "recurrence",
            "rect": None,
            "naming": "coords",
        },
    ),
    (
        ("snf", "3,2", "--algorithm", "inductive", "--rect", "2", "3"),
        {
            "partition": [3, 2],
            "algorithm": "inductive",
            "rect": [2, 3],
            "naming": "coords",
        },
    ),
    (
        ("recurrence", "5,4,1"),
        {"partition": [5, 4, 1], "j": "all", "naming": "coords"},
    ),
    (
        ("recurrence", "5,4,1", "--j", "2"),
        {"partition": [5, 4, 1], "j": "2", "naming": "coords"},
    ),
    (("qcatalan", "3"), {"n_max": 3}),
    (("selftest", "2"), {"max_size": 2}),
]


class TestEnvelope:
    @pytest.mark.parametrize("argv, echo", ENVELOPES)
    def test_keys_and_input_echo(self, capsys, argv, echo):
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        envelope = json.loads(out)
        keys = ["command", "input", "result"]
        if argv[0] != "weights":
            keys.append("verified")
            assert envelope["verified"] is True
        assert list(envelope) == keys
        assert envelope["command"] == argv[0]
        assert envelope["input"] == {**echo, "format": "json"}
        assert list(envelope["input"]) == [*echo, "format"]


class TestOutput:
    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "grid.json"
        code, out, _ = run_cli(
            capsys, "weights", "3,2", "--format", "json", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        envelope = json.loads(target.read_text(encoding="utf-8"))
        assert envelope["command"] == "weights"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("snf", "5,4,1"),
            ("snf", "5,4,1", "--algorithm", "recurrence", "--naming", "letters"),
            ("snf", "5,4,1", "--algorithm", "inductive", "--rect", "2", "5"),
            ("weights", "3,2", "--naming", "letters"),
            ("recurrence", "5,4,1", "--j", "all"),
            ("qcatalan", "6"),
            ("selftest", "4"),
        ],
    )
    def test_out_file_holds_the_stdout_bytes(self, capsys, tmp_path, argv, fmt):
        code, out, err = run_cli(capsys, *argv, "--format", fmt)
        assert (code, err) == (0, "")
        target = tmp_path / "out"
        code, printed, err = run_cli(
            capsys, *argv, "--format", fmt, "--out", str(target)
        )
        assert (code, printed, err) == (0, "", "")
        assert target.read_bytes() == out.encode("utf-8")

    def test_out_write_error_exits_1(self, capsys, tmp_path):
        target = tmp_path / "missing" / "grid.json"
        code, out, err = run_cli(
            capsys, "weights", "3,2", "--format", "json", "--out", str(target)
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert not target.exists()

    def test_unknown_command_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "bogus")
        assert code == 1


def to_json_tree(value):
    """The envelope as plain JSON data, each result and polynomial through
    its public ``to_json``: what the writer's bytes are pinned against."""
    if isinstance(value, Polynomial):
        return polynomial_to_json(value)
    if isinstance(value, SnfResult):
        return value.to_json()
    if isinstance(value, dict):
        return {key: to_json_tree(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_json_tree(item) for item in value]
    return value


# Keys and strings with spaces, quotes, backslashes, non-ASCII characters
# and every control character but NUL, the writer's hole for a polynomial.
JSON_TEXT = st.text(
    st.one_of(
        st.sampled_from(' "\\/\x01\x1f\x7f\n\t\u00e9\u2028\U0001d11e'),
        st.characters(exclude_characters="\x00"),
    ),
    max_size=6,
)
JSON_POLYNOMIAL = st.lists(
    st.tuples(
        st.lists(
            st.tuples(st.tuples(st.integers(1, 5), st.integers(1, 9)), st.integers(1, 4)),
            max_size=3,
        ),
        st.integers(-(2**70), 2**70),
    ),
    max_size=3,
).map(
    lambda terms: sum(
        (Polynomial.from_monomial(Monomial(a), c) for a, c in terms), Polynomial.zero()
    )
)
RESULTS = (
    *snf_both(Partition((3, 2))),
    snf_recurrence(Partition(())),
    snf_inductive(Partition((3, 2)), 2, 3),
)


@st.composite
def json_values(draw):
    """Nested dicts, lists and tuples of JSON scalars, results and a few
    polynomials, each of which may occur at several depths."""
    pool = draw(st.lists(JSON_POLYNOMIAL, min_size=1, max_size=3))
    leaves = st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-(2**70), 2**70),
        JSON_TEXT,
        st.sampled_from(pool),
        st.sampled_from(RESULTS),
    )
    return draw(
        st.recursive(
            leaves,
            lambda inner: st.one_of(
                st.lists(inner, max_size=4),
                st.lists(inner, max_size=4).map(tuple),
                st.dictionaries(JSON_TEXT, inner, max_size=4),
            ),
            max_leaves=16,
        )
    )


class TestJsonWriter:
    """``--format json`` writes ``json.dumps(envelope, indent=2)`` and a
    newline, byte for byte, rendering each polynomial once."""

    @staticmethod
    def pinned(monkeypatch) -> list[str]:
        """From now on, ``json.dumps`` of each envelope's ``to_json`` tree."""
        writer, dumped = cli_module._json_chunks, []

        def both(envelope):
            dumped.append(json.dumps(to_json_tree(envelope), indent=2) + "\n")
            return writer(envelope)

        monkeypatch.setattr(cli_module, "_json_chunks", both)
        return dumped

    @pytest.mark.parametrize(
        "argv",
        [
            ("snf", "10,9,8,7,6,5,4,3,2,1"),
            ("snf", "5,4,1", "--algorithm", "recurrence", "--naming", "letters"),
            ("snf", "4,4,2,1", "--algorithm", "inductive", "--rect", "3", "5"),
            ("snf", "3,2", "--algorithm", "inductive", "--rect", "2", "3"),
            ("snf", ""),
            ("weights", "4,4,2,1"),
            ("weights", ""),
            ("recurrence", "10,9,8,7,6,5,4,3,2,1", "--j", "all"),
            ("qcatalan", "12"),
            ("selftest", "8"),
        ],
    )
    def test_bytes_are_json_dumps(self, capsys, monkeypatch, argv):
        dumped = self.pinned(monkeypatch)
        code, out, err = run_cli(capsys, *argv, "--format", "json")
        assert (code, err) == (0, "")
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
        assert [out] == dumped

    def test_disagreeing_blocks_are_json_dumps(self, capsys, monkeypatch):
        tamper_inductive(monkeypatch, "P")
        accept_every_certification(monkeypatch)
        dumped = self.pinned(monkeypatch)
        code, out, _ = run_cli(capsys, "snf", "3,2", "--format", "json")
        assert code == 2
        assert [out] == dumped

    def test_one_polynomial_at_two_depths(self):
        # Renderings are kept by object and depth, so one polynomial
        # nested at two depths is rendered at each.
        p = weight_polynomial(Partition((3, 2)), Cell(1, 1))
        value = {"p": p, "deeper": [p, {"p": p}], "empty": {}, "none": None, "é": True}
        text = "".join(cli_module._json_chunks(value))
        assert text == json.dumps(to_json_tree(value), indent=2)

    @given(json_values())
    @settings(max_examples=150, deadline=None)
    def test_writes_json_dumps(self, value):
        text = "".join(cli_module._json_chunks(value))
        assert text == json.dumps(to_json_tree(value), indent=2)

    @pytest.mark.parametrize(
        "value",
        [
            {"s": "\x00", "p": Polynomial.one()},
            ["\x00"],
            {"\x00": 1},
            [Polynomial.zero(), 'a"\x00'],
        ],
    )
    def test_a_string_read_as_a_hole_raises(self, value):
        # A string written as a polynomial's hole would put that polynomial
        # in the wrong place; the writer refuses instead.
        with pytest.raises(ValueError):
            cli_module._json_chunks(value)

    def test_each_polynomial_rendered_once(self, capsys, monkeypatch):
        def no_tree(poly):
            raise AssertionError("polynomial_to_json called")

        for module in (polynomials_module, snf_module, weights_module):
            monkeypatch.setattr(module, "polynomial_to_json", no_tree)
        render, rendered = cli_module._polynomial_json, []

        def counted(poly, level):
            rendered.append(id(poly))
            return render(poly, level)

        monkeypatch.setattr(cli_module, "_polynomial_json", counted)
        both, results = cli_module.snf_both, []

        def kept(lam):
            results.extend(both(lam))
            return results

        monkeypatch.setattr(cli_module, "snf_both", kept)
        code, out, _ = run_cli(
            capsys, "snf", "10,9,8,7,6,5,4,3,2,1", "--format", "json"
        )
        assert code == 0
        by_rows = results[0]
        polynomials = {
            id(p)
            for p in (
                *by_rows.diagonal,
                *(p for row in by_rows.P.entries for p in row),
                *(p for row in by_rows.Q.entries for p in row),
            )
        }
        # Both blocks are written from the one rendering of each.
        assert len(rendered) == len(set(rendered))
        assert set(rendered) == polynomials
        result = json.loads(out)["result"]
        assert result["recurrence"] == {**result["inductive"], "algorithm": "recurrence"}
