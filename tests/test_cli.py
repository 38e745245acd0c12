"""Command-line interface."""

import pytest

from repro.cli import main

HELLO = """
int main() {
    puts("hi");
    return 3;
}
"""


@pytest.fixture
def hello_file(tmp_path):
    path = tmp_path / "hello.mc"
    path.write_text(HELLO)
    return str(path)


def test_compile_to_stdout(hello_file, capsys):
    assert main(["compile", "-t", "d16", hello_file]) == 0
    out = capsys.readouterr().out
    assert ".text" in out
    assert "main:" in out


def test_compile_to_file(hello_file, tmp_path, capsys):
    out_path = tmp_path / "out.s"
    assert main(["compile", "-t", "dlxe", hello_file,
                 "-o", str(out_path)]) == 0
    assert "main:" in out_path.read_text()


def test_run_returns_exit_code(hello_file, capsys):
    code = main(["run", "-t", "d16", hello_file])
    assert code == 3
    assert capsys.readouterr().out == "hi"


def test_run_stats(hello_file, capsys):
    main(["run", "-t", "dlxe", "--stats", hello_file])
    err = capsys.readouterr().err
    assert "path length" in err
    assert "interlocks" in err


def test_run_with_stdin(tmp_path, capsys):
    src = tmp_path / "echo.mc"
    src.write_text("""
    int main() {
        int c;
        while ((c = getchar()) != -1) putchar(c);
        return 0;
    }
    """)
    data = tmp_path / "input.txt"
    data.write_bytes(b"abc")
    main(["run", "-t", "d16", "--stdin", str(data), str(src)])
    assert capsys.readouterr().out == "abc"


def test_disasm(hello_file, capsys):
    assert main(["disasm", "-t", "d16", "-n", "4", hello_file]) == 0
    out = capsys.readouterr().out
    assert "_start" in out
    assert out.count("\n") == 4


def test_bench_table(capsys):
    assert main(["bench", "ackermann", "--targets", "d16,dlxe"]) == 0
    out = capsys.readouterr().out
    assert "ackermann" in out
    assert "d16 size" in out


def test_targets_listing(capsys):
    assert main(["targets"]) == 0
    out = capsys.readouterr().out
    assert "d16" in out and "dlxe/16/2" in out


def test_unknown_target_rejected(hello_file):
    with pytest.raises(SystemExit):
        main(["run", "-t", "nonesuch", hello_file])


SPIN = """
int main() {
    int i;
    i = 1;
    while (i) i = i + 2;
    return 0;
}
"""


def test_run_watchdog_exit_code_and_diagnostics(tmp_path, capsys):
    src = tmp_path / "spin.mc"
    src.write_text(SPIN)
    code = main(["run", "-t", "d16", "--max-instructions", "20000",
                 str(src)])
    assert code == 124
    err = capsys.readouterr().err
    assert "watchdog stopped the program" in err
    assert "pc=0x" in err and "instructions=" in err
    assert "--max-instructions" in err


def test_run_cycle_watchdog(tmp_path, capsys):
    src = tmp_path / "spin.mc"
    src.write_text(SPIN)
    assert main(["run", "-t", "dlxe", "--max-cycles", "20000",
                 str(src)]) == 124
    assert "cycle limit" in capsys.readouterr().err


def test_faults_campaign_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["faults", "ackermann", "-n", "3", "--seed", "4",
                 "--kinds", "reg,trap", "-o", str(out)])
    assert code == 0
    import json

    report = json.loads(out.read_text())
    assert report["schema_version"] == 2
    assert report["fault_kinds"] == ["reg", "trap"]
    assert {cell["target"] for cell in report["cells"]} == {"d16", "dlxe"}
    err = capsys.readouterr().err
    assert "2 cells" in err and "seed 4" in err


def test_faults_rejects_unknown_kind(capsys):
    assert main(["faults", "ackermann", "--kinds", "cosmic"]) == 2
    assert "unknown fault kind" in capsys.readouterr().err


def test_faults_rejects_unknown_benchmark(capsys):
    assert main(["faults", "fortnite"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("faults: unknown benchmark 'fortnite'; "
                          "expected one of [")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["bench", "fortnite"],
    ["bench", "ackermann", "--targets", "d16,riscv"],
    ["faults", "ackermann", "--targets", "d16,riscv"],
])
def test_unknown_name_is_one_line_on_stderr(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    unknown = "benchmark 'fortnite'" if "fortnite" in argv \
        else "target 'riscv'"
    assert captured.err.startswith(f"{argv[0]}: unknown {unknown}; "
                                   f"expected one of [")
    assert captured.err.count("\n") == 1
    assert captured.out == ""
