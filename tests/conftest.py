"""Shared fixtures for the test suite."""

import pytest

from repro.experiments import Lab


@pytest.fixture(scope="session")
def lab():
    """A session-wide experiment lab so compilations are shared."""
    return Lab()


def compile_run(source: str, target: str, **kwargs):
    """Convenience: build minic source (``kwargs`` go to
    ``build_executable``) and run it; returns (stats, machine, result)."""
    from repro.cc import build_executable
    from repro.machine import run_executable

    result = build_executable(source, target, **kwargs)
    stats, machine = run_executable(result.executable)
    return stats, machine, result


#: The in-process compile memos, as (module, attribute).
COMPILE_MEMOS = (("repro.cc.opt", "_OPTIMIZED"),
                 ("repro.cc.codegen", "_GENERATED"),
                 ("repro.asm.parser", "_PARSED"),
                 ("repro.asm.assembler", "_ENCODED"))


def empty_memos(monkeypatch) -> None:
    """Give every compile memo an empty dict for the rest of the test,
    so the next compile computes everything afresh."""
    for module, name in COMPILE_MEMOS:
        monkeypatch.setattr(f"{module}.{name}", {})


def cold_and_warm(monkeypatch, runs) -> tuple[list, list]:
    """Each of ``runs`` called on emptied compile memos, then all of
    them in order on one set of memos: both lists of results."""
    cold = []
    for run in runs:
        empty_memos(monkeypatch)
        cold.append(run())
    empty_memos(monkeypatch)
    return cold, [run() for run in runs]


@pytest.fixture
def fresh_memos(monkeypatch):
    """Empty compile memos: a test that counts or patches compiler
    internals sees them run whatever compiled before it."""
    empty_memos(monkeypatch)


@pytest.fixture(params=["d16", "dlxe"])
def isa_target(request):
    """Parametrize a test over the two headline machines."""
    return request.param


@pytest.fixture(params=["d16", "dlxe", "dlxe/16/2", "dlxe/16/3",
                        "dlxe/32/2"])
def any_target(request):
    """Parametrize a test over all five paper configurations."""
    return request.param


@pytest.fixture
def short_fuel(monkeypatch):
    """Cut the simulator watchdog's fuel from 2 billion instructions to
    2 million for every Lab run (forked workers included)."""
    import repro.experiments.runner as runner

    real = runner.run_executable
    monkeypatch.setattr(
        runner, "run_executable",
        lambda exe, **kwargs: real(exe, max_instructions=2_000_000,
                                   **kwargs))


@pytest.fixture
def dying_build(monkeypatch):
    """Register ``fs-die``, a benchmark whose compilation kills its process.

    The patched compiler reaches pool workers through fork, so only a
    fanned-out grid or campaign may run the returned benchmark name.
    """
    import os

    import repro.experiments.runner as runner
    from repro.bench import Benchmark, register_benchmark

    real_build = runner.build_executable

    def build(source, target, **kwargs):
        if "fs_die_marker" in source:
            os._exit(13)
        return real_build(source, target, **kwargs)

    monkeypatch.setattr(runner, "build_executable", build)
    register_benchmark(Benchmark(
        "fs-die", "kills its worker process", ("5",),
        inline_source="int main() { int fs_die_marker; "
                      "puti(5); return 0; }"))
    return "fs-die"
