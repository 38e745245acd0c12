"""Shared fixtures for the test suite."""

import pytest

from repro.experiments import Lab


@pytest.fixture(scope="session")
def lab():
    """A session-wide experiment lab so compilations are shared."""
    return Lab()


def compile_run(source: str, target: str, **kwargs):
    """Convenience: compile and run minic source, returning stats."""
    from repro.cc import compile_and_run

    stats, machine, result = compile_and_run(source, target, **kwargs)
    return stats, machine, result


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
