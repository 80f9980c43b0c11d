"""Shared configuration for the figure-reproduction benchmarks.

Every file reproduces one figure of the paper's evaluation: it computes the
figure's series (modeled GPU/CPU/PCI seconds from the calibrated device
model), prints the rendered table, asserts the paper's shape claims, and
lets pytest-benchmark measure the wall-clock of the underlying simulation
— when asked to (``--benchmark-enable`` / ``--benchmark-only``): by default
the benchmarked callable runs once, see :func:`benchmark`.

Scale knobs (environment variables):

* ``REPRO_BENCH_N``      — microbenchmark rows (default 2,000,000;
  paper: 100,000,000)
* ``REPRO_BENCH_POINTS`` — spatial points (default 1,000,000; paper: ~250M)
* ``REPRO_BENCH_SF``     — TPC-H scale factor (default 0.01; paper: 10)
"""

import os

import pytest


def env_int(name: str, default: int) -> int:
    return int(os.environ.get(name, default))


def env_float(name: str, default: float) -> float:
    return float(os.environ.get(name, default))


@pytest.fixture
def benchmark(benchmark, request):
    """pytest-benchmark's fixture, benchmarking only when that was asked for.

    The assertions in these files are about the *modeled* series, which one
    call computes; calibrated rounds of the simulation were ≈ 31 s of the
    tier-1 command's wall (ROADMAP K3).  Unless ``--benchmark-enable`` or
    ``--benchmark-only`` is given, the callable runs once and no statistics
    are kept — what ``--benchmark-disable`` does.
    """
    option = request.config.getoption
    if not (option("benchmark_enable") or option("benchmark_only")):
        benchmark.disabled = True
    return benchmark


@pytest.fixture(scope="session")
def bench_n() -> int:
    return env_int("REPRO_BENCH_N", 2_000_000)


@pytest.fixture(scope="session")
def spatial_points() -> int:
    return env_int("REPRO_BENCH_POINTS", 1_000_000)


@pytest.fixture(scope="session")
def tpch_sf() -> float:
    return env_float("REPRO_BENCH_SF", 0.01)


def show(experiment) -> None:
    """Print a figure's rendered table (pytest -s shows it; the report
    generator collects the same renderings into EXPERIMENTS.md)."""
    print()
    print(experiment.render())
