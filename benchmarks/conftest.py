"""Benchmark-suite plumbing.

``bench_figures.py`` runs each row of the figures table once inside
``benchmark.pedantic`` (so ``pytest benchmarks/ --benchmark-only``
measures each one's wall time), prints the same series the paper plots
(through ``capsys.disabled()`` so it lands on the terminal), and writes
it to ``benchmarks/results/<name>.txt`` for EXPERIMENTS.md.
"""

from __future__ import annotations

import os

import pytest

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def pytest_configure(config):
    os.makedirs(RESULTS_DIR, exist_ok=True)


@pytest.fixture
def emit(capsys):
    """emit(name, table_text): print + persist one figure's table."""

    def _emit(name: str, text: str) -> None:
        path = os.path.join(RESULTS_DIR, f"{name}.txt")
        with open(path, "w") as handle:
            handle.write(text + "\n")
        with capsys.disabled():
            print("\n" + text)

    return _emit
