"""Benchmark harness: the experiment registry and what reads it.

:mod:`repro.bench.registry` defines every experiment once, as data
(cases, checkpoint sweeps, the paper's values and orderings);
``python -m repro.bench.suite`` runs a tier into ``BENCH_<tier>.json``,
``python -m repro.bench.compare`` gates the newest entry against that
history, ``python -m repro.bench.report`` renders EXPERIMENTS.md from
it, and ``repro bench GLOB`` runs cases by name.
"""

from repro.bench.workloads import (
    JoinWorkload,
    build_tiger_workload,
    suggest_dt,
)
from repro.bench.runner import MeasuredRun, consume, run_join
from repro.bench.reporting import format_series, format_table
from repro.bench.registry import BenchCase, cases_for, register

__all__ = [
    "BenchCase",
    "JoinWorkload",
    "build_tiger_workload",
    "cases_for",
    "register",
    "suggest_dt",
    "MeasuredRun",
    "run_join",
    "consume",
    "format_table",
    "format_series",
]
