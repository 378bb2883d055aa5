"""Shared configuration for the paper-reproduction benchmarks.

Every ``bench_*.py`` regenerates one table or figure of the paper.  The
rendered report is printed (visible with ``pytest -s``) and also written
to ``benchmarks/results/<artifact>.txt`` so a plain
``pytest benchmarks/ --benchmark-only`` run leaves the full evaluation
on disk.

Scale: each bench hands its runner one value of the config type
``repro run`` builds for that artifact, sized by the knobs below.  The
defaults reproduce the paper's topology sizes with reduced round counts
so the whole suite completes in minutes.  Set
``REPRO_BENCH_SCALE=paper`` for the full 100-events-per-replica runs
and the 50-node / 10 000-user Retwis deployment.

This file imports nothing from ``repro`` at module level: pytest also
loads it for ``benchmarks/perf/tests``, which run without ``src`` on
the path.
"""

from __future__ import annotations

import os
from dataclasses import asdict
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"

#: "quick" (default) or "paper".
SCALE = os.environ.get("REPRO_BENCH_SCALE", "quick")

#: Rounds per micro-benchmark at each scale.
MICRO_ROUNDS = {"quick": 40, "paper": 100}[SCALE]
#: Rounds for the heavyweight GMap grid (1000-key maps).
GMAP_ROUNDS = {"quick": 25, "paper": 100}[SCALE]
#: Cluster sizes for the Figure 9 metadata sweep.
FIGURE9_SIZES = {"quick": (8, 16, 32), "paper": (8, 16, 32, 64)}[SCALE]
FIGURE9_ROUNDS = {"quick": 25, "paper": 100}[SCALE]


def retwis_config():
    """The Retwis deployment at every Zipf coefficient of Section V-C."""
    from repro.experiments import RetwisConfig, RetwisSweepConfig
    from repro.experiments.retwis_sweep import PAPER_COEFFICIENTS

    deployment = RetwisConfig.paper_scale() if SCALE == "paper" else RetwisConfig()
    return RetwisSweepConfig(**asdict(deployment), coefficients=PAPER_COEFFICIENTS)


@pytest.fixture(scope="session")
def report_sink():
    """Write a rendered artifact report to the results directory."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def write(artifact: str, text: str) -> None:
        print()
        print(text)
        (RESULTS_DIR / f"{artifact}.txt").write_text(text + "\n", encoding="utf-8")

    return write
