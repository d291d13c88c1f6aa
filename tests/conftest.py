"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from repro.simulation.engine import Environment
from repro.workloads.trace import OpTrace

# Hypothesis profiles, chosen with HYPOTHESIS_PROFILE.  "ci" is
# derandomised: every run draws the same examples, so a failure in a CI
# log reproduces locally by re-running the same test under the same
# profile.  "wire-fuzz" is "ci" at a higher example count, for the codec
# fuzz step.
settings.register_profile("ci", derandomize=True, database=None, print_blob=True)
settings.register_profile("wire-fuzz", settings.get_profile("ci"), max_examples=2000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def env() -> Environment:
    return Environment()


@pytest.fixture
def small_trace() -> OpTrace:
    """A tiny deterministic 4-kind trace: 10 one-minute samples."""
    kinds = ("open", "close", "getattr", "rename")
    counts = np.array(
        [
            [600, 1200, 3000, 600],
            [1200, 2400, 6000, 1200],
            [600, 1200, 3000, 600],
            [2400, 4800, 12000, 2400],
            [600, 1200, 3000, 600],
            [60, 120, 300, 60],
            [600, 1200, 3000, 600],
            [1200, 2400, 6000, 1200],
            [600, 1200, 3000, 600],
            [60, 120, 300, 60],
        ],
        dtype=float,
    )
    return OpTrace(kinds, counts, sample_period=60.0)
