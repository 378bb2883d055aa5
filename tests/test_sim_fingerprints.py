"""The six sim fingerprints, pinned.

``benchmarks/fingerprint_sim_records.py`` hashes what the deterministic
simulator records for six representative experiments; the values it
pins were taken before the cluster drivers were merged, so any refactor
that changes one byte of round-stepped behaviour — a message, a memory
sample, a planner choice — fails here instead of silently shifting
every downstream table.
"""

import importlib.util
import pathlib

import pytest

_SCRIPT = (
    pathlib.Path(__file__).resolve().parent.parent
    / "benchmarks"
    / "fingerprint_sim_records.py"
)
_spec = importlib.util.spec_from_file_location("fingerprint_sim_records", _SCRIPT)
fingerprints = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fingerprints)


def test_every_fingerprint_is_pinned():
    assert set(fingerprints.FINGERPRINTS) == set(fingerprints.PINNED)
    assert len(fingerprints.PINNED) == 6


@pytest.mark.parametrize("name", sorted(fingerprints.PINNED))
def test_sim_fingerprint_is_byte_identical(name):
    assert fingerprints.FINGERPRINTS[name]() == fingerprints.PINNED[name]
