"""Every golden case of test_golden.py, run on the naive medium, gives its pinned digest.

The goldens pin the fast medium's output; this module checks that the naive
medium, one engine event per state change, gives the same bytes. Its name
keeps it out of a plain pytest run; run it with
`python -m pytest tests/oracle_goldens.py`.
"""

import pytest

from motesim import harness

from naive_medium import NaiveMedium, NaiveNode
from test_golden import (  # noqa: F401  collected here, on the naive medium
    test_many_sender_cases_match_golden, test_mqtt_keepalive_ping_run_matches_golden,
    test_same_tick_duty_cases_match_golden, test_trace_csvs_match_golden)


@pytest.fixture(autouse=True)
def naive_medium(monkeypatch):
    monkeypatch.setattr(harness, "Node", NaiveNode)
    monkeypatch.setattr(harness, "RadioMedium", NaiveMedium)
