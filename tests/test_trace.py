"""`trace.stage`: one line per stage, logged as the stage ends."""

import logging
import re

import pytest

from nerrank.trace import stage


def test_a_stage_logs_its_seconds_then_its_counts_in_order(caplog):
    caplog.set_level(logging.INFO, logger="nerrank.trace")
    with stage("fold 2/3", trained=7) as counts:
        counts["decoded"] = 4
        counts["loss"] = 2 / 3
        assert caplog.records == []
    [record] = caplog.records
    assert record.name == "nerrank.trace"
    assert re.fullmatch(
        r"fold 2/3: \d+\.\d{3} s, trained=7, decoded=4, loss=0\.666667", record.getMessage()
    )


def test_a_stage_that_raises_logs_nothing(caplog):
    caplog.set_level(logging.INFO, logger="nerrank.trace")
    with pytest.raises(KeyError):
        with stage("doomed", items=1):
            raise KeyError("x")
    assert caplog.records == []
