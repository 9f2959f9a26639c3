"""The shared CLI logging configuration (satellite of the telemetry PR)."""

import io
import logging
import sys

import pytest

from repro.telemetry.logging_setup import (
    LOG_FORMAT,
    VERBOSITY_LEVELS,
    setup_logging,
)


@pytest.fixture(autouse=True)
def _restore_repro_logger():
    logger = logging.getLogger("repro")
    saved = (list(logger.handlers), logger.level, logger.propagate)
    yield
    logger.handlers[:] = saved[0]
    logger.setLevel(saved[1])
    logger.propagate = saved[2]


def test_verbosity_levels_map_to_stdlib():
    assert VERBOSITY_LEVELS == {"quiet": logging.WARNING,
                                "info": logging.INFO,
                                "debug": logging.DEBUG}


def test_setup_configures_repro_logger_not_root():
    root_handlers = list(logging.getLogger().handlers)
    logger = setup_logging("debug")
    assert logger.name == "repro"
    assert logger.level == logging.DEBUG
    assert logger.propagate is False
    assert logging.getLogger().handlers == root_handlers


def test_setup_is_idempotent():
    setup_logging("info")
    logger = setup_logging("info")
    assert len(logger.handlers) == 1


def test_unknown_verbosity_raises():
    with pytest.raises(ValueError, match="unknown verbosity"):
        setup_logging("shouting")


def test_messages_use_the_shared_format():
    stream = io.StringIO()
    logger = setup_logging("info", stream=stream)
    logging.getLogger("repro.experiments.cli").info("hello %s", "world")
    del logger
    line = stream.getvalue()
    assert "INFO" in line
    assert "repro.experiments.cli: hello world" in line
    assert "%(asctime)s" in LOG_FORMAT  # every line is timestamped


def test_quiet_suppresses_info():
    stream = io.StringIO()
    setup_logging("quiet", stream=stream)
    logging.getLogger("repro.x").info("invisible")
    logging.getLogger("repro.x").warning("visible")
    assert "invisible" not in stream.getvalue()
    assert "visible" in stream.getvalue()


@pytest.mark.parametrize("name, captured_as", [("stdout", "out"),
                                               ("stderr", "err")])
def test_process_stream_is_looked_up_per_record(name, captured_as, capsys):
    """A capture swapped in while logging was set up, then closed, must not
    swallow later records: they go to the stream current at emit time."""
    original = getattr(sys, name)
    swapped = io.StringIO()
    setattr(sys, name, swapped)
    try:
        setup_logging("info", stream=None if name == "stdout" else swapped)
    finally:
        swapped.close()
        setattr(sys, name, original)
    logging.getLogger("repro.x").warning("still heard")
    captured = capsys.readouterr()
    assert "repro.x: still heard" in getattr(captured, captured_as)
    assert "Logging error" not in captured.err
