"""Shared stdlib-logging configuration for the repro CLIs.

One formatter for every tool, so ad-hoc ``print`` diagnostics in experiment
scripts can become ``logging`` calls without each script inventing its own
format.  The ``repro`` logger hierarchy is configured (never the root
logger), so embedding applications keep control of their own logging.
"""

from __future__ import annotations

import logging
import sys

#: The one format every repro CLI shares.
LOG_FORMAT = "%(asctime)s %(levelname)-7s %(name)s: %(message)s"
DATE_FORMAT = "%H:%M:%S"

#: CLI verbosity names -> stdlib levels.
VERBOSITY_LEVELS = {
    "quiet": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}


class _ProcessStreamHandler(logging.StreamHandler):
    """Writes to ``sys.stdout`` or ``sys.stderr`` as it is at emit time, so
    a capture swapped in at setup and closed since loses no record."""

    def __init__(self, name: str):
        logging.Handler.__init__(self)
        self._name = name

    @property
    def stream(self):
        return getattr(sys, self._name)


def setup_logging(verbosity: str = "info", stream=None) -> logging.Logger:
    """Configure the ``repro`` logger for a CLI invocation.

    Logs go to *stream*, by default standard output.  The process's own
    standard output or error is looked up at each record, so a later swap
    of ``sys.stdout``/``sys.stderr`` is followed; any other stream is kept.

    Idempotent: prior handlers installed by this function are replaced, so
    repeated ``main()`` calls (tests, notebooks) never duplicate output.
    Returns the configured logger.
    """
    try:
        level = VERBOSITY_LEVELS[verbosity]
    except KeyError:
        raise ValueError(
            f"unknown verbosity {verbosity!r}; choose from "
            f"{sorted(VERBOSITY_LEVELS)}"
        ) from None
    logger = logging.getLogger("repro")
    for handler in list(logger.handlers):
        logger.removeHandler(handler)
    if stream is None or stream is sys.stdout:
        handler = _ProcessStreamHandler("stdout")
    elif stream is sys.stderr:
        handler = _ProcessStreamHandler("stderr")
    else:
        handler = logging.StreamHandler(stream)
    handler.setFormatter(logging.Formatter(LOG_FORMAT, datefmt=DATE_FORMAT))
    logger.addHandler(handler)
    logger.setLevel(level)
    logger.propagate = False
    return logger
