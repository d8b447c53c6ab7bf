"""Structured run logging for the real-time side (the ``repro-bench`` CLI).

Simulated time is traced (:mod:`repro.obs.trace`); *wall-clock* events —
scenario progress, per-unit completions, notes about forced settings — are
logged through the stdlib :mod:`logging` machinery under the ``repro``
logger namespace.

Every record carries an ``event`` slug plus structured ``fields``.  The
default console formatter renders a human-readable line (so ``repro-bench``
output looks exactly like its historical prints), while ``--log-json``
switches the handler to one JSON object per line for machine consumption.
``configure_logging`` is idempotent: it replaces handlers it installed
earlier, so repeated CLI invocations in one process (tests) never stack
duplicate handlers.
"""

from __future__ import annotations

import json
import logging
import sys
from typing import Dict, Optional, TextIO

__all__ = ["RunLogger", "configure_logging", "get_run_logger"]

ROOT = "repro"

_LEVELS = {
    "debug": logging.DEBUG,
    "info": logging.INFO,
    "warning": logging.WARNING,
    "error": logging.ERROR,
}


class JsonLineFormatter(logging.Formatter):
    """One JSON object per record: level, logger, event, message, fields."""

    def format(self, record: logging.LogRecord) -> str:
        payload: Dict[str, object] = {
            "level": record.levelname.lower(),
            "logger": record.name,
            "event": getattr(record, "event", None) or record.getMessage(),
            "message": record.getMessage(),
        }
        fields = getattr(record, "fields", None)
        if fields:
            payload["fields"] = fields
        return json.dumps(payload, sort_keys=True, default=str)


class HumanFormatter(logging.Formatter):
    """Message-only console rendering (call sites craft the full line)."""

    def format(self, record: logging.LogRecord) -> str:
        message = record.getMessage()
        if record.levelno >= logging.WARNING:
            return f"{record.levelname.lower()}: {message}"
        return message


class _StdoutHandler(logging.StreamHandler):
    """StreamHandler that resolves ``sys.stdout`` at *emit* time.

    Binding the stream at construction goes stale when stdout is swapped
    (pytest's capsys, redirects); resolving per record always writes to the
    current stdout.
    """

    @property
    def stream(self) -> TextIO:
        return sys.stdout

    @stream.setter
    def stream(self, value: TextIO) -> None:
        pass  # always dynamic


class RunLogger:
    """Thin wrapper pairing an ``event`` slug with key=value fields."""

    def __init__(self, name: str) -> None:
        self.logger = logging.getLogger(name)

    def info(self, event: str, message: Optional[str] = None, **fields) -> None:
        if not self.logger.isEnabledFor(logging.INFO):
            return
        if message is None:
            rendered = " ".join(f"{k}={v}" for k, v in fields.items())
            message = f"{event} {rendered}".strip()
        self.logger.info(message, extra={"event": event, "fields": fields})


def get_run_logger(name: str) -> RunLogger:
    """A :class:`RunLogger` under the ``repro`` namespace."""
    if name != ROOT and not name.startswith(ROOT + "."):
        name = f"{ROOT}.{name}"
    return RunLogger(name)


def configure_logging(
    level: str = "info",
    json_lines: bool = False,
    quiet: bool = False,
    stream: Optional[TextIO] = None,
) -> logging.Logger:
    """Install (or replace) the console handler on the ``repro`` logger.

    ``quiet`` raises the console threshold to WARNING — progress and status
    records stay recorded (other handlers still see them) but the console
    only shows problems.  ``stream`` pins the handler to a specific stream
    (tests); the default follows ``sys.stdout`` dynamically.
    """
    logger = logging.getLogger(ROOT)
    for handler in list(logger.handlers):
        if getattr(handler, "_repro_runlog", False):
            logger.removeHandler(handler)
    handler: logging.Handler
    handler = _StdoutHandler() if stream is None else logging.StreamHandler(stream)
    handler._repro_runlog = True  # type: ignore[attr-defined]
    handler.setFormatter(JsonLineFormatter() if json_lines else HumanFormatter())
    if quiet:
        handler.setLevel(logging.WARNING)
    logger.addHandler(handler)
    logger.setLevel(_LEVELS.get(level, logging.INFO))
    logger.propagate = False
    return logger
