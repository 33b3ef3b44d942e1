"""Stub kept for one reader: ``perfbench/harness.py`` records
``posting_seen()`` in its environment block.  Sweeps have no
shared-memory transport, so it is always ``False``."""

__all__ = ["posting_seen"]


def posting_seen() -> bool:
    """Whether a sweep posted inputs through shared memory: never."""
    return False
