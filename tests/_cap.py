"""Run a block of a test under a given table cap.

FROBKIT_TABLE_CAP is the only way to set the cap, and every function that
checks it reads the variable on each call, so a test sets it around the
calls it makes.
"""

from __future__ import annotations

import contextlib

import pytest

from frobkit.semigroup import TABLE_CAP_ENV


@contextlib.contextmanager
def capped(cap: int | None):
    """FROBKIT_TABLE_CAP = cap inside the block; unset (the default) for None."""
    with pytest.MonkeyPatch.context() as m:
        if cap is None:
            m.delenv(TABLE_CAP_ENV, raising=False)
        else:
            m.setenv(TABLE_CAP_ENV, str(cap))
        yield
