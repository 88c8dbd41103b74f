"""A shared-memory export that fails the way a full ``/dev/shm`` does.

A plain module rather than part of ``conftest.py``: test modules import
it by name, and other ``conftest`` modules in the repository would
shadow that name.
"""

from __future__ import annotations

import errno
import os
from unittest import mock


def fail_shm_export():
    """Make reserving a new shared-memory block fail with ``ENOSPC``, as
    ``posix_fallocate`` does on a full ``/dev/shm``.

    :meth:`ColumnStore.to_shared` then creates its block, fails to back
    it, unlinks it and raises ``OSError``, so process fan-out takes the
    pickled fallback. Returns the patch; entered, it yields the mock,
    which counts export attempts.
    """
    return mock.patch.object(
        os,
        "posix_fallocate",
        side_effect=OSError(errno.ENOSPC, "No space left on device"),
    )
