"""The package's public surface."""

from __future__ import annotations

import sqgraphs


def test_every_export_resolves():
    missing = [name for name in sqgraphs.__all__ if not hasattr(sqgraphs, name)]
    assert missing == []
