"""The package's public surface."""

import recbench


def test_every_exported_name_resolves():
    missing = [name for name in recbench.__all__ if not hasattr(recbench, name)]
    assert missing == []
