"""The package's export list."""

from collections import Counter

import hompoly


def test_every_export_resolves_once():
    assert [name for name, n in Counter(hompoly.__all__).items() if n > 1] == []
    assert [name for name in hompoly.__all__ if not hasattr(hompoly, name)] == []
