"""The package's public export list."""

import knowmap


def test_every_exported_name_resolves_once():
    assert [name for name in knowmap.__all__ if not hasattr(knowmap, name)] == []
    assert len(knowmap.__all__) == len(set(knowmap.__all__))
