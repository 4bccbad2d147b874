"""The package's public API: ``nlselect.__all__`` and the package namespace
name the same objects."""

import types

import nlselect


def test_all_matches_public_names():
    missing = [name for name in nlselect.__all__ if not hasattr(nlselect, name)]
    assert missing == []
    public = {name for name, value in vars(nlselect).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(nlselect.__all__)
    assert len(nlselect.__all__) == len(set(nlselect.__all__))
