import ccepanel as cp


def test_public_names_resolve():
    # a name removed from the package must leave __all__ too
    assert len(cp.__all__) == len(set(cp.__all__))
    assert [name for name in cp.__all__ if not hasattr(cp, name)] == []
