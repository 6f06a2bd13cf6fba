import spincorr


def test_every_exported_name_resolves():
    missing = [name for name in spincorr.__all__ if not hasattr(spincorr, name)]
    assert missing == []


def test_exported_names_are_unique():
    assert len(spincorr.__all__) == len(set(spincorr.__all__))
