"""The package's public name list."""

import texcorpus


def test_all_is_sorted_and_unique():
    assert list(texcorpus.__all__) == sorted(set(texcorpus.__all__))


def test_every_exported_name_resolves():
    for name in texcorpus.__all__:
        assert hasattr(texcorpus, name), name
