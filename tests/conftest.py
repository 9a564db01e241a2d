import pytest


@pytest.fixture
def replace_openblas(monkeypatch):
    """A function that puts a stand-in lookup in place of the verifier's
    `_bundled_openblas` and empties `_lapack`'s cache, so that every LAPACK
    routine is looked up again through the stand-in; the cache is emptied
    once more after the test."""
    from susyhier import verifier

    def replace(lookup):
        monkeypatch.setattr(verifier, "_bundled_openblas", lookup)
        verifier._lapack.cache_clear()

    yield replace
    verifier._lapack.cache_clear()
