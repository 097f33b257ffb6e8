import pytest

from fraccond import _blas
from fraccond._blas import blas_thread_count, blas_threads


def counts():
    """Thread counts of the loaded OpenBLAS copies, read back."""
    copies = _blas._openblas_copies()
    assert copies, "no OpenBLAS thread setter found in numpy"
    return [get() for get, _ in copies]


class TestBlasThreads:
    def test_caps_then_restores(self):
        before = counts()
        with blas_threads(1) as applied:
            assert applied is True
            assert counts() == [1] * len(before)
        assert counts() == before

    def test_restores_after_exception(self):
        before = counts()
        with pytest.raises(KeyError):
            with blas_threads(1):
                raise KeyError("body failed")
        assert counts() == before

    def test_never_raises_a_count(self):
        before = counts()
        with blas_threads(10**6) as applied:
            assert applied is True
            assert counts() == before
        assert counts() == before

    def test_nested_scopes_restore_in_order(self):
        before = counts()
        with blas_threads(10**6):
            with blas_threads(1):
                assert counts() == [1] * len(before)
            assert counts() == before
        assert counts() == before

    def test_no_setter_found_runs_body_unchanged(self, monkeypatch):
        before = counts()
        monkeypatch.setattr(_blas, "_openblas_copies", lambda: [])
        ran = []
        with blas_threads(1) as applied:
            ran.append(True)
        assert applied is False and ran == [True]
        monkeypatch.undo()
        assert counts() == before

    def test_thread_count_follows_the_cap(self, monkeypatch):
        assert blas_thread_count() == min(counts())
        with blas_threads(1):
            assert blas_thread_count() == 1
        assert blas_thread_count() == min(counts())
        # a count that cannot be read allows one thread, never more
        monkeypatch.setattr(_blas, "_openblas_copies", lambda: [])
        assert blas_thread_count() == 1

    @pytest.mark.parametrize("n", [0, -1])
    def test_rejects_cap_below_one(self, n):
        with pytest.raises(ValueError, match="must be >= 1"):
            with blas_threads(n):
                pass
