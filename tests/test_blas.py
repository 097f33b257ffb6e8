import pytest

from fraccond import _blas
from fraccond._blas import one_blas_thread


def counts():
    """Thread counts of the loaded OpenBLAS copies, read back."""
    copies = _blas._openblas_copies()
    assert copies, "no OpenBLAS thread setter found in numpy"
    return [get() for get, _ in copies]


class TestBlasThreads:
    def test_caps_then_restores(self):
        before = counts()
        with one_blas_thread() as applied:
            assert applied is True
            assert counts() == [1] * len(before)
        assert counts() == before

    def test_restores_after_exception(self):
        before = counts()
        with pytest.raises(KeyError):
            with one_blas_thread():
                assert counts() == [1] * len(before)
                raise KeyError("body failed")
        assert counts() == before

    def test_nested_scopes_restore_in_order(self):
        before = counts()
        with one_blas_thread():
            with one_blas_thread():
                assert counts() == [1] * len(before)
            assert counts() == [1] * len(before)
        assert counts() == before

    def test_no_setter_found_runs_body_unchanged(self, monkeypatch):
        before = counts()
        monkeypatch.setattr(_blas, "_openblas_copies", lambda: [])
        ran = []
        with one_blas_thread() as applied:
            ran.append(True)
        assert applied is False and ran == [True]
        monkeypatch.undo()
        assert counts() == before
