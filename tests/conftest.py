import pytest

from fmash import cli


@pytest.fixture(autouse=True)
def _empty_head_memo():
    """Start every test with no served head built, so a test that checks how
    ``recommend``/``generate`` load a checkpoint runs that load instead of
    reusing a head an earlier test built from identical bytes."""
    cli._HEAD_MEMO.clear()
    yield
