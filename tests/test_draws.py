"""What a derandomized property test draws depends only on the test: the
pool of local literal constants that Hypothesis mixes into generation is
pinned empty by tests/conftest.py."""

import importlib
import sys

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.internal.conjecture import providers

from tests.conftest import NO_LOCAL_CONSTANTS


def draws():
    """The examples one derandomized test draws, as reprs (NaN included)."""
    seen = []

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(st.floats() | st.integers() | st.text(max_size=6))
    def record(x):
        seen.append(repr(x))

    record()
    return seen


def test_the_local_constant_pool_is_pinned_empty():
    """The hook that collects local constants still exists, and both it and
    a provider's cached pool are the empty pin: if a later Hypothesis moves
    the hook, this fails rather than the pin silently doing nothing."""
    assert callable(getattr(providers, "_get_local_constants", None))
    pool = providers._get_local_constants()
    assert pool is NO_LOCAL_CONSTANTS
    assert not (pool.integers or pool.floats or pool.bytes or pool.strings)
    assert providers.HypothesisProvider(None)._local_constants is pool


def test_a_new_local_module_leaves_the_draws_unchanged(tmp_path):
    """Importing a local module full of new literals changes nothing that a
    derandomized test draws."""
    before = draws()
    (tmp_path / "literal_pool_probe.py").write_text(
        "VALUES = (1.2345e-67, -9.75e201, 987654321, -4242, 'zq~', b'\\x07')\n")
    sys.path.insert(0, str(tmp_path))
    try:
        importlib.import_module("literal_pool_probe")
        after = draws()
    finally:
        sys.path.remove(str(tmp_path))
        sys.modules.pop("literal_pool_probe", None)
    assert after == before
