import pytest


@pytest.fixture(scope="module")
def hypothesis_home(tmp_path_factory):
    """Keep Hypothesis's cache of constants found in the package source out of ./.hypothesis."""
    from hypothesis.configuration import set_hypothesis_home_dir

    set_hypothesis_home_dir(tmp_path_factory.mktemp("hypothesis"))
    yield
    set_hypothesis_home_dir(None)
