import pytest

from wplab import lab

# the pinned run, made once per session for the tests of every module
from pinned import pinned_runs  # noqa: F401


@pytest.fixture(scope="session")
def kerr_3000(tmp_path_factory):
    """The series file ``wplab simulate --model kerr --nu 4 --steps 3000``
    writes, for tests that only read it.  Its delay search takes lag 30,
    the largest it searches, and FNN then chooses d = 2."""
    path = tmp_path_factory.mktemp("kerr") / "kerr_series.wprs"
    params = {"chi": 1.0, "chi_prime": 0.01}
    return lab.simulate("kerr", params, (4.0, 0), 1e-3, 3000, path)
