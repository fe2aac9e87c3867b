# the pinned run, made once per session for the tests of every module
from pinned import pinned_runs  # noqa: F401
