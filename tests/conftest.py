import resource

import pytest

from primeforms.core import sieve
from primeforms.sieve_identity import certificate_sweep


@pytest.fixture(scope="session")
def table():
    """Full-size oracle: covers every sweep in the suite (p_100000 = 1299709)."""
    return sieve(2_000_000)


@pytest.fixture(scope="session")
def small_table():
    """Cheap oracle for exhaustive small-range checks."""
    return sieve(20_000)


@pytest.fixture(scope="session")
def certificates_500(table):
    """Exact certificates for n = 1..500, shared by the acceptance criteria."""
    violations = []
    reports = list(certificate_sweep(500, table, violations))
    assert violations == []
    return reports


@pytest.fixture
def capped_address_space():
    """A `preexec_fn` capping a child process's address space at 1 GiB.

    A table allocated past a missing resource check then fails in the child
    with `MemoryError` instead of taking the machine's memory.
    """

    def cap():
        _, hard = resource.getrlimit(resource.RLIMIT_AS)
        limit = 1 << 30 if hard == resource.RLIM_INFINITY else min(1 << 30, hard)
        resource.setrlimit(resource.RLIMIT_AS, (limit, hard))

    return cap
