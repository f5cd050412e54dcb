"""One shared :class:`DataProvider` for every test that reads driver rows.

``experiment(key, quick)`` runs the registered driver
(:data:`repro.analysis.figures.EXPERIMENT_DRIVERS`) once per session over
a scratch result store, so the shape tests of ``test_experiments.py``
and the claims of ``test_paper_claims.py`` read the same rows and no
grid is computed twice.
"""

from __future__ import annotations

import pytest

from repro.analysis.dataprovider import DataProvider
from repro.analysis.figures import EXPERIMENT_DRIVERS
from repro.store import ResultStore


@pytest.fixture(scope="session")
def provider(tmp_path_factory):
    return DataProvider(store=ResultStore(tmp_path_factory.mktemp("store")))


@pytest.fixture(scope="session")
def experiment(provider):
    """``experiment(key, quick)`` -> the driver's rows, computed once."""
    results = {}

    def run(key, quick=True):
        if (key, quick) not in results:
            results[key, quick] = EXPERIMENT_DRIVERS[key](provider, quick)
            # Every point is in the store now; the in-process compile
            # memo (~27 MB a design point) would otherwise keep all of
            # them alive -- about 2 GB over both scales.
            provider._compiled.clear()
        return results[key, quick]

    return run
