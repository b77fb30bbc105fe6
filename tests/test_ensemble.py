"""Tests for the divide-and-aggregate ensemble engine."""

import numpy as np
import pytest

from citkit.cit import CITestSpec, DataTriple
from citkit.ensemble import EnsembleConfig, ecit
from citkit.errors import DataError


class TestDegenerateSubset:
    def test_one_constant_subset_fails_the_run_and_names_it(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal((2000, 1))
        z[:40] = 1.0
        data = DataTriple(rng.standard_normal((2000, 1)), rng.standard_normal((2000, 1)), z)
        config = EnsembleConfig(n_k=40, partition_policy="sequential")
        with pytest.raises(DataError, match=r"^subtest 0 of 50: column 0 of z is constant"):
            ecit(data, CITestSpec(method="kcit"), config)
