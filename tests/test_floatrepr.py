"""The block float formatter renders every double exactly as Python's repr does."""

import hashlib
import importlib.util
from pathlib import Path

import numpy as np

from photonflux.floatrepr import csv_block

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "check_float_repr.py"
# sha256 of repr's lines for the 10**6 patterns of random_values(10**6, seed=1018), from
#   python scripts/check_float_repr.py --count 1000000 --seed 1018 --digest
RANDOM_REPR_SHA256 = "29127fe452ddc0570e636fb8cd328ed0a1d83115883b1ec4bc7a28cb6e0949fa"


def _check_script():
    spec = importlib.util.spec_from_file_location("check_float_repr", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_csv_block_equals_repr_on_edge_classes_and_random_bit_patterns():
    check = _check_script()
    assert check.mismatches(check.edge_values()) == []
    digest = hashlib.sha256()
    for chunk in check.random_values(10**6, seed=1018):
        digest.update(csv_block(chunk.reshape(-1, 1)))
    if digest.hexdigest() != RANDOM_REPR_SHA256:
        # repr runs only on failure, to name the first mismatch
        for chunk in check.random_values(10**6, seed=1018):
            assert check.mismatches(chunk) == []
        assert digest.hexdigest() == RANDOM_REPR_SHA256, "formatter equals repr: the recorded digest is stale"


def test_csv_block_rows_and_columns():
    block = np.array([[1.0, -0.0, np.nan, 0.1], [1e16, 1e-05, -np.inf, 123456.789e3]])
    assert csv_block(block) == b"1.0,-0.0,nan,0.1\n1e+16,1e-05,-inf,123456789.0\n"
    assert csv_block(np.empty((0, 3))) == b""
