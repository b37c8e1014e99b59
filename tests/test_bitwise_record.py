"""Results match the committed bit-identity record (tests/bitwise_record.py).

Bit for bit under the numpy version that made the record; under any other
numpy, whose np.sin may round the control differently, to 1e-12 relative
in the max norm of each array.
"""
import numpy as np
import pytest

from bitwise_record import PATH, compute_record


@pytest.fixture(scope="module")
def recorded():
    with np.load(PATH) as data:
        return {key: data[key] for key in data.files}


@pytest.fixture(scope="module")
def computed():
    return compute_record()


def test_record_covers_every_case(recorded, computed):
    assert sorted(computed) == sorted(k for k in recorded if k != "numpy_version")
    assert len(recorded["tracking:cost_history"]) == 45   # 44 updates
    assert sorted(k for k in recorded if k.startswith("diverges:")) == [
        f"diverges:bpr-343:{scheme}:{n}:1e-06"
        for scheme in ("muscl2", "upwind1") for n in (50, 64)]


def test_results_match_the_record(recorded, computed):
    bitwise = str(recorded["numpy_version"]) == np.__version__
    for key, value in computed.items():
        ref = recorded[key]
        assert value.shape == ref.shape, key
        if bitwise or key.startswith("diverges:"):
            assert np.array_equal(value, ref), key
        else:
            scale = float(np.max(np.abs(ref)))
            assert float(np.max(np.abs(value - ref))) <= 1e-12 * scale, key
