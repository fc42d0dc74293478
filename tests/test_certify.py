import numpy as np
import pytest

from xylab import certify
from xylab import ed_oracle as ed

from conftest import CORNERS, corner_chain


@pytest.mark.parametrize("n", [1, 2, 5, 8])
@pytest.mark.parametrize("corner", CORNERS)
def test_every_check_passes_at_the_degenerate_corners(rng, n, corner):
    # the per-sector oracle certifies the free-fermion layer within the
    # suite's own tolerances on every corner chain, the clean chain's
    # cross-sector degeneracies included
    errors = certify.chain_errors(corner_chain(rng, n, corner), ed.all_c(n),
                                  ed.parity_sectors(n), ed.number_sectors(n))
    assert set(errors) | {"car"} == set(certify.TOLERANCES)
    assert all(np.isfinite(v) and v <= certify.TOLERANCES[k] for k, v in errors.items()), errors
