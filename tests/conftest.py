"""Every test starts with empty ``svd_ordered`` and ``direction_blocks``
memos, so no test sees a decomposition that an earlier one stored."""

import pytest

from specvar import matrix_core, sv_calculus


@pytest.fixture(autouse=True)
def _empty_memos():
    matrix_core._LAST_SVD.entry = None
    sv_calculus._LAST_BLOCKS.entry = None
