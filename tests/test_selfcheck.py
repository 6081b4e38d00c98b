"""Each named selfcheck property as its own test item.  The property is
implemented once, in cafbifpn.selfcheck; the tests in the other files
keep only what a check cannot express (hypothesis draws, error paths,
tape-node counts and bit pins)."""

import pytest

from cafbifpn.selfcheck import CHECKS


@pytest.mark.parametrize("check", [fn for _, fn in CHECKS], ids=[name for name, _ in CHECKS])
def test_selfcheck_property(check):
    check()
