"""The paper's Section 4.3 claims, as an executable regression gate.

If a protocol or model change breaks the reproduction, this is the test
that says so -- with the claim's own evidence string in the failure.
"""

import pytest

from repro.eval.claims import ALL_CHECKS, check_all
from repro.eval.report import verdict_table


@pytest.fixture(scope="module")
def results():
    return check_all()


@pytest.mark.parametrize("check", ALL_CHECKS, ids=lambda c: c.__name__)
def test_each_claim_reproduces(check, results):
    result = results[ALL_CHECKS.index(check)]
    assert result.holds, f"claim {result.number} failed: {result.evidence}"


def test_formatting_lists_every_claim(results):
    text = "\n".join(verdict_table(results))
    assert "**no**" not in text
    for result in results:
        assert f"| {result.number} | {result.claim} | yes (" in text


def test_claim_numbers_are_dense_and_ordered(results):
    assert [r.number for r in results] == list(range(1, 9))
