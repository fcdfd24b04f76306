"""Release acceptance suite: one test per criterion, at stated tolerances.

Each test prints its pass/fail line (run pytest with -s or check the
captured output on failure).  Every criterion is expected to pass; the
docstrings in ``brwlab.acceptance`` say what each one measures and why
(criterion 6 fits count growth across generations, criterion 8 reads
the anomalous eta front from the coupled front recursion).
"""

import pytest

from brwlab import acceptance


@pytest.mark.parametrize("number", range(1, len(acceptance.ALL_CHECKS) + 1),
                         ids=[check.__name__.removeprefix("check_")
                              for check, _, _ in acceptance.ALL_CHECKS])
def test_criterion(number):
    result = acceptance.run_check(number)
    print(result.line())
    for line in result.detail:
        print("   ", line)
    assert result.runtime < result.budget_seconds, \
        f"runtime {result.runtime:.1f}s exceeded budget {result.budget_seconds}s"
    assert result.passed, "; ".join([result.line()] + result.detail)
