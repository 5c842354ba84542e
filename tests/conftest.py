from collections import Counter

import pytest

from millrank import (
    RULES,
    enumerate_rankings,
    independence_report,
    prop1_report,
    prop3_matrix,
    theorem1_probe,
)


@pytest.fixture(scope="session")
def all_n2():
    return list(enumerate_rankings(2))


@pytest.fixture(scope="session")
def all_n3():
    return list(enumerate_rankings(3))


@pytest.fixture(scope="session")
def plurality_probe_n3():
    return theorem1_probe("plurality", 3)


@pytest.fixture(scope="session")
def matrix_n3():
    return prop3_matrix(3)


@pytest.fixture(scope="session")
def independence_n4():
    return independence_report(4)


@pytest.fixture(scope="session")
def prop1_n3():
    return prop1_report(3)


@pytest.fixture
def rule_calls(monkeypatch):
    """Counter of (rule id, ranking classes) over the test's calls of every RULES entry."""
    calls = Counter()
    for rule_id, rule in list(RULES.items()):

        def counted(ranking, rule_id=rule_id, rule=rule):
            calls[rule_id, ranking.classes] += 1
            return rule(ranking)

        monkeypatch.setitem(RULES, rule_id, counted)
    return calls
