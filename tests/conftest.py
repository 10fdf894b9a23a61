import pytest

from tourneykit import all_classes


@pytest.fixture(scope="session")
def classes_by_n():
    """Every unlabelled tournament up to 7 vertices, as Tournament values."""
    table = all_classes(7)
    return {n: table.members(n) for n in table.levels()}


@pytest.fixture(scope="session")
def all_classes_8():
    """The extension BFS's table of every unlabelled tournament up to 8
    vertices."""
    return all_classes(8)
