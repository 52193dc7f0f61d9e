import pytest

from unramified import constructions, differentials
from unramified.algebras import Presentation, make_quotient
from unramified.fields import QQ
from unramified.polynomials import PolyRing


@pytest.fixture(scope="session")
def b5():
    """(B, f) for n = 5 over the rationals; shared because the local model is
    the most-reused object in the suite."""
    return constructions.gabber_B(5)


@pytest.fixture(scope="session")
def dual_numbers():
    ring = PolyRing(QQ, ("Z",))
    return make_quotient(Presentation(ring, (ring.variable("Z") ** 2,)))


@pytest.fixture
def kaehler_builds(monkeypatch) -> list:
    """The algebras whose differential module is built during the test, in
    order."""
    built = []

    class Counting(differentials.KaehlerModule):
        def __init__(self, algebra):
            built.append(algebra)
            super().__init__(algebra)

    monkeypatch.setattr(differentials, "KaehlerModule", Counting)
    return built
