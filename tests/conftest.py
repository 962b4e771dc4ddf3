import pytest
from hypothesis import settings

from pgs.constructions import LieBCHGroup, SemidirectGroup
from pgs.groups import DirectProductGroup, QuotientGroup

# Deterministic property tests: the same examples on every run, no example
# database, and no per-example deadline (group sizes vary widely).
settings.register_profile("pgs", derandomize=True, deadline=None, database=None)
settings.load_profile("pgs")


@pytest.fixture
def native_multiplies(monkeypatch):
    """The list every SemidirectGroup and LieBCHGroup multiply appends to;
    clear it to count from that point on."""
    calls = []
    for cls in (SemidirectGroup, LieBCHGroup):
        def counting(self, a, b, real=cls.multiply):
            calls.append(1)
            return real(self, a, b)

        monkeypatch.setattr(cls, "multiply", counting)
    return calls


@pytest.fixture
def tuple_multiplies(monkeypatch):
    """The list every DirectProductGroup and QuotientGroup multiply, the
    tuple arithmetic of composite groups, appends to."""
    calls = []
    for cls in (DirectProductGroup, QuotientGroup):
        def counting(self, a, b, real=cls.multiply):
            calls.append(1)
            return real(self, a, b)

        monkeypatch.setattr(cls, "multiply", counting)
    return calls


@pytest.fixture
def index_products(monkeypatch):
    """The list every ``DirectProductGroup._index_product`` call, a product's
    multiply of two indices, appends to."""
    calls = []

    def counting(self, i, j, real=DirectProductGroup._index_product):
        calls.append(1)
        return real(self, i, j)

    monkeypatch.setattr(DirectProductGroup, "_index_product", counting)
    return calls


@pytest.fixture
def quotient_index_products(monkeypatch):
    """The list every ``QuotientGroup._index_product`` call, a quotient's
    multiply of two indices, appends to."""
    calls = []

    def counting(self, i, j, real=QuotientGroup._index_product):
        calls.append(1)
        return real(self, i, j)

    monkeypatch.setattr(QuotientGroup, "_index_product", counting)
    return calls


@pytest.fixture
def quotient_inverts(monkeypatch):
    """The list every ``QuotientGroup.invert`` call appends to."""
    calls = []

    def counting(self, a, real=QuotientGroup.invert):
        calls.append(1)
        return real(self, a)

    monkeypatch.setattr(QuotientGroup, "invert", counting)
    return calls


@pytest.fixture
def inverted(monkeypatch):
    """inverted(G): the list of the elements G.invert is called on from
    then on, through G's own attribute."""

    def watch(G):
        calls = []

        def counting(a, real=G.invert):
            calls.append(a)
            return real(a)

        monkeypatch.setattr(G, "invert", counting)
        return calls

    return watch
