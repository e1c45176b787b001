import pytest

from dunklsphere import DunklContext, fundamentality, sphere

# contexts without per-axis kappas, hence without an explicit kernel
# translate: CLI context flags and DunklContext.create arguments
_UNSUPPORTED = {
    "b3": (["--family", "b", "-d", "3", "--kappa", "1,1"], ("b", 3, (1, 1))),
    "b5": (["--family", "b", "-d", "5", "--kappa", "1,1"], ("b", 5, (1, 1))),
    "i2m5": (["--family", "i2", "--order", "5", "--kappa", "1"], ("i2", 2, 1, 5)),
}


@pytest.fixture(params=sorted(_UNSUPPORTED))
def unsupported(request):
    """(CLI flags, context) of B3 and B5 at kappa (1, 1) and I2(5) at 1."""
    flags, args = _UNSUPPORTED[request.param]
    return flags, DunklContext.create(*args)


@pytest.fixture
def nothing_built(monkeypatch):
    """Make every sphere grid, node set and harmonic basis raise, so a call
    that ends with another outcome has built none of them."""
    def built(*args, **kwargs):
        raise RuntimeError("a grid, node set or harmonic basis was built")
    for mod, name in ((sphere, "_tensor_grid"), (fundamentality, "node_set"),
                      (fundamentality, "harmonic_basis")):
        monkeypatch.setattr(mod, name, built)
