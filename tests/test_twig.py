"""The twig compiler's fragment: which filters get a positional join.

Which filter shapes :func:`compile_twig` accepts and which make it
return ``None`` — the compile-time half of the Bind engine's selector
(the other half, whether the target tree has an index, is
``tests/test_indexes.py``).  That the twig join then produces exactly
the oracle's bindings is ``tests/test_bind_engine.py``'s property.
"""

from repro.core.algebra.twig import CompiledTwig, compile_twig
from repro.model.filters import (
    FConst,
    FDescend,
    FElem,
    FRest,
    FStar,
    FVar,
    LabelRegex,
    LabelVar,
    felem,
)
from tests.test_bind_engine import WORKS_FILTERS


# ---------------------------------------------------------------------------
# the compiled fragment


class TestCompileFragment:
    def test_figure4_filter_compiles(self):
        twig = compile_twig(WORKS_FILTERS["figure4"])
        assert isinstance(twig, CompiledTwig)
        assert twig.variables == ("a", "t", "s", "si", "fields")

    def test_supported_shapes_compile(self):
        supported = [
            felem("a"),
            felem("a", var="x"),
            felem("a", felem("b", FVar("v"))),
            felem("a", FStar(felem("b", FVar("v")))),
            felem("a", felem("b", FConst("k"))),
            felem("a", FVar("v")),
            felem("a", FConst("k")),
            felem("a", FDescend(felem("b", FVar("v")))),
            felem("a", FDescend(FVar("v"))),
            felem("a", FDescend(FConst("k"))),
            felem("a", FStar(FVar("v")), FRest("r")),
        ]
        for flt in supported:
            assert compile_twig(flt) is not None, flt

    def test_unsupported_shapes_fall_back(self):
        unsupported = [
            FVar("v"),                                   # non-element root
            FDescend(felem("a", FVar("v"))),             # descend root
            FElem(LabelVar("l"), (FVar("v"),), None),    # label variable
            FElem(LabelRegex("a.*"), (FVar("v"),), None),  # label regex
            felem("a", FElem(LabelVar("l"), (), None)),  # labelvar item
            felem("a", FStar(FStar(FVar("v")))),         # nested star
            felem("a", FDescend(FDescend(FVar("v")))),   # nested descend
            felem("a", FStar(FRest("r"))),               # starred rest
        ]
        for flt in unsupported:
            assert compile_twig(flt) is None, flt
