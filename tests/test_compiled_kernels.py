"""Compiled predicate kernels vs the interpretive oracle.

Every test here is a differential: the compiled closures of
:func:`repro.core.algebra.compiled.compile_predicate` must reproduce
``Expr.evaluate`` exactly — same values, and the same error messages on
the same inputs.  (The filter kernels' differential against
``FilterMatcher`` is ``tests/test_bind_engine.py``'s property.)
"""

import pytest

from repro.errors import EvaluationError
from repro.core.algebra.compiled import compile_predicate
from repro.core.algebra.expressions import (
    BoolAnd,
    BoolNot,
    BoolOr,
    Cmp,
    Const,
    FunCall,
    Var,
)
from repro.core.algebra.tab import Row
from repro.model.filters import MissingValue
from repro.model.trees import atom_leaf


class TestPredicateDifferential:
    ROWS = [
        Row(("s", "p"), ("Impressionist", 1000)),
        Row(("s", "p"), ("Cubist", 3000000)),
        Row(("s", "p"), (MissingValue(), 5)),
        Row(("s", "p"), (atom_leaf("style", "Impressionist"), 2.5)),
    ]

    PREDICATES = [
        Cmp("=", Var("s"), Const("Impressionist")),
        Cmp("!=", Var("s"), Const("Impressionist")),
        Cmp("<", Var("p"), Const(2000000.0)),
        BoolAnd([
            Cmp("=", Var("s"), Const("Impressionist")),
            Cmp("<", Var("p"), Const(2000)),
        ]),
        BoolOr([
            Cmp("=", Var("s"), Const("Cubist")),
            BoolNot(Cmp(">=", Var("p"), Const(100))),
        ]),
    ]

    @pytest.mark.parametrize("index", range(len(PREDICATES)))
    def test_compiled_equals_interpreted(self, index):
        predicate = self.PREDICATES[index]
        kernel = compile_predicate(predicate)
        functions = {}
        for row in self.ROWS:
            try:
                interpreted = predicate.evaluate(row, functions)
            except EvaluationError as error:
                with pytest.raises(EvaluationError) as compiled_error:
                    kernel(row, functions)
                assert str(compiled_error.value) == str(error)
            else:
                assert kernel(row, functions) == interpreted

    def test_incomparable_ordering_message_matches(self):
        predicate = Cmp("<", Var("s"), Const(5))
        row = Row(("s",), ("text",))
        with pytest.raises(EvaluationError) as interpreted:
            predicate.evaluate(row, {})
        with pytest.raises(EvaluationError) as compiled:
            compile_predicate(predicate)(row, {})
        assert str(compiled.value) == str(interpreted.value)

    def test_function_calls_dispatch_identically(self):
        predicate = FunCall("is_big", [Var("p")])
        functions = {"is_big": lambda p: p > 100}
        kernel = compile_predicate(predicate)
        for row in (Row(("p",), (5,)), Row(("p",), (500,))):
            assert kernel(row, functions) == predicate.evaluate(row, functions)

    def test_missing_function_message_matches(self):
        predicate = FunCall("nope", [Var("p")])
        row = Row(("p",), (1,))
        with pytest.raises(EvaluationError) as interpreted:
            predicate.evaluate(row, {})
        with pytest.raises(EvaluationError) as compiled:
            compile_predicate(predicate)(row, {})
        assert str(compiled.value) == str(interpreted.value)
