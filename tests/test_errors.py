"""The exception hierarchy: one base class to catch at the boundary."""

import pytest

from repro import errors


class TestHierarchy:
    def test_everything_derives_from_yat_error(self):
        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                assert issubclass(obj, errors.YatError), name

    def test_subsystem_groupings(self):
        assert issubclass(errors.BindError, errors.AlgebraError)
        assert issubclass(errors.OqlSyntaxError, errors.OqlError)
        assert issubclass(errors.OqlError, errors.SourceError)
        assert issubclass(errors.UnknownDocumentError, errors.MediatorError)
        assert issubclass(errors.UnknownVariableError, errors.EvaluationError)

    def test_yatl_syntax_error_carries_position(self):
        error = errors.YatlSyntaxError("bad token", line=3, column=7)
        assert error.line == 3
        assert error.column == 7
        assert "line 3" in str(error)

    def test_yatl_syntax_error_without_position(self):
        error = errors.YatlSyntaxError("empty program")
        assert "line" not in str(error)

    def test_catching_the_base_covers_subsystems(self):
        for exc in (
            errors.ModelError("x"),
            errors.AlgebraError("x"),
            errors.CapabilityError("x"),
            errors.SourceError("x"),
            errors.MediatorError("x"),
            errors.YatlError("x"),
        ):
            with pytest.raises(errors.YatError):
                raise exc
