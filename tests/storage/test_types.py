"""Column type coercion rules."""

import pytest

from repro.storage.errors import TypeMismatchError
from repro.storage.types import ColumnType, coerce_value


class TestCoercion:
    def test_int_passthrough(self):
        assert coerce_value(5, ColumnType.INT) == 5

    def test_int_rejects_bool(self):
        with pytest.raises(TypeMismatchError):
            coerce_value(True, ColumnType.INT)

    def test_int_rejects_float(self):
        with pytest.raises(TypeMismatchError):
            coerce_value(5.0, ColumnType.INT)

    def test_int_rejects_str(self):
        with pytest.raises(TypeMismatchError):
            coerce_value("5", ColumnType.INT)

    def test_float_widens_int(self):
        out = coerce_value(3, ColumnType.FLOAT)
        assert out == 3.0 and isinstance(out, float)

    def test_float_rejects_bool(self):
        with pytest.raises(TypeMismatchError):
            coerce_value(False, ColumnType.FLOAT)

    def test_text_accepts_str(self):
        assert coerce_value("hi", ColumnType.TEXT) == "hi"

    def test_text_rejects_number(self):
        with pytest.raises(TypeMismatchError):
            coerce_value(1, ColumnType.TEXT)

    def test_bool_accepts_bool(self):
        assert coerce_value(True, ColumnType.BOOL) is True

    def test_bool_rejects_int(self):
        with pytest.raises(TypeMismatchError):
            coerce_value(1, ColumnType.BOOL)

    def test_bool_rejects_string(self):
        with pytest.raises(TypeMismatchError):
            coerce_value("yes", ColumnType.BOOL)

    def test_json_accepts_nested(self):
        value = {"a": [1, 2, {"b": None}]}
        assert coerce_value(value, ColumnType.JSON) == value

    def test_json_rejects_unserialisable(self):
        with pytest.raises(TypeMismatchError):
            coerce_value(object(), ColumnType.JSON)

    def test_none_passes_every_type(self):
        for column_type in ColumnType:
            assert coerce_value(None, column_type) is None
