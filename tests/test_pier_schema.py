"""Unit tests for relational schemas and tuples."""

import pytest

from repro.common.errors import SchemaError
from repro.pier.schema import (
    INVERTED_CACHE_SCHEMA,
    INVERTED_SCHEMA,
    ITEM_SCHEMA,
    Schema,
    row_identity,
)


class TestSchemaConstruction:
    def test_valid_schema(self):
        schema = Schema("T", ("a", "b"), ("a",), "a")
        assert schema.name == "T"

    def test_rejects_empty_columns(self):
        with pytest.raises(SchemaError):
            Schema("T", (), (), "a")

    def test_rejects_duplicate_columns(self):
        with pytest.raises(SchemaError):
            Schema("T", ("a", "a"), ("a",), "a")

    def test_rejects_key_outside_columns(self):
        with pytest.raises(SchemaError):
            Schema("T", ("a",), ("b",), "a")

    def test_rejects_empty_key(self):
        with pytest.raises(SchemaError):
            Schema("T", ("a",), (), "a")

    def test_rejects_bad_index_column(self):
        with pytest.raises(SchemaError):
            Schema("T", ("a",), ("a",), "z")


class TestValidation:
    def test_validate_accepts_exact_row(self):
        row = {"keyword": "x", "fileID": "f"}
        assert INVERTED_SCHEMA.validate(row) is row

    def test_validate_rejects_missing_column(self):
        with pytest.raises(SchemaError, match="missing"):
            INVERTED_SCHEMA.validate({"keyword": "x"})

    def test_validate_rejects_extra_column(self):
        with pytest.raises(SchemaError, match="extra"):
            INVERTED_SCHEMA.validate({"keyword": "x", "fileID": "f", "junk": 1})

    def test_validate_rejects_unhashable_value(self):
        with pytest.raises(SchemaError, match="unhashable"):
            INVERTED_SCHEMA.validate({"keyword": "x", "fileID": ["list"]})


class TestKeyAndIdentity:
    def test_index_value(self):
        row = {"keyword": "x", "fileID": "f"}
        assert INVERTED_SCHEMA.index_value(row) == "x"

    def test_row_identity_includes_table(self):
        row = {"keyword": "x", "fileID": "f"}
        identity = row_identity(INVERTED_SCHEMA, row)
        assert identity == ("Inverted", "x", "f")


class TestPaperSchemas:
    def test_item_schema_shape(self):
        assert ITEM_SCHEMA.key == ("fileID",)
        assert ITEM_SCHEMA.index_column == "fileID"
        assert set(ITEM_SCHEMA.columns) == {
            "fileID", "filename", "filesize", "ipAddress", "port",
        }

    def test_inverted_schema_shape(self):
        assert INVERTED_SCHEMA.key == ("keyword", "fileID")
        assert INVERTED_SCHEMA.index_column == "keyword"

    def test_inverted_cache_adds_fulltext(self):
        assert "fulltext" in INVERTED_CACHE_SCHEMA.columns
        assert INVERTED_CACHE_SCHEMA.index_column == "keyword"
