"""Relational substrate: schemas, instances, conditions, views, constraints.

This package implements the data model of Section 2.1 of the paper plus the
view and constraint machinery of Sections 3 and 4.2.  Everything else in the
library (matching, contextual inference, Clio-style mapping) is built on the
types exported here.
"""

from .columns import (CodedColumn, ColumnStore, NumericColumn, ObjectColumn,
                      build_column)
from .conditions import TRUE, And, Condition, Eq, In, Or, TrueCondition, condition_k
from .constraints import ContextualForeignKey, ForeignKey, Key
from .csvio import (dump_database, load_database, read_csv,
                    relation_from_csv_text, relation_to_csv_text, write_csv)
from .instance import Database, Relation, Row
from .jsonio import (database_from_dict, database_to_dict,
                     relation_from_dict, relation_to_dict)
from .schema import Attribute, AttributeRef, Schema, TableSchema
from .types import DataType, coerce_value, infer_column_type, infer_type, is_missing
from .views import View, ViewFamily, view_name

__all__ = [
    "Attribute",
    "AttributeRef",
    "Schema",
    "TableSchema",
    "DataType",
    "infer_type",
    "infer_column_type",
    "coerce_value",
    "is_missing",
    "Relation",
    "Database",
    "Row",
    "Condition",
    "TrueCondition",
    "TRUE",
    "Eq",
    "In",
    "And",
    "Or",
    "condition_k",
    "View",
    "ViewFamily",
    "view_name",
    "Key",
    "ForeignKey",
    "ContextualForeignKey",
    "write_csv",
    "read_csv",
    "dump_database",
    "load_database",
    "relation_to_csv_text",
    "relation_from_csv_text",
    "database_to_dict",
    "database_from_dict",
    "relation_to_dict",
    "relation_from_dict",
    "ColumnStore",
    "NumericColumn",
    "CodedColumn",
    "ObjectColumn",
    "build_column",
]
