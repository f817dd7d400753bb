"""Translate updates on virtual XML views into precise source updates.

The package evaluates views written in a small for-where-return dialect
against XML documents, rewrites updates stated against the (virtual) view
into updates against the source documents, classifies which update shapes
admit a translation, and verifies that emitted translations are correct
and minimal.
"""

from .errors import XviewError
from .evaluator import ViewInstance, evaluate_view
from .lang import (
    DeleteBinding,
    DeleteLabel,
    DeleteTree,
    InsertTree,
    UpdateStatement,
    ViewDef,
    normalize_path,
    parse_update,
    parse_view_def,
    render_update,
)
from .translator import (
    Case,
    ReasonCode,
    Rejected,
    Translated,
    translate,
)
from .updater import apply_update, edit_to_json
from .verifier import VerificationReport, verify_translation
from .xml_model import (
    DocumentStore,
    XmlTree,
    locate,
    parse_document,
    serialize,
    string_value,
    value_equal,
)

__version__ = "0.1.0"

__all__ = [
    "Case",
    "DeleteBinding",
    "DeleteLabel",
    "DeleteTree",
    "DocumentStore",
    "InsertTree",
    "ReasonCode",
    "Rejected",
    "Translated",
    "UpdateStatement",
    "VerificationReport",
    "ViewDef",
    "ViewInstance",
    "XmlTree",
    "XviewError",
    "apply_update",
    "edit_to_json",
    "evaluate_view",
    "locate",
    "normalize_path",
    "parse_document",
    "parse_update",
    "parse_view_def",
    "render_update",
    "serialize",
    "string_value",
    "translate",
    "value_equal",
    "verify_translation",
]
