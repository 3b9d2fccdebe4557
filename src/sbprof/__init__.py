"""Sandbox profile toolkit: SBPL frontend, binary profile codec, decompiler,
regex automaton engine and a semantic evaluator used as the test oracle."""

from .model import (
    Atom,
    Decision,
    FilterVocabulary,
    OperationTable,
    Profile,
    RequireAll,
    RequireAny,
    RequireNot,
    Rule,
    ValueForm,
    ValueKind,
    canonicalize,
    validate_profile,
)

__version__ = "0.1.0"
