"""Vocabulary files: the operation table and filter table are data, not code.

A vocabulary is a UTF-8 line-oriented file. Record forms:

    version <tag>
    operation <name> [parent=<name>]
    filter <name> code=<int> kind=<value-kind> [ctx=<context-key>]
    enumval <filter-name> <VALUE-NAME>=<u16>

Lines starting with "#" and blank lines are ignored. Operation order in the
file defines the wire index; the first operation must be "default". Two
synthetic tables ship with the package: "small" (16 operations, 4 filter
keys, exhaustively testable) and "large" (125 operations, the full filter
set).
"""

from __future__ import annotations

import importlib.resources
from pathlib import Path

from .errors import VocabularyError
from .model import FilterKey, FilterVocabulary, OperationTable, ValueKind

BUILTIN_TABLES = ("small", "large")


def _parse_int(text: str, where: str) -> int:
    try:
        return int(text, 0)
    except ValueError:
        raise VocabularyError(f"{where}: bad integer {text!r}") from None


def parse_vocabulary(text: str) -> tuple[OperationTable, FilterVocabulary]:
    operations: list[str] = []
    parents: dict[str, str] = {}
    filters: list[dict] = []
    by_name: dict[str, dict] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        where = f"line {lineno}"
        fields = line.split()
        record, args = fields[0], fields[1:]
        if record == "version":
            if len(args) != 1:
                raise VocabularyError(f"{where}: version takes one tag")
        elif record == "operation":
            if not args:
                raise VocabularyError(f"{where}: operation needs a name")
            name = args[0]
            operations.append(name)
            for opt in args[1:]:
                if opt.startswith("parent="):
                    parents[name] = opt[len("parent="):]
                else:
                    raise VocabularyError(f"{where}: unknown option {opt!r}")
        elif record == "filter":
            if not args:
                raise VocabularyError(f"{where}: filter needs a name")
            entry = {"name": args[0], "code": None, "kind": None,
                     "ctx": "", "values": {}}
            for opt in args[1:]:
                if opt.startswith("code="):
                    entry["code"] = _parse_int(opt[5:], where)
                elif opt.startswith("kind="):
                    try:
                        entry["kind"] = ValueKind(opt[5:])
                    except ValueError:
                        raise VocabularyError(
                            f"{where}: unknown kind {opt[5:]!r}") from None
                elif opt.startswith("ctx="):
                    entry["ctx"] = opt[4:]
                else:
                    raise VocabularyError(f"{where}: unknown option {opt!r}")
            if entry["code"] is None or entry["kind"] is None:
                raise VocabularyError(f"{where}: filter needs code= and kind=")
            filters.append(entry)
            by_name[entry["name"]] = entry
        elif record == "enumval":
            if len(args) != 2 or "=" not in args[1]:
                raise VocabularyError(f"{where}: expected 'enumval <filter> NAME=code'")
            fname = args[0]
            if fname not in by_name:
                raise VocabularyError(f"{where}: enumval before filter {fname!r}")
            vname, _, vcode = args[1].partition("=")
            by_name[fname]["values"][vname] = _parse_int(vcode, where)
        else:
            raise VocabularyError(f"{where}: unknown record {record!r}")

    table = OperationTable(tuple(operations), parents=parents)
    keys = tuple(
        FilterKey(
            name=f["name"],
            code=f["code"],
            kind=f["kind"],
            named_values=dict(f["values"]) or None,
            context_key=f["ctx"] or f["name"],
        )
        for f in filters
    )
    return table, FilterVocabulary(keys)


def load_vocabulary(path) -> tuple[OperationTable, FilterVocabulary]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise VocabularyError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    return parse_vocabulary(text)


def builtin_path(name: str) -> Path:
    if name not in BUILTIN_TABLES:
        raise VocabularyError(f"no builtin vocabulary {name!r}")
    return Path(importlib.resources.files("sbprof").joinpath(f"data/vocab_{name}.sbvocab"))


def load_builtin(name: str) -> tuple[OperationTable, FilterVocabulary]:
    return load_vocabulary(builtin_path(name))


def implicit_rules_path() -> Path:
    """The standard-policy rules stripped by decompiler cleanup."""
    return Path(importlib.resources.files("sbprof").joinpath("data/implicit_standard.sb"))
