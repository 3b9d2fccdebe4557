"""Bit-exact binary profile codec.

All integers are little-endian; every offset is a u16 counted in 8-byte
units from blob start. Layouts (see docs/format.md for the full walkthrough):

separated   u16 format_id=0x0000 | u16 pool_count | u16 op_count
            u16 op_pointer[op_count]
            u16 pool_pointer[pool_count]
            zero pad to 8 | node records | pool items (8-aligned)

bundled     u16 format_id=0x8000 | u16 pool_count | u16 op_count | u16 count
            per profile: u16 name_offset, u16 op_pointer[op_count]
            u16 pool_pointer[pool_count]
            zero pad to 8 | shared node records | shared pool items

A node record is 8 bytes: u8 type, u8 filter key, u16 value, u16 match
offset, u16 unmatch offset. Type 0x01 marks a terminal; terminals reuse the
key byte as the decision (0x00 deny, 0x01 allow) and zero the rest. Pool
items are u16-length-prefixed UTF-8 strings or serialized regex programs.

Both layouts are one shape: a separated blob is a bundle with a single
unnamed operation table. `_write_layout` is the only writer and
`_read_layout` the only reader; `_table_size` is the only header-size formula.
The writer takes nodes as rows packed into ints and fills one buffer sized
once, a record column at a time: the reader's columns, written back.
"""

from __future__ import annotations

import struct
import sys
from array import array
from collections.abc import Sequence
from dataclasses import dataclass

from . import nfa
from .errors import (
    CapacityExceeded,
    DanglingOffset,
    InvalidProfile,
    MalformedBlob,
    NoBundleFound,
    SandboxError,
    UnknownFilterValue,
    WrongFormatId,
)
from .model import (
    Atom,
    Decision,
    FilterKey,
    FilterVocabulary,
    OperationTable,
    Profile,
    RequireAll,
    RequireAny,
    RequireNot,
    ValueKind,
    validate_profile,
)

FORMAT_SEPARATED = 0x0000
FORMAT_BUNDLED = 0x8000

NODE_NON_TERMINAL = 0x00
NODE_TERMINAL = 0x01
TERMINAL_DENY = 0x00
TERMINAL_ALLOW = 0x01

_RECORD = struct.Struct("<BBHHH")
# the value kinds value_at reads, bound once: an Enum member read through its
# class costs a lookup on each access
_NUMERIC, _ENUM, _REGEX, _ENDPOINT = (ValueKind.NUMERIC, ValueKind.ENUM_NAMED,
                                      ValueKind.REGEX_INDEX, ValueKind.NETWORK_ENDPOINT)


def _align8(n: int) -> int:
    return (n + 7) & ~7


def _pack_string(text: str) -> bytes:
    try:
        data = text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise SandboxError(f"pool string {text[:40]!r}: UTF-8 cannot encode "
                           f"character {exc.start}") from None
    if len(data) > 0xFFFF:
        raise CapacityExceeded("pool string longer than 65535 bytes")
    return struct.pack("<H", len(data)) + data


def _read_pool_string(raw: bytes, off: int) -> str:
    """The pool string at byte off of raw: a u16-le byte length, then that
    many bytes of UTF-8."""
    if off + 2 > len(raw):
        raise MalformedBlob(off, "string header past end")
    end = off + 2 + (raw[off] | raw[off + 1] << 8)
    if end > len(raw):
        raise MalformedBlob(off, "string body past end")
    try:
        return raw[off + 2:end].decode()
    except UnicodeDecodeError:
        raise MalformedBlob(off, "string is not valid UTF-8") from None


def _table_size(op_count: int, pool_count: int, named_sets=None) -> int:
    """Bytes of the header and pointer tables, before the pad to 8. A
    separated blob has one unnamed operation table (named_sets is None); a
    bundle has named_sets tables, each led by a u16 name offset."""
    if named_sets is None:
        return 6 + 2 * op_count + 2 * pool_count
    return 8 + named_sets * (2 + 2 * op_count) + 2 * pool_count


def _put_u16s(out: bytearray, at: int, values, step: int = 1) -> None:
    """Write values into out as little-endian u16s, the first at byte `at`
    and each next one `step` u16s after it: a column of the records with
    step 4, a pointer table with step 1."""
    column = array("H", values)
    if sys.byteorder == "big":
        column.byteswap()
    with memoryview(out) as view, view[at:at + 2 * step * len(column)].cast("H") as halves:
        halves[::step] = column


# ---------------------------------------------------------------------------
# Decoded view

@dataclass(frozen=True)
class NodeRecord:
    unit: int
    node_type: int
    filter_key: int
    filter_value: int
    match_offset: int
    unmatch_offset: int

    @property
    def is_terminal(self) -> bool:
        return self.node_type == NODE_TERMINAL

    @property
    def decision(self) -> Decision:
        return Decision.ALLOW if self.filter_key == TERMINAL_ALLOW else Decision.DENY


@dataclass(frozen=True)
class BinaryProfile:
    """Decoded sections over one profile (possibly a view into a bundle).
    The node records are five columns indexed by unit - node_base, which
    every view of one bundle shares; records and record_at build
    NodeRecords from them on demand."""

    format_id: int
    op_count: int
    pool_count: int
    op_pointers: array
    node_types: bytes
    filter_keys: bytes
    filter_values: array
    match_offsets: array
    unmatch_offsets: array
    node_base: int          # unit offset of the first record
    pool_pointers: array
    raw: bytes
    pool_start: int         # byte offset where pool items begin
    name: str = ""

    @property
    def records(self) -> Sequence:
        """The node records in unit order, as a read-only sequence."""
        return _Records(self)

    def _index(self, unit: int) -> int:
        idx = unit - self.node_base
        if not 0 <= idx < len(self.node_types):
            raise DanglingOffset(unit)
        return idx

    def record_at(self, unit: int) -> NodeRecord:
        idx = self._index(unit)
        return NodeRecord(unit, self.node_types[idx], self.filter_keys[idx],
                          self.filter_values[idx], self.match_offsets[idx],
                          self.unmatch_offsets[idx])

    def decision_at(self, unit: int) -> Decision | None:
        """The decision of the terminal at unit, None for a filter node."""
        idx = self._index(unit)
        if self.node_types[idx] != NODE_TERMINAL:
            return None
        return Decision.ALLOW if self.filter_keys[idx] == TERMINAL_ALLOW else Decision.DENY

    def _pool_offset(self, index: int, unit: int) -> int:
        """Byte offset of pool item index, which the value of the node at
        unit holds; a bad index is reported at the node's value field."""
        if not 0 <= index < self.pool_count:
            raise MalformedBlob(8 * unit + 2, f"pool index {index} out of range")
        return self.pool_pointers[index] * 8

    def value_at(self, unit: int, entry: FilterKey):
        """The filter value of the filter node at unit, read by entry's kind:
        a number, an enum name, a string, an endpoint (proto, addr), or for a
        regex the pool from its program onwards, not copied (the program's
        own header says where it ends)."""
        value = self.filter_values[self._index(unit)]
        kind = entry.kind
        if kind is _NUMERIC:
            return value
        if kind is _ENUM:
            name = entry.value_names.get(value)
            if name is None:
                raise UnknownFilterValue(entry.name, value)
            return name
        if kind is _REGEX:
            return memoryview(self.raw)[self._pool_offset(value, unit):]
        text = _read_pool_string(self.raw, self._pool_offset(value, unit))
        if kind is _ENDPOINT:
            proto, _, addr = text.partition(" ")
            return (proto, addr)
        return text

    def default_decision(self) -> Decision:
        decision = self.decision_at(self.op_pointers[0])
        if decision is None:
            raise MalformedBlob(self.op_pointers[0] * 8,
                                "default operation does not point at a terminal")
        return decision


class _Records(Sequence):
    """BinaryProfile.records: each NodeRecord is built when it is read."""

    __slots__ = ("_bp",)

    def __init__(self, bp: BinaryProfile):
        self._bp = bp

    def __len__(self) -> int:
        return len(self._bp.node_types)

    def __getitem__(self, idx: int) -> NodeRecord:
        base = self._bp.node_base
        return self._bp.record_at(range(base, base + len(self))[idx])


def _u16s(data) -> array:
    """The little-endian u16s in the bytes of data, as an array."""
    out = array("H", bytes(data))
    if sys.byteorder == "big":
        out.byteswap()
    return out


def _check_records(block, node_start):
    """Walk the node records in block, which starts at byte node_start, and
    raise MalformedBlob for the first bad one, or for a bad terminal census."""
    base = node_start // 8
    count = len(block) // 8
    allow = deny = 0
    for i, (node_type, key, value, match, unmatch) in enumerate(_RECORD.iter_unpack(block)):
        off = node_start + 8 * i
        if node_type == NODE_TERMINAL:
            if key not in (TERMINAL_DENY, TERMINAL_ALLOW):
                raise MalformedBlob(off, f"terminal with decision byte 0x{key:02x}")
            if value or match or unmatch:
                raise MalformedBlob(off, "terminal with nonzero payload")
            if key == TERMINAL_ALLOW:
                allow += 1
            else:
                deny += 1
        elif node_type == NODE_NON_TERMINAL:
            for target in (match, unmatch):
                if not base <= target < base + count:
                    raise MalformedBlob(off, f"edge offset 0x{target:04x} out of range")
        else:
            raise MalformedBlob(off, f"unknown node type 0x{node_type:02x}")
    if allow != 1 or deny != 1:
        raise MalformedBlob(node_start,
                            f"expected one allow and one deny terminal, got {allow}/{deny}")


def _columns_valid(types, keys, values, matches, unmatches, base) -> bool:
    """Whether _check_records would accept these columns, decided a column
    at a time: only filter nodes and one allow and one deny terminal, the
    terminals' payload zero, and every filter node's edges in range."""
    count = len(types)
    if types.count(NODE_TERMINAL) != 2 or types.count(NODE_NON_TERMINAL) != count - 2:
        return False
    first = types.find(NODE_TERMINAL)
    second = types.find(NODE_TERMINAL, first + 1)
    if {keys[first], keys[second]} != {TERMINAL_ALLOW, TERMINAL_DENY}:
        return False
    if any(column[i] for column in (values, matches, unmatches) for i in (first, second)):
        return False
    edges = matches + unmatches
    for i in (first, second, count + first, count + second):
        edges[i] = base  # terminals have no edges
    return base <= min(edges) and max(edges) < base + count


def _record_columns(data, node_start, pool_start):
    """The node records from byte node_start to pool_start of data, as
    validated columns (types, keys, values, matches, unmatches)."""
    block = bytes(data[node_start:pool_start])
    halves = _u16s(block)  # a record's value, match and unmatch are its last three
    columns = (block[0::8], block[1::8], halves[1::4], halves[2::4], halves[3::4])
    if not _columns_valid(*columns, node_start // 8):
        _check_records(block, node_start)
    return columns


def _read_layout(blob, start: int, format_id: int) -> list:
    """Parse and validate the layout that begins at byte `start` of blob: a
    separated profile, or a bundle when format_id is FORMAT_BUNDLED. Returns
    one view per operation table. Unit offsets, and the byte offsets that
    errors carry, count from `start`; only an accepted layout is copied."""
    size = len(blob) - start
    if size < 2:
        raise MalformedBlob(0, "truncated header")
    (found,) = struct.unpack_from("<H", blob, start)
    if found != format_id:
        raise WrongFormatId(found, format_id)
    named = format_id == FORMAT_BUNDLED
    fixed = _table_size(0, 0, 0 if named else None)
    if size < fixed:
        raise MalformedBlob(0, "truncated header")
    pool_count, op_count = struct.unpack_from("<HH", blob, start + 2)
    sets = struct.unpack_from("<H", blob, start + 6)[0] if named else 1
    if not sets:
        raise MalformedBlob(0, "bundle with no profiles")
    if not op_count:
        raise MalformedBlob(4, "profile with no operations")
    head = _table_size(op_count, pool_count, sets if named else None)
    if size < head:
        raise MalformedBlob(0, "pointer tables past end of blob")
    data = memoryview(blob)[start:]
    # byte offset of each operation table, bundle names leading their table
    tables = [fixed + i * (2 * named + 2 * op_count) for i in range(sets)]
    pool_at = head - 2 * pool_count
    pool_pointers = _u16s(data[pool_at:head])
    name_units = [struct.unpack_from("<H", data, at)[0] for at in tables] if named else []
    # every pool pointer, bundle names included, must land inside the layout
    units = pool_pointers.tolist() + name_units
    if units and max(units) * 8 >= len(data):
        fields = [pool_at + 2 * i for i in range(pool_count)] + (tables if named else [])
        for at, unit in zip(fields, units):
            if unit * 8 >= len(data):
                raise MalformedBlob(at, f"pool pointer 0x{unit:04x} past end of blob")
    node_start = _align8(head)
    pool_start = 8 * min(units) if units else len(data)
    if pool_start < node_start:
        raise MalformedBlob(pool_start, "pool overlaps the pointer tables")
    if (pool_start - node_start) % 8 or pool_start == node_start:
        raise MalformedBlob(node_start, "node section is empty or misaligned")
    types, keys, values, matches, unmatches = _record_columns(data, node_start, pool_start)
    base = node_start // 8
    raw = bytes(blob[start:]) if start else bytes(blob)
    views = []
    names = set()
    for i, at in enumerate(tables):
        at += 2 * named  # skip the name offset
        op_pointers = _u16s(data[at:at + 2 * op_count])
        if op_pointers and not base <= min(op_pointers) <= max(op_pointers) < base + len(types):
            for j, ptr in enumerate(op_pointers):
                if not base <= ptr < base + len(types):
                    raise MalformedBlob(at + 2 * j, f"operation pointer 0x{ptr:04x} out of range")
        name = _read_pool_string(raw, name_units[i] * 8) if named else ""
        if name in names:
            raise MalformedBlob(tables[i], f"duplicate profile name {name!r}")
        names.add(name)
        views.append(BinaryProfile(
            format_id=format_id, op_count=op_count, pool_count=pool_count,
            op_pointers=op_pointers, node_types=types, filter_keys=keys,
            filter_values=values, match_offsets=matches, unmatch_offsets=unmatches,
            node_base=base, pool_pointers=pool_pointers, raw=raw, pool_start=pool_start, name=name))
    return views


def decode_blob(blob: bytes) -> BinaryProfile:
    """Structural decode of a separated profile with full bounds checking."""
    return _read_layout(blob, 0, FORMAT_SEPARATED)[0]


# ---------------------------------------------------------------------------
# Lowering: Profile -> node rows
#
# A lowered node is one row, an int packed from the low bits up: the u8 key
# code; 32 bits of payload, an inline int v as 2v or pool item n as 2n + 1;
# 32 bits of match ref; then the unmatch ref. In a row a ref is a node id
# plus 2, or 1 for the allow terminal and 0 for deny; outside rows a ref is
# a node id (an int) or a terminal Decision. A pool item is the bytes of a
# pool string or of a serialized regex program, numbered in one dict (item
# bytes -> number) that every row of a layout shares.

def _ref_field(ref) -> int:
    """A ref as a row field: a node id plus 2, 1 for allow, 0 for deny."""
    return ref + 2 if type(ref) is int else int(ref is Decision.ALLOW)


def _pack_row(key: int, payload, match_ref, unmatch_ref, items: dict) -> int:
    """The row of one node whose payload is an inline int or the bytes of a
    pool item, which joins items if it is new."""
    if type(payload) is int:
        payload <<= 1
    else:
        payload = items.setdefault(payload, len(items)) << 1 | 1
    return key | payload << 8 | _ref_field(match_ref) << 40 | _ref_field(unmatch_ref) << 72


class _NodeStore:
    """Interning store for lowered nodes of validated profiles; identical
    rows share one id and identical pool items one number. A regex's
    payload is the wire of its nfa.Pattern, which _lower holds from
    validation."""

    def __init__(self, vocab: FilterVocabulary):
        self.vocab = vocab
        self.ids = {}    # row -> node id, in id order
        self.items = {}  # pool item -> item number, in number order

    def lower_atom(self, atom: Atom, match_ref, unmatch_ref) -> int:
        entry = self.vocab.by_name(atom.key)
        if entry.kind is ValueKind.NUMERIC:
            payload = int(atom.value)
        elif entry.kind is ValueKind.ENUM_NAMED:
            payload = entry.named_values[atom.value]
        elif entry.kind is ValueKind.REGEX_INDEX:
            payload = nfa.pattern(atom.value).wire
        elif entry.kind is ValueKind.NETWORK_ENDPOINT:
            proto, addr = atom.value
            payload = _pack_string(f"{proto} {addr}")
        else:
            payload = _pack_string(atom.value)
        row = _pack_row(entry.code, payload, match_ref, unmatch_ref, self.items)
        return self.ids.setdefault(row, len(self.ids))

    def lower_expr(self, expr, match_ref, unmatch_ref):
        if isinstance(expr, Atom):
            return self.lower_atom(expr, match_ref, unmatch_ref)
        if isinstance(expr, RequireNot):
            return self.lower_expr(expr.child, unmatch_ref, match_ref)
        if isinstance(expr, RequireAll):
            # conjunction chains along match edges
            ref = match_ref
            for child in reversed(expr.children):
                ref = self.lower_expr(child, ref, unmatch_ref)
            return ref
        if isinstance(expr, RequireAny):
            # alternatives chain along unmatch edges
            ref = unmatch_ref
            for child in reversed(expr.children):
                ref = self.lower_expr(child, match_ref, ref)
            return ref
        raise TypeError(f"not a filter expression: {expr!r}")

    def lower_rules(self, rules, default: Decision):
        target = default
        for rule in reversed(rules):
            if rule.filter is None:
                target = rule.decision
            else:
                target = self.lower_expr(rule.filter, rule.decision, target)
        return target


def _resolve_entries(profile: Profile, table: OperationTable, store: _NodeStore):
    """Entry ref per operation; rule-less operations inherit through parent
    links, everything else lands on the default terminal."""
    default = profile.default_decision
    owners = table.owners(profile.rules)
    owner_refs = {}
    entries = []
    for op in table.entries:
        owner = owners[op]
        if owner is None:
            entries.append(default)
            continue
        if owner not in owner_refs:
            owner_refs[owner] = store.lower_rules(profile.rules[owner], default)
        entries.append(owner_refs[owner])
    return entries


def preorder(entries, successors, size: int) -> array:
    """Node emission order, an array of node ids: preorder from each entry
    ref over node ids below size, match edge first. successors(node) gives
    the node's (match_ref, unmatch_ref); it is called once per reached
    node, in order. A ref that is not an int is not visited."""
    order = array("i")
    seen = bytearray(size)
    for ref in entries:
        if type(ref) is not int or seen[ref]:
            continue
        stack = [ref]
        while stack:
            node = stack.pop()
            if seen[node]:
                continue
            seen[node] = 1
            order.append(node)
            match_ref, unmatch_ref = successors(node)
            # LIFO: the match edge is visited first
            if type(unmatch_ref) is int and not seen[unmatch_ref]:
                stack.append(unmatch_ref)
            if type(match_ref) is int and not seen[match_ref]:
                stack.append(match_ref)
    return order


def _positions(order, size: int) -> array:
    """Each node's position in order, an array indexed by node id below
    size that holds -1 for a node not in order."""
    position = array("i", [-1]) * size
    for i, node in enumerate(order):
        position[node] = i
    return position


def _write_layout(rows, items, op_refs, names=None) -> bytes:
    """Lay rows (rows[i] is node i's) and the pool items they number in
    items out as a blob with one operation table per list of entry refs in
    op_refs: a separated profile when names is None, else a bundle whose
    tables are named by names, which join items. Records follow the
    match-first preorder from the entries; pool items are numbered by first
    use (node payloads, then bundle names), so an item no reached row names
    is left out. Every section is written in place into one buffer sized
    once: the records a column at a time, the columns _record_columns reads
    back."""
    # the columns of the reached rows, in preorder: pool items are numbered
    # as the walk first meets them, and refs become units once the walk ends
    keys = bytearray()
    values, matches, unmatches = array("L"), array("L"), array("L")
    index = array("i", [-1]) * len(items)  # item number -> pool index
    pool = array("i")                       # item numbers in pool order

    def use(number):
        """The pool index of item number, given at its first use."""
        if index[number] < 0:
            index[number] = len(pool)
            pool.append(number)
        return index[number]

    def successors(node):
        """Decode node's row into the columns; return its successor ids."""
        row = rows[node]
        payload = row >> 8 & 0xFFFFFFFF
        match, unmatch = row >> 40 & 0xFFFFFFFF, row >> 72
        keys.append(row & 0xFF)
        values.append(use(payload >> 1) if payload & 1 else payload >> 1)
        matches.append(match)
        unmatches.append(unmatch)
        return match - 2 if match > 1 else None, unmatch - 2 if unmatch > 1 else None

    position = _positions(preorder([ref for refs in op_refs for ref in refs],
                                   successors, len(rows)), len(rows))
    count = len(keys)
    named = names is not None
    if named:
        name_numbers = [items.setdefault(_pack_string(name), len(items)) for name in names]
        index.extend([-1] * (len(items) - len(index)))
        name_indexes = [use(number) for number in name_numbers]
    op_count = len(op_refs[0])
    base = _align8(_table_size(op_count, len(pool), len(names) if named else None)) // 8
    item_bytes = list(items)
    pool_at = array("L")  # byte offset of each pool item
    end = 8 * (base + count + 2)
    for number in pool:
        end += -end % 8
        pool_at.append(end)
        end += len(item_bytes[number])
    # the one capacity check, ahead of every write: the last unit in use
    # (the last pool item, else the deny terminal) must be addressable
    if (pool_at[-1] if pool_at else end - 8) // 8 > 0xFFFF:
        raise CapacityExceeded(f"{count + 2} node records and {len(pool)} "
                               "pool items do not fit 16-bit offsets")
    # the unit of each ref field: the deny and allow terminals, then nodes
    units = array("i", [base + count + 1, base + count])
    units.extend([base + at for at in position])
    values = array("H", values)
    matches = array("H", [units[field] for field in matches])
    unmatches = array("H", [units[field] for field in unmatches])

    # the header and the pointer tables, bundle names leading their table,
    # are one run of u16s
    head = array("H", [FORMAT_BUNDLED, len(pool), op_count, len(names)] if named
                 else [FORMAT_SEPARATED, len(pool), op_count])
    for i, refs in enumerate(op_refs):
        if named:
            head.append(pool_at[name_indexes[i]] // 8)
        head.extend([units[_ref_field(ref)] for ref in refs])
    head.extend([offset // 8 for offset in pool_at])
    out = bytearray(end)
    _put_u16s(out, 0, head)
    at = 8 * base
    out[at + 1:at + 8 * count:8] = keys  # the type bytes stay NODE_NON_TERMINAL
    for field, column in enumerate((values, matches, unmatches), 1):
        _put_u16s(out, at + 2 * field, column, 4)
    _RECORD.pack_into(out, at + 8 * count, NODE_TERMINAL, TERMINAL_ALLOW, 0, 0, 0)
    _RECORD.pack_into(out, at + 8 * count + 8, NODE_TERMINAL, TERMINAL_DENY, 0, 0, 0)
    for number, at in zip(pool, pool_at):
        item = item_bytes[number]
        out[at:at + len(item)] = item
    return bytes(out)


def _lower(profiles, table: OperationTable, vocab: FilterVocabulary):
    """Validate and lower the profiles one at a time, in order, into one
    store, so identical nodes are shared; return its rows, its pool items
    and each profile's entry refs. The first profile that fails raises:
    InvalidProfile from validation, or what lowering raises. A profile is
    lowered right after its validation, holding the Patterns it parsed, so
    lowering parses none again, however long."""
    store = _NodeStore(vocab)
    op_refs = []
    for profile in profiles:
        held = []
        diagnostics = validate_profile(profile, table, vocab, held)
        if diagnostics:
            raise InvalidProfile(diagnostics)
        op_refs.append(_resolve_entries(profile, table, store))
    return list(store.ids), store.items, op_refs


def compile_profile(profile: Profile, table: OperationTable,
                    vocab: FilterVocabulary) -> bytes:
    """Deterministic lowering of a validated profile to a separated blob."""
    return _write_layout(*_lower([profile], table, vocab))


# ---------------------------------------------------------------------------
# Bundles

def pack_bundle(profiles, table: OperationTable, vocab: FilterVocabulary) -> bytes:
    if not profiles:
        raise SandboxError("a bundle needs at least one profile")
    names = [p.name for p in profiles]
    if len(set(names)) != len(names):
        raise SandboxError("bundle profile names must be unique")
    return _write_layout(*_lower(profiles, table, vocab), names)


def unpack_bundle(blob: bytes, scan: bool = True):
    """Decode a bundle. With scan (the default, container-file mode) the
    header id is searched for anywhere in the input, so leading padding or
    garbage is fine. Without scan the blob must be a bundle from byte 0.
    Returns (start_offset, [(name, view), ...])."""
    if not scan:
        return 0, [(v.name, v) for v in _read_layout(blob, 0, FORMAT_BUNDLED)]
    start = blob.find(b"\x00\x80")
    while start >= 0:
        try:
            views = _read_layout(blob, start, FORMAT_BUNDLED)
        except SandboxError:
            start = blob.find(b"\x00\x80", start + 1)
        else:
            return start, [(v.name, v) for v in views]
    raise NoBundleFound("no bundle header found")


# ---------------------------------------------------------------------------
# View extraction (bundle view -> standalone separated blob)

def extract_profile(view: BinaryProfile, vocab: FilterVocabulary) -> bytes:
    """Re-encode one profile view as a separated blob. The node walk, pool
    ordering and layout match compile_profile, so extracting a bundled
    profile reproduces its standalone compilation byte for byte. Inline
    values are copied as stored."""
    base = view.node_base

    def ref(unit):
        decision = view.decision_at(unit)
        return unit if decision is None else decision

    reached = []  # (key code, payload, match ref, unmatch ref) by unit, in preorder

    def lower(unit):
        """Lower one reached node; return its successor refs."""
        idx = unit - base
        entry = vocab.by_code(view.filter_keys[idx])
        if entry.kind in (ValueKind.NUMERIC, ValueKind.ENUM_NAMED):
            payload = view.filter_values[idx]
        elif entry.kind is ValueKind.REGEX_INDEX:
            payload = nfa.program_at(view.value_at(unit, entry)).wire
        else:
            payload = _pack_string(_read_pool_string(
                view.raw, view._pool_offset(view.filter_values[idx], unit)))
        refs = ref(view.match_offsets[idx]), ref(view.unmatch_offsets[idx])
        reached.append((entry.code, payload, *refs))
        return refs

    entries = [ref(ptr) for ptr in view.op_pointers]
    size = base + len(view.node_types)
    position = _positions(preorder(entries, lower, size), size)

    def dense(ref):
        """A ref by unit as one by node id: the node's position in the preorder."""
        return position[ref] if type(ref) is int else ref

    items = {}
    rows = [_pack_row(key, payload, dense(match_ref), dense(unmatch_ref), items)
            for key, payload, match_ref, unmatch_ref in reached]
    return _write_layout(rows, items, [[dense(ref) for ref in entries]])


def section_sizes(blob: bytes) -> dict:
    """Byte sizes of the decoded sections, for the CLI summary."""
    bp = decode_blob(blob)
    return {
        "header": _table_size(0, 0),
        "op_pointers": 2 * bp.op_count,
        "pool_pointers": 2 * bp.pool_count,
        "padding": 8 * bp.node_base - _table_size(bp.op_count, bp.pool_count),
        "nodes": 8 * len(bp.records),
        "pool": len(blob) - bp.pool_start,
    }
