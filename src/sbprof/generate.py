"""Golden corpus and seeded random generators.

Everything here is deterministic per seed so suite runs are reproducible
bit for bit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

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
    validate_profile,
)

_WORDS = ("bin", "etc", "tmp", "usr", "var", "lib", "dev", "private", "data",
          "cache", "apps", "sock", "pref", "log")


def random_regex_pattern(rng: random.Random, max_pieces: int = 5) -> str:
    """Small random pattern over the supported syntax."""
    pieces = []
    if rng.random() < 0.5:
        pieces.append("^")
    pieces.append("/" + rng.choice(_WORDS))
    for _ in range(rng.randint(1, max_pieces)):
        roll = rng.random()
        if roll < 0.35:
            pieces.append("/" + rng.choice(_WORDS))
        elif roll < 0.55:
            pieces.append("[0-9]*")
        elif roll < 0.70:
            pieces.append("[^/]+")
        elif roll < 0.85:
            pieces.append(rng.choice(("a", "b", "c", ".")))
        else:
            pieces.append("(%s|%s)" % (rng.choice(_WORDS), rng.choice(_WORDS)))
    if rng.random() < 0.3:
        pieces.append("$")
    return "".join(pieces)


@dataclass(frozen=True)
class FixtureCase:
    name: str
    vocab: str           # builtin table the case compiles against
    sbpl_text: str
    notes: str = ""


CORPUS = (
    FixtureCase(
        "minimal-deny", "small",
        "(version 1)\n(deny default)\n",
        "smallest valid profile"),
    FixtureCase(
        "read-blacklist", "small",
        '(version 1)\n'
        '(deny default)\n'
        '(deny file-read* (literal "/bin/secret.txt"))\n'
        '(allow file-read* (regex #"/bin/*"))\n',
        "deny-then-allow fallback over one operation"),
    FixtureCase(
        "sibling-filters", "small",
        '(version 1)\n'
        '(deny default)\n'
        '(allow file-read*\n'
        '    (regex #"/bin/*")\n'
        '    (vnode-type REGULAR-FILE))\n',
        "two sibling filters, implicit disjunction"),
    FixtureCase(
        "require-any", "small",
        '(version 1)\n'
        '(deny default)\n'
        '(allow file-read*\n'
        '    (require-any\n'
        '        (regex #"/bin/*")\n'
        '        (vnode-type REGULAR-FILE)))\n',
        "explicit disjunction, same meaning as sibling-filters"),
    FixtureCase(
        "require-all", "small",
        '(version 1)\n'
        '(deny default)\n'
        '(allow file-read*\n'
        '    (require-all\n'
        '        (regex #"/bin/*")\n'
        '        (vnode-type REGULAR-FILE)))\n',
        "conjunction of a regex and a vnode filter"),
    FixtureCase(
        "require-not", "small",
        '(version 1)\n'
        '(deny default)\n'
        '(allow file-read*\n'
        '    (require-not\n'
        '        (vnode-type REGULAR-FILE)))\n',
        "pure negation rule"),
    FixtureCase(
        "tty-extension", "large",
        '(version 1)\n'
        '(deny default)\n'
        '(allow file-read*\n'
        '    (require-all\n'
        '        (regex #"^/dev/ttys[0-9]*")\n'
        '        (extension "com.apple.sandbox.pty")))\n',
        "anchored class regex under a conjunction"),
    FixtureCase(
        "multi-operation", "large",
        '(version 1)\n'
        '(deny default)\n'
        '(allow network-outbound (remote tcp "localhost:22"))\n'
        '(allow signal (target self))\n'
        '(allow mach-lookup (global-name "com.example.registry"))\n'
        '(deny file-write* (literal "/private/etc/hosts"))\n',
        "several operations, endpoint and enum values"),
    FixtureCase(
        "allow-default", "small",
        '(version 1)\n'
        '(allow default)\n'
        '(deny file-read* (literal "/bin/secret.txt"))\n'
        '(deny network-outbound)\n',
        "blacklist orientation"),
    FixtureCase(
        "numeric-filter", "large",
        '(version 1)\n'
        '(deny default)\n'
        '(allow file-ioctl (file-mode 438))\n',
        "raw numeric filter value"),
    FixtureCase(
        "deep-nesting", "small",
        '(version 1)\n'
        '(deny default)\n'
        '(allow file-read*\n'
        '    (require-any\n'
        '        (require-all\n'
        '            (regex #"/bin/*")\n'
        '            (require-not (vnode-type SYMLINK)))\n'
        '        (require-all\n'
        '            (literal "/etc/hosts")\n'
        '            (vnode-type REGULAR-FILE))))\n',
        "nested metafilters three levels deep"),
    FixtureCase(
        "compiled-in-regexes", "large",
        '(version 1)\n'
        '(deny default)\n'
        '(allow network-outbound\n'
        '    (regex #"^/private/tmp/\\.webdavUDS\\.[^/]+$"))\n'
        '(deny network-outbound\n'
        '    (literal "/private/var/tmp/launchd/sock")\n'
        '    (regex #"^/private/tmp/launchd-[0-9]+\\.[^/]+/sock$"))\n',
        "the standard-policy regex shapes as user rules"),
)


# ---------------------------------------------------------------------------
# Random profiles

MAX_OPS = 4     # operations with rules in a small profile, at most
MAX_RULES = 3   # rules per operation in a small profile, at most
CONTAINER_NODES = 1964  # filter nodes a container profile aims at
REGEX_SHARE = 0.066     # share of a container profile's atoms that are regexes


@dataclass
class ProfileGenerator:
    """Deterministic random profiles; generated profiles always validate."""

    table: OperationTable
    vocab: FilterVocabulary
    seed: int = 0
    scale: str = "small"            # "small" | "container"
    max_depth: int = 3
    _counter: int = field(default=0, repr=False)

    def __post_init__(self):
        self.rng = random.Random(self.seed)
        self._usable = [e for e in self.vocab.entries]

    def _fresh(self) -> str:
        self._counter += 1
        return str(self._counter)

    def _random_path(self) -> str:
        depth = self.rng.randint(1, 3)
        parts = [self.rng.choice(_WORDS) for _ in range(depth)]
        return "/" + "/".join(parts) + "/" + self._fresh()

    def _random_regex(self) -> str:
        return random_regex_pattern(self.rng)

    def _random_atom(self, regex_ok=True) -> Atom:
        rng = self.rng
        while True:
            entry = rng.choice(self._usable)
            if entry.kind is ValueKind.REGEX_INDEX and not regex_ok:
                continue
            break
        if entry.kind is ValueKind.LITERAL_STRING:
            return Atom(entry.name, self._random_path(), ValueForm.STRING)
        if entry.kind is ValueKind.REGEX_INDEX:
            return Atom(entry.name, self._random_regex(), ValueForm.REGEX)
        if entry.kind is ValueKind.ENUM_NAMED:
            return Atom(entry.name, rng.choice(sorted(entry.named_values)),
                        ValueForm.SYMBOL)
        if entry.kind is ValueKind.NUMERIC:
            return Atom(entry.name, rng.randint(0, 999), ValueForm.NUMBER)
        host = rng.choice(("localhost", "relay.internal", "10.0.0.%d" % rng.randint(1, 99)))
        return Atom(entry.name, (rng.choice(("tcp", "udp")), f"{host}:{rng.randint(1, 9999)}"),
                    ValueForm.ENDPOINT)

    def _random_expr(self, depth: int):
        # depth counts tree levels: a limit of 1 yields bare atoms only
        rng = self.rng
        if depth <= 1 or rng.random() < 0.45:
            return self._random_atom()
        roll = rng.random()
        if roll < 0.40:
            kids = tuple(self._random_expr(depth - 1) for _ in range(rng.randint(2, 3)))
            return RequireAny(kids)
        if roll < 0.80:
            kids = tuple(self._random_expr(depth - 1) for _ in range(rng.randint(2, 3)))
            return RequireAll(kids)
        return RequireNot(self._random_expr(depth - 1))

    def generate(self) -> Profile:
        if self.scale == "container":
            return self._generate_container()
        rng = self.rng
        default = Decision.DENY if rng.random() < 0.85 else Decision.ALLOW
        op_pool = [op for op in self.table.entries if op != "default"]
        ops = rng.sample(op_pool, rng.randint(1, min(MAX_OPS, len(op_pool))))
        rules = {}
        for op in sorted(ops, key=self.table.index):
            out = []
            for _ in range(rng.randint(1, MAX_RULES)):
                decision = default.negate() if rng.random() < 0.8 else default
                if rng.random() < 0.05:
                    out.append(Rule(decision, None))
                    break
                out.append(Rule(decision, self._random_expr(self.max_depth)))
            rules[op] = tuple(out)
        profile = Profile(f"gen-{self.seed}", default, rules)
        assert not validate_profile(profile, self.table, self.vocab)
        return profile

    def _generate_container(self) -> Profile:
        """A profile sized like a real app container: ~CONTAINER_NODES filter
        nodes after compilation with REGEX_SHARE of them regex atoms."""
        rng = self.rng
        default = Decision.DENY
        op_pool = [op for op in self.table.entries if op != "default"]
        regex_budget = round(CONTAINER_NODES * REGEX_SHARE)
        atom_budget = CONTAINER_NODES - 2  # terminals round out the count
        rules: dict[str, list] = {}
        atoms = 0
        regexes = 0
        while atoms < atom_budget:
            op = rng.choice(op_pool)
            children = []
            for _ in range(rng.randint(1, 6)):
                if atoms >= atom_budget:
                    break
                want_regex = regexes < regex_budget and rng.random() < REGEX_SHARE * 1.5
                if want_regex:
                    atom = Atom("regex", self._random_regex(), ValueForm.REGEX)
                    regexes += 1
                else:
                    atom = self._random_atom(regex_ok=False)
                children.append(atom)
                atoms += 1
            if not children:
                continue
            expr = children[0] if len(children) == 1 else RequireAny(tuple(children))
            rules.setdefault(op, []).append(Rule(Decision.ALLOW, expr))
        profile = Profile(f"container-{self.seed}", default,
                          {op: tuple(rs) for op, rs in sorted(rules.items())})
        assert not validate_profile(profile, self.table, self.vocab)
        return profile
