"""Behaviour guard for implicit-rule cleanup.

The digest was computed before cleanup shared one equivalence checker across
its trials and re-checked only the operations a trial changed. It pins the
text of `decompile(compile(inject_implicit(p)), implicit=...)` for the golden
corpus and small generated seeds 0-299, in that order. A case whose injected
profile does not compile, or whose decompile raises, contributes the error's
class name instead of text. The digest does not depend on PYTHONHASHSEED
(checked with 0, 1 and 123).

DIGEST was recomputed when an injected unconditional rule began to replace
the operation's own rules, which could never decide after it: the injected
profiles of small seeds 11, 28, 46, 47, 93, 105, 110, 121, 159, 177, 189,
228, 242 and 244 no longer fail validation (UnreachableRule), so those 14
rows changed from "error: InvalidProfile" to text, and the other 298 rows
stayed byte-identical.

DIGEST was recomputed again when regex reversal began to remove states in
order of least in-degree times out-degree: 37 rows print a shorter regex of
the same language, and none changed between text and error.
"""

import hashlib

from sbprof import codec, decompile
from sbprof.errors import SandboxError

DIGEST = "f830fc82fa5c22d32d9ecba6b66156b241fed751a38851fdc8626f30f3cad72e"


def test_cleanup_output_digest(cleanup_cases, implicit_rules):
    digest = hashlib.sha256()
    for name, profile, table, voc in cleanup_cases:
        try:
            blob = codec.compile_profile(
                decompile.inject_implicit(profile, implicit_rules), table, voc)
            out = decompile.decompile(blob, table, voc, implicit=implicit_rules)
        except SandboxError as exc:
            out = f"error: {type(exc).__name__}"
        digest.update(f"{name}\n{out}\n\x00\n".encode())
    assert digest.hexdigest() == DIGEST
