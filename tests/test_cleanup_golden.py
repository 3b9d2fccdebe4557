"""Behaviour guard for implicit-rule cleanup.

The digest was computed before cleanup shared one equivalence checker across
its trials and re-checked only the operations a trial changed. It pins the
text of `decompile(compile(inject_implicit(p)), implicit=...)` for the golden
corpus and small generated seeds 0-299, in that order. A case whose injected
profile does not compile, or whose decompile raises, contributes the error's
class name instead of text. The digest does not depend on PYTHONHASHSEED
(checked with 0, 1 and 123).
"""

import hashlib

from sbprof import codec, decompile
from sbprof.errors import SandboxError

DIGEST = "1b7da79c44c4dd7d3ea759ed5c2fe60277d4df45a43e0a01bd6a18185b2d1c12"


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
