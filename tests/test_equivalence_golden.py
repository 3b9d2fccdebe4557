"""Behaviour guard for exhaustive equivalence reports.

The digests were computed while exhaustive mode still enumerated every
context of each operation's key pools. They pin `(equivalent, checked, mode,
witness)` of exhaustive `check_equivalence` over the golden corpus and small
generated seeds 0-99, each case checked five ways: profile vs its blob, blob
vs the profile with its first operation's rules dropped (trimmed), trimmed vs
profile, profile vs trimmed limited by `ops=` to the profile's operations in
reverse order, and profile vs the same rules under the opposite default. A
check that raises contributes its error message. A second digest pins the
message of a container-scale exhaustive check that overflows the cap. The
digests do not depend on PYTHONHASHSEED (checked with 0 and 123).

REPORTS_DIGEST was recomputed when a pattern text began to sample through
the automaton of its own compiled program, so that a profile and its blob
get the same universe: only check 0 of seed 15 (profile vs its blob)
changed, from 111 to 99 contexts counted, still equivalent.
"""

import hashlib

from sbprof import codec, evaluate, generate, sbpl
from sbprof.errors import SandboxError
from sbprof.model import Profile

REPORTS_DIGEST = "77c9af266601bc33530de33d0b73f8db454efaaac8ca3df04f2224b8522f6c5f"
OVERFLOW_DIGEST = "22d2e6648408c8b28671cab15d67bf84148b66b75398065904b95738f2127386"


def _checks(profile, blob):
    ops = sorted(profile.rules)
    trimmed = Profile("", profile.default_decision,
                      {op: rs for op, rs in profile.rules.items() if op != ops[0]})
    flipped = Profile("", profile.default_decision.negate(), profile.rules)
    return ((profile, blob, {}), (blob, trimmed, {}), (trimmed, profile, {}),
            (profile, trimmed, {"ops": ops[::-1]}), (profile, flipped, {}))


def _line(a, b, table, voc, kwargs):
    try:
        r = evaluate.check_equivalence(a, b, table, voc, **kwargs)
    except SandboxError as exc:
        return f"error: {exc}"
    witness = None
    if r.witness is not None:
        op, ctx, va, vb = r.witness
        witness = (op, str(ctx), str(va), str(vb))
    return repr((r.equivalent, r.checked, r.mode, witness))


def test_exhaustive_report_digest(small, large):
    tables = {"small": small, "large": large}
    cases = [(c.name, sbpl.parse_sbpl(c.sbpl_text, name=c.name), tables[c.vocab])
             for c in generate.CORPUS]
    cases += [(f"seed-{seed}", generate.ProfileGenerator(*small, seed=seed).generate(),
               small) for seed in range(100)]
    digest = hashlib.sha256()
    for name, profile, (table, voc) in cases:
        blob = codec.compile_profile(profile, table, voc)
        for i, (a, b, kwargs) in enumerate(_checks(profile, blob)):
            digest.update(f"{name} {i} {_line(a, b, table, voc, kwargs)}\n".encode())
    assert digest.hexdigest() == REPORTS_DIGEST


def test_overflow_message_digest(large):
    table, voc = large
    profile = generate.ProfileGenerator(table, voc, seed=0,
                                        scale="container").generate()
    blob = codec.compile_profile(profile, table, voc)
    line = _line(profile, blob, table, voc, {})
    assert line.startswith("error: context universe too large")
    assert hashlib.sha256(line.encode()).hexdigest() == OVERFLOW_DIGEST
