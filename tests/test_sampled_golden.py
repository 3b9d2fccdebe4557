"""Behaviour guard for sampled equivalence reports.

The digest pins `(equivalent, checked, mode, witness)` of the decompile
self-check as the container benchmark calls it,
`check_equivalence(blob, recompiled, mode="sampled", seed=0, samples=400)`,
where `recompiled` is the blob's decompiled text parsed and compiled again.
It covers container seeds 0-3 and small generated seeds 0-49. Each
recompiled blob is also checked, in the same mode, against its profile with
its first operation's rules dropped, so that the witnesses pin the universe
order and the random stream the contexts are drawn from. The digest does not
depend on PYTHONHASHSEED (checked with 0 and 123).
"""

import hashlib

from sbprof import codec, decompile, evaluate, generate, sbpl
from sbprof.model import Profile

REPORTS_DIGEST = "9e38c43186bd50e5d0bf5fbc5c2f5891cdba9a5fb6ceb2b89adaa581a68b36aa"
SAMPLED = {"mode": "sampled", "seed": 0, "samples": 400}


def _line(a, b, table, voc):
    r = evaluate.check_equivalence(a, b, table, voc, **SAMPLED)
    witness = None
    if r.witness is not None:
        op, ctx, va, vb = r.witness
        witness = (op, str(ctx), str(va), str(vb))
    return repr((r.equivalent, r.checked, r.mode, witness))


def _trimmed(profile):
    first = sorted(profile.rules)[0]
    return Profile("", profile.default_decision,
                   {op: rs for op, rs in profile.rules.items() if op != first})


def test_sampled_report_digest(small, large):
    cases = [(f"container-{seed}", generate.ProfileGenerator(
        *large, seed=seed, scale="container").generate(), large) for seed in range(4)]
    cases += [(f"seed-{seed}", generate.ProfileGenerator(*small, seed=seed).generate(),
               small) for seed in range(50)]
    digest = hashlib.sha256()
    disagreements = 0
    for name, profile, (table, voc) in cases:
        blob = codec.compile_profile(profile, table, voc)
        recompiled = codec.compile_profile(
            sbpl.parse_sbpl(decompile.decompile(blob, table, voc)), table, voc)
        for i, (a, b) in enumerate(((blob, recompiled),
                                    (recompiled, _trimmed(profile)))):
            line = _line(a, b, table, voc)
            disagreements += "(False," in line
            digest.update(f"{name} {i} {line}\n".encode())
    assert disagreements >= 40  # the witnesses pin the draws
    assert digest.hexdigest() == REPORTS_DIGEST
