import pytest

from sbprof import generate, sbpl, vocab


@pytest.fixture(scope="session")
def small():
    return vocab.load_builtin("small")


@pytest.fixture(scope="session")
def large():
    return vocab.load_builtin("large")


@pytest.fixture(scope="session")
def implicit_rules():
    return sbpl.parse_implicit_rules(
        vocab.implicit_rules_path().read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def cleanup_cases(small, large):
    """(name, profile, table, vocab) for the golden corpus, then small
    generated seeds 0-299: the cases the cleanup guards run over."""
    tables = {"small": small, "large": large}
    cases = []
    for case in generate.CORPUS:
        table, voc = tables[case.vocab]
        cases.append((case.name, sbpl.parse_sbpl(case.sbpl_text, name=case.name),
                      table, voc))
    table, voc = small
    for seed in range(300):
        cases.append((f"seed-{seed}",
                       generate.ProfileGenerator(table, voc, seed=seed).generate(),
                       table, voc))
    return cases
