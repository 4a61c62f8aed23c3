"""The committed reference outputs in ``tests/golden/`` still hold.

Each file is recomputed by ``tests/make_golden.py`` and compared line by
line; a failure names the first line that differs. Regenerating the files
is a declared re-baseline (see that module's docstring).
"""

import pytest

from make_golden import GOLDEN, golden_files, search_levels


@pytest.fixture(scope="module")
def computed(tmp_path_factory):
    return golden_files(tmp_path_factory.mktemp("golden"))


def first_difference(expected: str, actual: str) -> str:
    old, new = expected.splitlines(), actual.splitlines()
    for line_no, (a, b) in enumerate(zip(old, new), 1):
        if a != b:
            return f"line {line_no}:\n  golden:   {a}\n  computed: {b}"
    return f"line counts differ: golden {len(old)}, computed {len(new)}"


@pytest.mark.parametrize(
    "name",
    sorted(str(p.relative_to(GOLDEN)) for p in GOLDEN.rglob("*") if p.is_file()),
)
def test_golden_file_unchanged(name, computed):
    expected = (GOLDEN / name).read_text(encoding="utf-8")
    actual = computed.get(name)
    assert actual is not None, f"{name} is no longer generated"
    if actual != expected:
        pytest.fail(f"{name} differs at {first_difference(expected, actual)}")


def test_every_generated_file_is_committed(computed):
    assert sorted(computed) == sorted(
        str(p.relative_to(GOLDEN)) for p in GOLDEN.rglob("*") if p.is_file()
    )


def test_search_levels_do_not_depend_on_the_model(computed):
    # The golden search prunes nothing and keeps every candidate, so another
    # one-step model must keep the same candidates.
    assert search_levels(seed=1) == computed["search_levels.tsv"]
