"""Every ``examples/*.py`` runs: ``main()`` in-process, stdout captured."""

import importlib.util
import pathlib
import sys

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).resolve().parent.parent / "examples").glob("*.py")
)

#: What the two examples that drive the scheduler must show: the deferred
#: batch runs the quarterly query first and beats submission order; the
#: budgeted session refuses the whole-table query and admits the small one.
EXPECTED = {
    "batch_queries": [
        "execution order: [6, 0, 1, 2, 3, 4, 5]",
        "Batching saved 2 transactions",
    ],
    "organization_budget": [
        "Bob's overlapping query cost: 0 transactions",
        "narrow rode free (0)",
        "rejected up front: estimated $288 exceeds",
        "small query allowed: $4, $46 remaining",
    ],
}


def test_every_example_is_collected():
    assert len(EXAMPLES) >= 7 and set(EXPECTED) <= {p.stem for p in EXAMPLES}


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(path, capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", [str(path)])
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    output = capsys.readouterr().out
    assert output.strip()
    for line in EXPECTED.get(path.stem, ()):
        assert line in output
