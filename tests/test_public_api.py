"""The package's public surface: the README's Library names plus the errors,
and the README's per-command options."""

import argparse
import re
from pathlib import Path

import mcckf
from mcckf.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"
ERRORS = {
    "LinalgError",
    "NotSymmetric",
    "NotPositiveDefinite",
    "NonFiniteInput",
    "SingularFactor",
}


def readme_library_imports() -> set[str]:
    """The names the README's Library code block imports from ``mcckf``."""
    library = README.read_text().split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    imported = re.search(r"from mcckf import \(([^)]*)\)", block).group(1)
    return {name.strip() for name in imported.split(",") if name.strip()}


def test_readme_library_names_resolve():
    names = readme_library_imports()
    assert names == {
        "KernelSpec", "SeedSpec", "build_example1", "run_filter", "run_monte_carlo",
        "radar_scenario", "simulate",
    }
    namespace = {}
    exec(f"from mcckf import {', '.join(sorted(names))}", namespace)
    assert names <= namespace.keys()


def test_all_is_the_readme_names_and_the_errors():
    assert set(mcckf.__all__) == readme_library_imports() | ERRORS | {"__version__"}
    assert len(mcckf.__all__) == len(set(mcckf.__all__))


def test_every_all_entry_is_an_attribute():
    missing = [name for name in mcckf.__all__ if not hasattr(mcckf, name)]
    assert missing == []


def readme_command_options() -> dict[str, set[str]]:
    """Each row of the README's ``| command | its own options |`` table."""
    table = README.read_text().split("| command | its own options |\n| --- | --- |\n", 1)[1]
    rows = {}
    for line in table.splitlines():
        if not line.startswith("| `"):
            break
        command, options = re.fullmatch(r"\| `(\w+)` \| (.*) \|", line).groups()
        rows[command] = set(re.findall(r"--[a-z]+", options))
    return rows


def test_readme_options_table_matches_the_parser():
    (commands,) = (
        action.choices
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    common = {"-h", "--help", "--config", "--out", "--seed", "--set"}
    parsed = {
        name: {option for action in command._actions for option in action.option_strings}
        - common
        for name, command in commands.items()
    }
    assert readme_command_options() == parsed
