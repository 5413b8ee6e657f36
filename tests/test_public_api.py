"""The package's public surface: the README's Library names plus the errors."""

import re
from pathlib import Path

import mcckf

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

