"""README's Layout block lists exactly the package's modules, and names
only what each module still holds."""

from __future__ import annotations

import os
import re

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(REPO, "src", "destrade")


def _layout_entries():
    """{module file name: its Layout entry's text}, for the package."""
    with open(os.path.join(REPO, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    # The package's entries are indented under the "src/destrade/" line,
    # up to the next top-level directory.
    block = readme.split("    src/destrade/\n", 1)[1].split("\n    scenarios/", 1)[0]
    parts = re.split(r"^      (\w+\.py) ", block, flags=re.MULTILINE)
    return list(zip(parts[1::2], parts[2::2]))


def test_readme_layout_lists_every_module():
    listed = [name for name, _ in _layout_entries()]
    modules = sorted(f for f in os.listdir(PACKAGE)
                     if f.endswith(".py") and f != "__init__.py")
    assert sorted(listed) == modules
    assert len(listed) == len(set(listed))


def test_readme_layout_names_only_what_each_module_holds():
    # A snake_case name (one with an underscore) in an entry is code: a
    # function, field or constant, which a deleted API must not leave behind.
    stale = {}
    for name, entry in _layout_entries():
        with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
            source = fh.read()
        words = set(re.findall(r"\b_*[a-z][a-z0-9]*(?:_[a-z0-9]+)+\b", entry))
        missing = sorted(w for w in words if not re.search(rf"\b{w}\b", source))
        if missing:
            stale[name] = missing
    assert stale == {}
