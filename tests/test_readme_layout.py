"""README's Layout block lists exactly the package's modules."""

from __future__ import annotations

import os
import re

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_readme_layout_lists_every_module():
    with open(os.path.join(REPO, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    # The package's entries are indented under the "src/destrade/" line,
    # up to the next top-level directory.
    block = readme.split("    src/destrade/\n", 1)[1].split("\n    scenarios/", 1)[0]
    listed = re.findall(r"^      (\w+\.py) ", block, re.MULTILINE)
    package = os.path.join(REPO, "src", "destrade")
    modules = sorted(f for f in os.listdir(package)
                     if f.endswith(".py") and f != "__init__.py")
    assert sorted(listed) == modules
    assert len(listed) == len(set(listed))
