"""The test oracles share no code with the library they check.

Each oracle module may take from foxcolor only the data types it builds
or returns; everything else it imports must come from the standard
library, so no oracle reaches foxcolor's algorithms through another
module either.
"""

import ast
import sys
from pathlib import Path

import pytest

ORACLES = ("smith_oracle.py", "coloring_oracle.py", "quandle_oracle.py", "goeritz_oracle.py",
           "slot_oracle.py")
DATA_TYPES = {"IntegerMatrix", "Coloring", "EnumerationBudgetError"}


def imports(path: Path):
    """(module, names) for each import statement of the file; names is None
    for a plain `import module`."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"relative import in {path.name}"
            yield node.module, {alias.name for alias in node.names}


@pytest.mark.parametrize("name", ORACLES)
def test_oracle_imports_only_data_types_from_foxcolor(name):
    for module, names in imports(Path(__file__).with_name(name)):
        top = module.split(".")[0]
        if top == "foxcolor":
            assert names is not None and names <= DATA_TYPES, (name, module, names)
        else:
            assert top in sys.stdlib_module_names, (name, module)
