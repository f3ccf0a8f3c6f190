"""The census allowlist stays applicable: each entry names a function or a
package import that the source still defines, found by `ast`, and gives a
reason."""

import pytest

from census import ALLOWED, ROOT, functions, imports

MODULES = sorted((ROOT / "src" / "horsmc").glob("*.py"))
DEFINED = ({name for path in MODULES for name, _ in functions(path).values()}
           | {name for path in MODULES for name in imports(path)})


@pytest.mark.parametrize("name", sorted(ALLOWED))
def test_allowed_name_exists(name):
    assert name in DEFINED
    assert ALLOWED[name].strip()
