"""The README's code samples run as written; ``__all__`` lists the public surface."""

import re
import types
from pathlib import Path

import outlooker

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_minimal_session_runs():
    match = re.search(r"A minimal session:\s*```python\n(.*?)```", README.read_text(), re.S)
    assert match, "README has no fenced python block after 'A minimal session:'"
    namespace: dict = {}
    exec(compile(match.group(1), str(README), "exec"), namespace)
    grads, model = namespace["grads"], namespace["model"]
    assert all(p in grads for p in model.parameters())


def test_all_lists_every_public_name_the_package_binds():
    # submodules (``outlooker.ops`` …) are reached as attributes, not exports
    bound = {name for name, value in vars(outlooker).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(outlooker.__all__) == sorted(bound)
