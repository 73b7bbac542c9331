"""The README's code samples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_minimal_session_runs():
    match = re.search(r"A minimal session:\s*```python\n(.*?)```", README.read_text(), re.S)
    assert match, "README has no fenced python block after 'A minimal session:'"
    namespace: dict = {}
    exec(compile(match.group(1), str(README), "exec"), namespace)
    grads, model = namespace["grads"], namespace["model"]
    assert all(p in grads for p in model.parameters())
