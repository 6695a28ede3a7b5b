"""The README's library tour runs as written, so an API it shows cannot be
removed or renamed while the README still calls it."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _library_tour() -> str:
    section = README.read_text(encoding="utf-8").split("## Library tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_tour_runs():
    code = _library_tour()
    assert "import coherence_kit as ck" in code
    exec(compile(code, f"{README.name} (library tour)", "exec"), {})
