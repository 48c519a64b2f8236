"""The README's library sketch runs, and the claims its comments make hold."""

import re
from pathlib import Path

from aperiodica import check_generic, complexity, inversion_witness

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_runs_as_documented():
    (sketch,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    namespace = {}
    exec(compile(sketch, str(README), "exec"), namespace)
    field, window, patch = namespace["field"], namespace["window"], namespace["patch"]
    assert complexity(namespace["fib"], 10) == 11
    assert not check_generic(window, field)
    gaps = [field.point(*mn) for mn in patch.gap_coords]
    assert len(gaps) == 2 and set(namespace["gap_word"]) == {0, 1}
    assert gaps[1] / gaps[0] == field.omega()
    assert inversion_witness(window, field) is None
