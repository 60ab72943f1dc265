"""The library example in README.md runs and gives the results its comments state."""

import ast
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_gives_its_commented_results():
    block = README.read_text(encoding="utf-8").split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    exec(block, namespace)
    tower = namespace["tower"]
    expected = {
        "g.order_at_zero()": 1,
        "is_square_local(g).kind": "no",
        'is_square(tower, -tower.gen("alpha")).witness': tower.gen("beta"),
    }
    # the bare expressions of the block are the lines whose results it comments
    shown = [ast.get_source_segment(block, node.value)
             for node in ast.parse(block).body if isinstance(node, ast.Expr)]
    assert shown == list(expected)
    for source, value in expected.items():
        assert eval(source, namespace) == value
