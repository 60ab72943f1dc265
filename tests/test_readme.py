"""The examples in README.md run: the library example gives the results its comments
state, and the claim-file example loads and passes."""

import ast
from pathlib import Path

from localpoints.claims import load_claim_file, run_claim

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


def test_readme_claim_file_block_loads_and_passes(tmp_path):
    text = README.read_text(encoding="utf-8")
    block = "claim my_point\n" + text.split("```\nclaim my_point\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "claims.txt"
    path.write_text(block, encoding="utf-8")
    registry = load_claim_file(str(path), {})
    assert list(registry) == ["my_point"]
    assert run_claim("my_point", registry).verdict == "pass"
