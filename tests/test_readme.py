"""The examples in README.md run: the library example gives the results its comments
state, and the claim-file example loads and passes.  Every module and name it cites
resolves."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import localpoints
from localpoints.claims import load_claim_file, run_claim

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_gives_its_commented_results():
    block = README.read_text(encoding="utf-8").split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    exec(block, namespace)
    tower = namespace["tower"]
    expected = {
        "g.order_at_zero()": 1,
        "is_square_local(g)": False,
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


PACKAGE_MODULES = {info.name for info in pkgutil.iter_modules(localpoints.__path__)}
FILE_SUFFIXES = ("txt", "md", "json", "py", "toml")


def _resolve(dotted):
    """The object a dotted name stands for: a module of the package, a name the package
    exports, or a module of the standard library, then the attributes after it."""
    head, *names = dotted.removeprefix("localpoints.").split(".")
    if head in PACKAGE_MODULES:
        found = importlib.import_module(f"localpoints.{head}")
    elif hasattr(localpoints, head):
        found = getattr(localpoints, head)
    else:
        found = importlib.import_module(head)
    for name in names:
        found = getattr(found, name)
    return found


def test_every_module_and_name_the_readme_cites_resolves():
    # `localpoints.series`, `variety.solve_square`, `sys.get_int_max_str_digits()`, ...;
    # a rename or deletion that leaves the README behind fails here
    cited = set(re.findall(r"`([A-Za-z_]\w*(?:\.\w+)+)(?:\(\))?`",
                           README.read_text(encoding="utf-8")))
    cited = {name for name in cited if name.rsplit(".", 1)[1] not in FILE_SUFFIXES}
    assert {"localpoints.series", "variety.solve_square", "exprs.MAX_DEPTH"} <= cited
    for name in sorted(cited):
        _resolve(name)
