"""Every public top-level function or class in src/qfa, and every public
method of a public class, has a reader besides the tests: library code
outside its own definition, a perfbench module, `qfa.__all__`, or a name in
backticks in README.  An oracle, fixture or
check that only tests call lives in tests/support.py instead, so the library
keeps no code that nothing else runs."""

import ast
import re
from pathlib import Path

import qfa

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "qfa"


def _reads(tree):
    """(identifier, line) for every name and attribute the tree reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def test_every_public_name_has_a_reader_outside_the_tests():
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    reads = {stem: list(_reads(tree)) for stem, tree in modules.items()}
    perfbench = {
        name for path in (ROOT / "perfbench").glob("*.py") for name, _ in _reads(ast.parse(path.read_text()))
    }
    prose = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(), flags=re.S)
    readme = {word for span in re.findall(r"`([^`]+)`", prose) for word in re.findall(r"\w+", span)}
    unread = []
    for stem, tree in modules.items():
        defs = [node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        public = [(node, node.name) for node in defs]
        public += [
            (method, f"{node.name}.{method.name}")
            for node in defs
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
            for method in node.body
            if isinstance(method, ast.FunctionDef)
        ]
        for node, label in public:
            if node.name.startswith("_"):
                continue
            in_library = any(
                name == node.name and not (other == stem and node.lineno <= line <= node.end_lineno)
                for other, found in reads.items()
                for name, line in found
            )
            if not (in_library or node.name in perfbench or node.name in qfa.__all__ or node.name in readme):
                unread.append(f"{stem}.{label}")
    assert not unread, f"only tests reach {unread}: move them to tests/support.py or delete them"
