"""Every public top-level function or class in src/qfa, and every public
method of a public class, has a reader besides the tests: library code
outside its own definition, a perfbench module, or `qfa.__all__`.  A method
counts as read only through an attribute access (`x.name`); a bare name that
happens to match, such as a local variable, does not.  An oracle, fixture or
check that only tests call lives in tests/support.py instead, so the library
keeps no code that nothing else runs."""

import ast
from pathlib import Path

import qfa

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "qfa"


def _reads(tree):
    """(identifier, line, is_attribute) for every name and attribute the
    tree reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, True


def test_every_public_name_has_a_reader_outside_the_tests():
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    reads = {stem: list(_reads(tree)) for stem, tree in modules.items()}
    perfbench = [read for path in (ROOT / "perfbench").glob("*.py") for read in _reads(ast.parse(path.read_text()))]
    unread = []
    for stem, tree in modules.items():
        defs = [node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        public = [(node, node.name, False) for node in defs]
        public += [
            (method, f"{node.name}.{method.name}", True)
            for node in defs
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
            for method in node.body
            if isinstance(method, ast.FunctionDef)
        ]
        for node, label, is_method in public:
            if node.name.startswith("_"):
                continue

            def counts(name, attribute):
                return name == node.name and (attribute or not is_method)

            in_library = any(
                counts(name, attribute) and not (other == stem and node.lineno <= line <= node.end_lineno)
                for other, found in reads.items()
                for name, line, attribute in found
            )
            in_perfbench = any(counts(name, attribute) for name, _, attribute in perfbench)
            if not (in_library or in_perfbench or (not is_method and node.name in qfa.__all__)):
                unread.append(f"{stem}.{label}")
    assert not unread, f"only tests reach {unread}: move them to tests/support.py or delete them"
