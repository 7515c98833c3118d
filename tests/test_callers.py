"""Every public top-level def and class in tmlab, and every public method
and property of its classes, has a reader in src/.

Code that only the tests read is a test oracle, and lives in
tests/oracles.py or tests/profiles.py.  This test parses each tmlab
module and follows its relative imports, so a name counts as read where
a module loads it (by its own name or under the alias it was imported
as) outside its own definition.  A method or property is resolved by
attribute name: it counts as read where any module loads an attribute
of that name outside the member's own definition.  A script's
`if __name__ == "__main__":` block is an outside caller, not a reader.
A name whose only reader is outside src/ has to name that caller below.
"""

import ast
from pathlib import Path

import tmlab

ALLOWED = {
    # the tm-lab script and `python -m tmlab.cli`
    "cli.main",
    # perfbench's scan workload
    "probe.maximize_J_constrained",
    # perfbench's heavy workload set-up
    "sampling.nonneg_profile",
    # perfbench's set-up, which writes the profile files its commands read
    "radial.RadialFunction.to_csv",
    # planned reader: the radial-reduction label of every verdict
    # (ROADMAP.md, "State the radial reduction in every verdict")
    "potentials.check_class_v",
}


def _modules():
    src = Path(tmlab.__file__).parent
    return {path.stem: ast.parse(path.read_text())
            for path in sorted(src.glob("*.py"))}


def _public_defs(tree):
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _public_members(tree):
    """(class, def) of each public method and property of the module's
    public classes."""
    for cls in _public_defs(tree):
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) \
                        and not node.name.startswith("_"):
                    yield cls, node


def _loads(tree, skip):
    """Each load node of the tree outside the node `skip` and outside a
    script's `if __name__ == "__main__":` block."""
    todo = [tree]
    while todo:
        node = todo.pop()
        if node is skip or (isinstance(node, ast.If) and ast.unparse(
                node.test) == "__name__ == '__main__'"):
            continue
        if isinstance(getattr(node, "ctx", None), ast.Load):
            yield node
        todo.extend(ast.iter_child_nodes(node))


def _reads(mod, tree, skip):
    """(module, name) of each name load in the tree outside `skip`."""
    bound = {}  # local name -> (defining module, name), by relative import
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 \
                and node.module:
            for alias in node.names:
                bound[alias.asname or alias.name] = (node.module, alias.name)
    own = {node.name for node in _public_defs(tree)}
    for node in _loads(tree, skip):
        if isinstance(node, ast.Name):
            if node.id in own:
                yield mod, node.id
            elif node.id in bound:
                yield bound[node.id]


def test_every_public_name_has_a_reader():
    modules = _modules()
    unread = set()
    for mod, tree in modules.items():
        for node in _public_defs(tree):
            target = (mod, node.name)
            if not any(target in _reads(other, other_tree,
                                        node if other == mod else None)
                       for other, other_tree in modules.items()):
                unread.add(f"{mod}.{node.name}")
        for cls, node in _public_members(tree):
            if not any(isinstance(load, ast.Attribute)
                       and load.attr == node.name
                       for other, other_tree in modules.items()
                       for load in _loads(other_tree,
                                          node if other == mod else None)):
                unread.add(f"{mod}.{cls.name}.{node.name}")
    assert unread == ALLOWED
