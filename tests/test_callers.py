"""Every public top-level def and class in tmlab has a reader in src/.

Code that only the tests read is a test oracle, and lives in
tests/oracles.py.  This test parses each tmlab module and follows its
relative imports, so a name counts as read where a module loads it
(by its own name or under the alias it was imported as) outside its own
definition.  A script's `if __name__ == "__main__":` block is an outside
caller, not a reader.  A name whose only reader is outside src/ has to
name that caller below.
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


def _reads(mod, tree, skip):
    """(module, name) of each load in the tree outside the node `skip`."""
    bound = {}  # local name -> (defining module, name), by relative import
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 \
                and node.module:
            for alias in node.names:
                bound[alias.asname or alias.name] = (node.module, alias.name)
    own = {node.name for node in _public_defs(tree)}
    todo = [tree]
    while todo:
        node = todo.pop()
        if node is skip or (isinstance(node, ast.If) and ast.unparse(
                node.test) == "__name__ == '__main__'"):
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id in own:
                yield mod, node.id
            elif node.id in bound:
                yield bound[node.id]
        todo.extend(ast.iter_child_nodes(node))


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
    assert unread == ALLOWED
