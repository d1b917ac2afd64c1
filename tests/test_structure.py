"""Structure guard over the package source, read with ``ast`` and never
imported: every function and class is referenced by name somewhere in the
package, every parameter of a function is read in its body, and every
imported name is read by the module that imports it."""

import ast
import os

import nlcflow

PACKAGE = os.path.dirname(os.path.abspath(nlcflow.__file__))

# ``module.name`` definitions that may go unreferenced, each with its reason
UNREFERENCED = {
    # README library API: the per-step energy-ledger audit has no caller in
    # the package until the run loop records it (ROADMAP item 2)
    "diagnostics.energy_budget_residual",
}

# ``module.function.parameter`` parameters that may go unread, each with its
# reason
UNREAD = {
    # the preset signature: ``presets.build`` hands every preset the
    # amplitude and width knobs, which the constant equilibrium has no use for
    "presets.equilibrium.amplitude",
    "presets.equilibrium.width",
    # the analytic-field signature f(mesh, t) of the manufactured solutions,
    # which a field constant in time does not read
    "mms._zero.t",
}


def _modules():
    out = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
                out[name[:-3]] = ast.parse(fh.read(), filename=name)
    return out


def _read_names(tree):
    """Every name a module reads: loaded identifiers and attribute names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_definition_is_referenced():
    modules = _modules()
    read = set().union(*map(_read_names, modules.values()))
    unreferenced = sorted(
        f"{module}.{node.name}"
        for module, tree in modules.items() for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in read)
    assert set(unreferenced) == UNREFERENCED, unreferenced


def _loads(node):
    """Every name the body of function ``node`` reads, with its first
    parameter where the body calls ``super()`` without arguments, which
    reads that parameter implicitly."""
    inner = [n for stmt in node.body for n in ast.walk(stmt)]
    read = {n.id for n in inner
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    if any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
           and n.func.id == "super" and not n.args for n in inner):
        read.add(node.args.args[0].arg)
    return read


def test_every_parameter_is_read():
    unread = []
    for module, tree in _modules().items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            read = _loads(node)
            unread += [f"{module}.{node.name}.{a.arg}"
                       for a in (args.posonlyargs + args.args + args.kwonlyargs
                                 + [args.vararg, args.kwarg])
                       if a is not None and a.arg not in read]
    assert set(unread) == UNREAD, unread


def test_every_import_is_read():
    unused = []
    for module, tree in _modules().items():
        read = _read_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) \
                    and node.module != "__future__":
                bound = [a.asname or a.name for a in node.names]
            else:
                continue
            unused += [f"{module}: {name}" for name in bound
                       if name not in read]
    assert unused == []
