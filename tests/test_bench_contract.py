"""The benchmark's span names and counters against the package.

The benchmark harness (bench/run.py, bench/spans.py) times public functions
by name and reads their arguments by name.  Renaming, moving or making one
private would leave its per-layer metrics silently empty, so this reads
the harness's source (it imports none of it) and checks that every span
it reports is a public function defined in the named module, and that
every argument a counter reads is a parameter of that function.
"""
import ast
import importlib
import inspect
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def module_tree(name):
    return ast.parse((BENCH / name).read_text(), filename=name)


def assigned(tree, target):
    """The value node assigned to the module-level name `target`."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == target for t in node.targets):
            return node.value
    raise AssertionError(f"no module-level {target} in the harness")


def layer_spans():
    return [row[0] for row in ast.literal_eval(assigned(module_tree("run.py"),
                                                        "LAYERS"))]


def read_keys(fn, bound=None):
    """String keys `fn` subscripts its first parameter with; `bound` maps
    names of an enclosing factory's parameters to their string values."""
    bound = bound or {}
    args = fn.args.args[0].arg
    keys = set()
    for node in ast.walk(fn):
        if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                and node.value.id == args):
            key = node.slice
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                keys.add(key.value)
            elif isinstance(key, ast.Name) and key.id in bound:
                keys.add(bound[key.id])
            else:
                raise AssertionError(f"unreadable key {ast.dump(key)}")
    return keys


def counter_keys():
    """Span name -> argument names its counter reads."""
    tree = module_tree("spans.py")
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
    counters = assigned(tree, "COUNTERS")
    out = {}
    for name, value in zip(counters.keys, counters.values):
        if isinstance(value, ast.Lambda):
            keys = read_keys(value)
        elif isinstance(value, ast.Name):
            keys = read_keys(functions[value.id])
        else:
            # a factory call: its returned lambda reads the factory's
            # parameters, bound here to the call's string arguments
            factory = functions[value.func.id]
            bound = {p.arg: a.value for p, a in zip(factory.args.args, value.args)}
            returned = next(n.value for n in ast.walk(factory)
                            if isinstance(n, ast.Return))
            keys = read_keys(returned, bound)
        out[name.value] = keys
    return out


def public_function(span):
    module_name, name = span.split(".")
    module = importlib.import_module(f"nlclt.{module_name}")
    fn = getattr(module, name, None)
    assert not name.startswith("_"), span
    assert inspect.isfunction(fn), f"{span} is not a function"
    assert fn.__module__ == module.__name__, f"{span} is defined in {fn.__module__}"
    return fn


@pytest.mark.parametrize("span", layer_spans())
def test_every_layer_is_a_public_function_of_its_module(span):
    public_function(span)


COUNTER_KEYS = counter_keys()


@pytest.mark.parametrize("span", sorted(COUNTER_KEYS))
def test_every_counter_reads_parameters_of_its_function(span):
    keys = COUNTER_KEYS[span]
    parameters = inspect.signature(public_function(span)).parameters
    assert keys <= set(parameters), f"{span}: {sorted(keys - set(parameters))}"


def test_the_lattice_oracle_keeps_its_counted_arguments():
    # the harness counts cell steps from these two arguments by name
    assert COUNTER_KEYS["sublinear.tree_value_oracle"] == {"steps", "grid_points"}
