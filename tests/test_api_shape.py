"""The Projector is the one context of the geometry functions: none takes
a poset next to a projector, and each measuring function takes ``pr``
first.  A Poset is built only by its constructor and never changes, no
module of the package imports inside a function, and the geometry layers
import nothing from the layout generators."""

import ast
import inspect
from pathlib import Path

import posetgeo
from posetgeo import collinearity, coordination, errors, fence, generators, projection
from posetgeo.poset import Poset
from posetgeo.projection import Projector

MODULES = (projection, collinearity, coordination, fence)

TAKES_PR_FIRST = {
    projection: (
        "quantify_event",
        "quantify_interval_one_chain",
    ),
    collinearity: (
        "projection_code",
        "classify_collinearity",
        "is_properly_collinear",
        "side_of",
        "in_subspace",
        "chain_order",
        "chains_properly_collinear",
        "census",
    ),
    coordination: (
        "are_coordinated",
        "quantify_interval_two_chains",
        "check_orthogonal_subspaces",
        "simplex_table",
        "dimension_count",
    ),
    fence: (
        "event_chain_distance_sq",
        "chain_pair_distance",
        "validate_fence",
        "parallel_postulate_check",
        "dot_product",
        "validate_grid",
        "grid_displacement_sq",
        "wedge_product",
        "geometric_identity_check",
    ),
}


def _public_functions():
    for module in MODULES:
        for name, fn in vars(module).items():
            if (
                not name.startswith("_")
                and inspect.isfunction(fn)
                and fn.__module__ == module.__name__
            ):
                yield f"{module.__name__}.{name}", fn


def _params(fn):
    return list(inspect.signature(fn, eval_str=True).parameters.values())


def test_no_projector_parameter_and_no_poset_beside_it():
    offenders = []
    for name, fn in _public_functions():
        params = _params(fn)
        kinds = {p.annotation for p in params}
        if "projector" in [p.name for p in params] or {Poset, Projector} <= kinds:
            offenders.append(name)
    assert offenders == []


def test_measuring_functions_take_pr_first():
    offenders = []
    for module, names in TAKES_PR_FIRST.items():
        for name in names:
            first = _params(getattr(module, name))[0]
            if (first.name, first.annotation, first.default) != (
                "pr", Projector, inspect.Parameter.empty
            ):
                offenders.append(f"{module.__name__}.{name}")
    assert offenders == []


def test_poset_has_one_constructor_and_no_mutators():
    gone = ("add_event", "add_influence", "freeze", "from_closure")
    assert [name for name in gone if hasattr(Poset, name)] == []
    assert not hasattr(errors, "FrozenPosetError")


def test_projections_keep_no_whole_poset_rank_tables():
    assert not hasattr(projection, "RankTable")
    assert not hasattr(Projector, "table")
    assert not hasattr(Poset, "rows_mask")


def test_no_import_inside_a_function():
    # every module imports at its top, so the layering has no hidden cycle
    offenders = set()
    for path in sorted(Path(posetgeo.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                offenders |= {
                    f"{path.name}:{node.lineno}"
                    for node in ast.walk(fn)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                }
    assert sorted(offenders) == []


def _imported_modules(module):
    names = set()
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.ImportFrom):
            names.add(node.module)
            if node.module is None:  # from . import name
                names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
    return names


def test_geometry_layers_import_no_generators():
    # projections, codes and fences read posets and chains, never how a
    # layout was made; worldlines reach the build as a {position: ticks} map
    offenders = [
        module.__name__
        for module in (projection, collinearity, fence)
        if "generators" in _imported_modules(module)
    ]
    assert offenders == []
    assert not hasattr(generators, "WorldlineSpec")
