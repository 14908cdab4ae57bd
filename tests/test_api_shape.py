"""The Projector is the one context of the geometry functions: none takes
a poset next to a projector, and each measuring function takes ``pr``
first."""

import inspect

from posetgeo import collinearity, coordination, fence, projection
from posetgeo.poset import Poset
from posetgeo.projection import Projector

MODULES = (projection, collinearity, coordination, fence)

TAKES_PR_FIRST = {
    projection: (
        "quantify_event",
        "quantify_interval_one_chain",
        "quantify_interval_two_chains",
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
