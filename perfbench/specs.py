"""The benchmark's own program shapes.

Nine :class:`~repro.bench.workloads.WorkloadSpec` builders: the seven
DaCapo analogues plus the ``towers`` (deep wrapper chains) and
``fanout`` (wide dispatch) shapes.  The weights are copied here, not
looked up in the corpus registry, so a change to the registry cannot
move this benchmark's load.  The run seed enters only as the spec's
generator seed: it picks which receiver, value and container each
driver statement uses, while the program's size and structure stay
fixed by the weights.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from repro.bench.workloads import WorkloadSpec, generate
from repro.frontend import ir


def _antlr(s: int, seed: int) -> WorkloadSpec:
    return WorkloadSpec(
        "antlr", seed=seed, tree_levels=4, tree_branch=3, tree_roots=2,
        tree_work=2 * s, value_classes=4, wrapper_chains=3, chain_depth=5,
        receivers_per_chain=3 * s, factories=2, containers=2,
        call_sites=12 * s, factory_sites=4 * s, container_ops=4 * s,
    )


def _bloat(s: int, seed: int) -> WorkloadSpec:
    return WorkloadSpec(
        "bloat", seed=seed, tree_levels=3, tree_branch=2, tree_roots=2,
        tree_work=2 * s, worker_throws=True, value_classes=3,
        wrapper_chains=2, chain_depth=3, receivers_per_chain=2 * s,
        factories=1, containers=2, ast_nodes=10 * s, call_sites=8 * s,
        factory_sites=3 * s, container_ops=4 * s,
    )


def _chart(s: int, seed: int) -> WorkloadSpec:
    return WorkloadSpec(
        "chart", seed=seed, tree_levels=3, tree_branch=3, tree_roots=2,
        tree_work=3 * s, use_static_registry=True, worker_throws=True,
        value_classes=4, wrapper_chains=2, chain_depth=3,
        receivers_per_chain=3 * s, factories=5, containers=3,
        call_sites=10 * s, factory_sites=8 * s, container_ops=5 * s,
    )


def _eclipse(s: int, seed: int) -> WorkloadSpec:
    return WorkloadSpec(
        "eclipse", seed=seed, tree_levels=4, tree_branch=2, tree_roots=2,
        tree_work=2 * s, use_static_registry=True, value_classes=3,
        wrapper_chains=2, chain_depth=4, receivers_per_chain=3 * s,
        factories=2, containers=3, hierarchy_width=6, call_sites=10 * s,
        factory_sites=4 * s, container_ops=5 * s,
    )


def _luindex(s: int, seed: int) -> WorkloadSpec:
    return WorkloadSpec(
        "luindex", seed=seed, tree_levels=3, tree_branch=3, tree_roots=2,
        tree_work=1 * s, value_classes=2, wrapper_chains=2, chain_depth=3,
        receivers_per_chain=2 * s, factories=2, containers=2,
        call_sites=6 * s, factory_sites=3 * s, container_ops=3 * s,
    )


def _pmd(s: int, seed: int) -> WorkloadSpec:
    return WorkloadSpec(
        "pmd", seed=seed, tree_levels=3, tree_branch=3, tree_roots=2,
        tree_work=2 * s, worker_throws=True, value_classes=3,
        wrapper_chains=3, chain_depth=3, receivers_per_chain=2 * s,
        factories=2, containers=2, hierarchy_width=4, call_sites=9 * s,
        factory_sites=3 * s, container_ops=3 * s,
    )


def _xalan(s: int, seed: int) -> WorkloadSpec:
    return WorkloadSpec(
        "xalan", seed=seed, tree_levels=3, tree_branch=3, tree_roots=2,
        tree_work=3 * s, use_static_registry=True, value_classes=4,
        wrapper_chains=2, chain_depth=4, receivers_per_chain=3 * s,
        factories=2, containers=4, call_sites=9 * s, factory_sites=4 * s,
        container_ops=7 * s,
    )


def _towers(s: int, seed: int) -> WorkloadSpec:
    return WorkloadSpec(
        "towers", seed=seed, value_classes=3, wrapper_chains=2,
        chain_depth=12, receivers_per_chain=2 * s, factories=1,
        containers=1, call_sites=8 * s, factory_sites=2 * s,
        container_ops=2 * s,
    )


def _fanout(s: int, seed: int) -> WorkloadSpec:
    return WorkloadSpec(
        "fanout", seed=seed, value_classes=4, wrapper_chains=1,
        chain_depth=2, receivers_per_chain=2 * s, factories=2,
        containers=3, hierarchy_width=12, call_sites=8 * s,
        factory_sites=4 * s, container_ops=10 * s,
    )


#: Shape name -> (base generator seed, spec builder).
SHAPES: Dict[str, Tuple[int, Callable[[int, int], WorkloadSpec]]] = {
    "antlr": (11, _antlr),
    "bloat": (13, _bloat),
    "chart": (17, _chart),
    "eclipse": (19, _eclipse),
    "luindex": (23, _luindex),
    "pmd": (29, _pmd),
    "xalan": (31, _xalan),
    "towers": (47, _towers),
    "fanout": (53, _fanout),
}


def spec_for(shape: str, scale: int, run_seed: int) -> WorkloadSpec:
    """The spec of ``shape`` at ``scale`` for one run seed."""
    base, build = SHAPES[shape]
    return build(scale, base + 1000 * run_seed)


def program_for(shape: str, scale: int, run_seed: int) -> ir.Program:
    return generate(spec_for(shape, scale, run_seed))
