"""Topology generators: validation strings, Fig. 7 trees, AS graphs."""

from .aslevel import ASTopology, build_as_topology
from .distributions import (
    EmpiricalDistribution,
    PAPER_HOP_COUNT_DIST,
    PAPER_NODE_DEGREE_DIST,
)
from .string import StringTopology, build_string_topology
from .tree import TreeParams, TreeTopology, assign_roles, build_tree_topology

__all__ = [
    "ASTopology",
    "EmpiricalDistribution",
    "PAPER_HOP_COUNT_DIST",
    "PAPER_NODE_DEGREE_DIST",
    "StringTopology",
    "TreeParams",
    "TreeTopology",
    "assign_roles",
    "build_as_topology",
    "build_string_topology",
    "build_tree_topology",
]
