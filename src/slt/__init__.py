"""Euclidean Steiner shallow-light trees.

Builds trees over finite point sets in R^d whose root-to-point distances
stay within a 1+eps factor of Euclidean distance while the total weight
stays within O(sqrt(1/eps)) of the minimum spanning tree.
"""

from .errors import (
    AngleOutOfRange,
    AngleOverflow,
    DegenerateRay,
    DimensionMismatch,
    DimensionTooSmall,
    Disconnected,
    DuplicatePoints,
    EmptySurface,
    EpsOutOfRange,
    MalformedFile,
    MalformedTree,
    SltError,
    Unreachable,
)
from .geometry import ArcPosition, Point, Polyline, angle_at_apex, dist
from .mst_path import HamPath, PointCloud, SteinerGraph, Tree, dfs_hamiltonian, euclidean_mst
from .breakpoints import BreakpointSet, SubdividedPath, select_breakpoints, subdivide
from .unfolding import Surfaces, build_surfaces, lift, lift_segment, unfold_vertex
from .core2d import CoreGraph, CoreInstance, build_core, core2d_points, core_spt
from .pipeline import Gadgets, assemble_core2d, assemble_slt, build_gadget
from .metrics import SltReport, measure, root_paths
from .pyramid import GridSpec, assemble_pyramid, build_pyramid_core, pyramid_points, yao_spanner

__version__ = "0.1.0"
