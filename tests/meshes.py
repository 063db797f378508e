"""Unstructured test meshes, whose cells differ in shape and size more than
any refined box mesh's do."""

import itertools

import numpy as np
from scipy.spatial import Delaunay

from simplexfem.mesh import SimplexMesh


def delaunay_box(dim, points, seed):
    """The Delaunay mesh of the unit box's corners and ``points`` uniform
    points drawn with ``seed``.  Slivers are kept: in 3D some cells are
    nearly flat."""
    corners = np.array(list(itertools.product((0.0, 1.0), repeat=dim)))
    vertices = np.vstack([corners, np.random.default_rng(seed).uniform(0.0, 1.0, (points, dim))])
    return SimplexMesh(dim, vertices, Delaunay(vertices).simplices)
