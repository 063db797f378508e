"""Static condensation of the enriched element.

In the split basis (CR hat functions plus bubbles) the stiffness decouples
exactly: the bubble block is diagonal and the coupling block vanishes, so
the global solve reduces to a plain CR solve plus one closed-form bubble
coefficient per cell.  ``solve_poisson(..., "ECR")`` solves that way; it
matches the monolithic ECR system coefficient by coefficient.
"""

import numpy as np

import simplexfem as sf

mesh = sf.build_box_mesh(2, 1)
for _ in range(3):
    mesh = sf.refine_uniform(mesh)

S, dm = sf.assembly.split_basis_stiffness(mesh)
n_facet = dm.n_scalar - mesh.n_cells
coupling = S[:n_facet, n_facet:]
print(f"split-basis stiffness: {S.shape[0]} dofs "
      f"({n_facet} CR facets + {mesh.n_cells} bubbles)")
print(f"max |bubble-CR coupling entry| = "
      f"{abs(coupling.toarray()).max():.2e}  (matrix scale {abs(S.data).max():.1f})")
bubble_block = S[n_facet:, n_facet:].toarray()
print(f"bubble block off-diagonal max  = "
      f"{np.abs(bubble_block - np.diag(np.diag(bubble_block))).max():.2e}")

print()
print("f = 1: per-cell bubble amplitude b_K = (f, phi_K)_K / |grad phi_K|_K^2")
b = sf.bubble_coefficients(mesh, 1.0)
print(f"min/max bubble amplitude: {b.min():.6e} / {b.max():.6e} "
      "(congruent right triangles with legs 1/8: all equal (1/8)^2/36, the "
      "scaled reference-triangle value 1/36)")


def monolithic(mesh):
    return sf.solve(sf.SaddleSystem(*sf.assemble_poisson(mesh, 1.0, "ECR")[:2]))[0]


sol = sf.solve_poisson(mesh, 1.0, "ECR")
print(f"CR + bubbles vs monolithic ECR, coefficient max-norm: "
      f"{np.abs(sol.coeffs - monolithic(mesh)).max():.2e}")

mesh3 = sf.refine_uniform(sf.build_box_mesh(3, 1))
sol3 = sf.solve_poisson(mesh3, 1.0, "ECR")
print(f"same agreement on a refined unit cube: "
      f"{np.abs(sol3.coeffs - monolithic(mesh3)).max():.2e}")
