#!/usr/bin/env python3
"""Refinement study: scalar eigenvalue errors and the integrated
Weitzenboeck-identity residuals over subdivision levels 3..6."""

import numpy as np

from hodgelab import fields, mesh, verify

LEVELS = (3, 4, 5, 6)


def main():
    print("level   |mu1_hat - 2|   |mu2_hat - 6|   yano(rotation)   yano(quadratic)")
    quad = np.array([[0, 0.5, 0], [0.5, 0, 0], [0, 0, 0.0]])
    for level in LEVELS:
        m = mesh.build_icosphere(level, 1.0)
        result = verify.scalar_spectrum(m, 9, 1e-7, seed=0)
        mu1 = result.groups[1].representative
        mu2 = result.groups[2].representative
        w_rot = fields.sample_oneform(fields.KillingRotation([0, 0, 1]), m)
        w_quad = fields.sample_oneform(fields.ProjectiveGradient(quad), m)
        y_rot = verify.discrete_identity_residual(m, w_rot)["yano_2_2"]
        y_quad = verify.discrete_identity_residual(m, w_quad)["yano_2_2"]
        print(f"{level:5d}   {abs(mu1 - 2):13.3e}   {abs(mu2 - 6):13.3e}"
              f"   {y_rot:14.3e}   {y_quad:15.3e}")


if __name__ == "__main__":
    main()
