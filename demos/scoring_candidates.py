"""Score a handful of candidate sensing locations three ways.

For a small scenario with a few prior measurements, each candidate is
scored by the closed-form expected information gain, by Gauss-Hermite
quadrature over the predictive reading (an independent oracle), and by
the unnormalized closed-form variant.  The first two agree to floating
point noise; the variant ranks similarly but is not on the same scale.
"""

import numpy as np

from senseplan import (
    KernelSpec,
    MeanSpec,
    MeasurementLog,
    edg_exact,
    edg_quadrature,
    edg_unnormalized_form,
    greedy_select,
)


def main():
    rng = np.random.default_rng(21)
    kernel = KernelSpec(signal_variance=3.0, lengthscale=1.5)
    mean = MeanSpec(constant=0.0)
    noise_sd = 0.8

    targets = rng.uniform(0, 8, (9, 2))
    candidates = np.array(
        [[1.0, 1.0], [4.0, 4.0], [7.0, 7.0], [4.0, 1.0], [1.0, 7.0], [6.5, 2.5]]
    )
    log = MeasurementLog(
        locations=np.array([[2.0, 2.0], [6.0, 6.0]]),
        values=np.array([1.3, -0.4]),
        noise_sd=noise_sd,
    )

    print(f"{'candidate':>12}  {'closed form':>12}  {'quadrature':>12}  {'variant':>10}")
    for cand in candidates:
        exact = edg_exact(kernel, log, cand, targets).value
        quad = edg_quadrature(mean, kernel, log, cand, targets)
        variant = edg_unnormalized_form(kernel, log, cand, targets).value
        print(
            f"({cand[0]:4.1f},{cand[1]:4.1f})  {exact:12.6f}  {quad:12.6f}  {variant:10.4f}"
        )

    choice, score = greedy_select(kernel, log, candidates, targets)
    print()
    print(f"greedy choice: ({choice[0]:.1f}, {choice[1]:.1f}) with gain {score:.6f}")


if __name__ == "__main__":
    main()
