"""Walk through belief updates on a smooth synthetic field.

A squared-exponential prior is conditioned on noisy point measurements
one at a time.  After each measurement the script prints the posterior
mean and standard deviation at a fixed set of monitoring points, showing
how uncertainty contracts near visited locations and stays near the
prior far away.
"""

import numpy as np

from senseplan import (
    AnalyticField,
    KernelSpec,
    MeanSpec,
    MeasurementLog,
    PolygonMask,
    field_value,
    posterior,
)


def main():
    rng = np.random.default_rng(7)
    region = PolygonMask.rectangle(0.0, 0.0, 10.0, 10.0)
    field = AnalyticField("sinusoid", {}, region)
    kernel = KernelSpec(signal_variance=2.0, lengthscale=1.8)
    mean = MeanSpec(constant=0.0)
    noise_sd = 0.3

    monitors = np.array([[1.0, 1.0], [5.0, 5.0], [9.0, 2.0], [2.0, 8.0]])
    visits = np.array([[1.2, 1.1], [4.8, 5.3], [5.2, 4.9], [8.8, 2.2]])

    log = MeasurementLog.empty(noise_sd)
    header = "  ".join(f"({x:.0f},{y:.0f})" for x, y in monitors)
    print(f"{'measurements':>14}  {header}")

    def row(label):
        belief = posterior(mean, kernel, log, monitors)
        sd = np.sqrt(np.diag(belief.cov))
        cells = "  ".join(
            f"{m:+.2f}/{s:.2f}" for m, s in zip(belief.mean, sd)
        )
        print(f"{label:>14}  {cells}")

    row("none")
    for k, point in enumerate(visits, start=1):
        z = field_value(field, point) + rng.normal(0.0, noise_sd)
        log = log.append(point, z)
        row(f"{k} @ ({point[0]:.1f},{point[1]:.1f})")

    print()
    truth = field.values(monitors)
    print("truth at monitors:", np.round(truth, 2))
    belief = posterior(mean, kernel, log, monitors)
    print("final mean:       ", np.round(belief.mean, 2))
    print("final sd:         ", np.round(np.sqrt(np.diag(belief.cov)), 2))


if __name__ == "__main__":
    main()
