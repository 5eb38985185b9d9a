"""One set-up of ods: import the package and its CLI, then finish one short
warm-up evolve.  run.py calls warm_up() before it times anything, and times
this file run as a script in fresh interpreters for setup_s."""

import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def warm_up():
    import ods
    import ods.cli  # noqa: F401  (the workloads drive ods through its CLI)

    params = ods.DriveParams.fig2("a")
    ods.evolve(ods.pure_density(ods.basis_state(1)), params,
               ods.RampSchedule.for_params(params), ods.DecoherenceRates.reference(),
               (0.0, 0.05 * params.period))


if __name__ == "__main__":
    sys.path.insert(0, SRC)
    warm_up()
