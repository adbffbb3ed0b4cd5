"""The README's library example runs as written."""

import re
from pathlib import Path

import numpy as np

from zosmooth import (
    RandomStream, StochasticOracle, esgs_estimate, weighted_average,
)

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert len(blocks) == 3
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    # as the example says: the last record is the run's end
    np.testing.assert_array_equal(
        namespace["averages"][2000], weighted_average(namespace["final"])
    )
    assert namespace["x_r"].shape == (20,)
    # the structured oracle's eval_axis gives esgs the values of its eval,
    # up to rounding
    quadratic = namespace["quadratic"]
    eval_only = StochasticOracle(
        eval=quadratic.eval,
        noise_sampler=quadratic.noise_sampler,
    )
    x = np.linspace(-1.0, 1.0, 20)
    g_axis, g_eval = (
        esgs_estimate(oracle, x, 0.1, RandomStream(3)).estimate
        for oracle in (quadratic, eval_only)
    )
    np.testing.assert_allclose(g_axis, g_eval, rtol=1e-9, atol=1e-9)
