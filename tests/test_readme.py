"""The README's library example runs as written."""

import re
from pathlib import Path

import numpy as np

from zosmooth import weighted_average

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    # as the example says: the last record is the run's end
    np.testing.assert_array_equal(
        namespace["averages"][2000], weighted_average(namespace["trajectory"])
    )
    assert namespace["x_r"].shape == (20,)
