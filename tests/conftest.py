import math

import numpy as np
import pytest

from morreylab.stepfn import StepFunction


@pytest.fixture(scope="session")
def m2_corpus():
    """The 16 ten-cell functions of the ``m2-bracket`` benchmark, unmirrored:
    exactly 10 cells on (0, 1), values log-uniform in [2^-8, 2^8], drawn as
    perfbench/workloads.py draws them."""
    rng = np.random.default_rng([20150416, 2])
    corpus = []
    for _ in range(16):
        while True:
            bp = np.sort(rng.uniform(0.0, 1.0, 11))
            if np.all(np.diff(bp) > 0.0):
                break
        vals = np.exp(rng.uniform(math.log(2.0**-8), math.log(2.0**8), 10))
        corpus.append(StepFunction(bp, vals))
    return corpus
