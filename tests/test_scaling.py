"""Scale covariance.  Multiplying values by 2^k and breakpoints by 2^j is
exact in floats while nothing goes subnormal, and so is the reflection
x -> -x.  The Zygmund-Morrey norm scales by 2^(k + j lam) under the first and
is kept by the second, so a transformed copy's bracket, scaled back, must
overlap the original's and be as tight."""

import math

import numpy as np
import pytest

from morreylab.experiments import random_step_function
from morreylab.norms import zygmund_morrey_norm
from morreylab.stepfn import StepFunction


def transformed(f: StepFunction, k: int, j: int, reflect: bool) -> StepFunction:
    bp = [math.ldexp(x, j) for x in f.breakpoints]
    vals = [math.ldexp(v, k) for v in f.values]
    if reflect:
        bp, vals = [-x for x in reversed(bp)], vals[::-1]
    return StepFunction(bp, vals)


def draws() -> list[tuple[StepFunction, int, int, bool]]:
    rng = np.random.default_rng(2026)
    out = []
    for _ in range(60):
        f = random_step_function(rng, 10)
        k, j, reflect = int(rng.integers(-600, 601)), int(rng.integers(-200, 201)), bool(rng.integers(2))
        out.append((f, k, j, reflect))
    return out


DRAWS = draws()


@pytest.mark.parametrize("lam", (0.5, 0.9, 0.99))
def test_zygmund_morrey_bracket_is_scale_covariant(lam):
    for f, k, j, reflect in DRAWS:
        base = zygmund_morrey_norm(f, lam)
        est = zygmund_morrey_norm(transformed(f, k, j, reflect), lam)
        scale = math.ldexp(2.0 ** (j * lam), k)
        assert est.value / scale <= base.upper_bound * (1 + 1e-12)
        assert base.value <= est.upper_bound / scale * (1 + 1e-12)
        assert est.upper_bound <= (1 + 1e-3) * est.value
