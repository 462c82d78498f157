"""numpy with a count of its calls, for tests that pin the array
operations a kernel makes per step."""
import numpy as np


class CountingNumpy:
    """numpy, with a count of the calls of its ufuncs and of np.copyto."""

    def __init__(self):
        self.calls = 0

    def __getattr__(self, name):
        attr = getattr(np, name)
        if not (isinstance(attr, np.ufunc) or attr is np.copyto):
            return attr

        def counted(*args, **kwargs):
            self.calls += 1
            return attr(*args, **kwargs)
        return counted
