"""numpy with a count of its calls, for tests that pin the array
operations a kernel makes per step."""
import numpy as np


class CountingNumpy:
    """numpy, with a count of the calls of its functions (ufuncs and
    np.copyto included; types and constants pass through) and the names of
    the calls that pass a where= mask."""

    def __init__(self):
        self.calls = 0
        self.masked = []

    def __getattr__(self, name):
        attr = getattr(np, name)
        if isinstance(attr, type) or not callable(attr):
            return attr

        def counted(*args, **kwargs):
            self.calls += 1
            if "where" in kwargs:
                self.masked.append(name)
            return attr(*args, **kwargs)
        return counted
