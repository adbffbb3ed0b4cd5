"""An observer for ``optimizer.run`` that copies the state at chosen k."""


class Recorder:
    """Keeps, for each k in ``at`` (every k when ``at`` is None), the
    ``(R, n)`` iterate ``x[k]``, the gamma-weighted average ``average[k]``
    of ``x_0 .. x_{k-1}`` (``x_0`` itself at k = 0) and the cumulative
    oracle calls ``calls[k]``.  ``seen`` lists every k the run reported."""

    def __init__(self, at=None):
        self.at = None if at is None else set(at)
        self.seen = []
        self.x, self.average, self.calls = {}, {}, {}

    def __call__(self, state):
        k = state.k
        self.seen.append(k)
        if self.at is None or k in self.at:
            self.x[k] = state.x.copy()
            self.average[k] = (
                state.weighted_sum / state.gamma_total if state.gamma_total > 0
                else state.x.copy()
            )
            self.calls[k] = state.oracle_calls
