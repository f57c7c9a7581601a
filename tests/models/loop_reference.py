"""Pure-Python loop oracle for the forward-backward kernels.

One row and one step at a time, with the ragged carry semantics of
:func:`repro.models.batched._ragged_forward_backward`: padded steps repeat
the last valid ``alpha`` with scale 1, and ``beta`` is carried leftward
so a row's last valid step holds 1.  Slow by design; the kernel parity
tests compare the vectorised kernels against it.
"""

import numpy as np


def py_reference_forward_backward(pi, transition, likes, lengths,
                                  alpha, beta, scales):
    """Scaled forward-backward into preallocated ``alpha``/``beta``/``scales``."""
    np_likes = np.asarray(likes)
    n_steps, n_rows, n = np_likes.shape
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(n_rows):
            t_end = int(lengths[k])
            state = pi[k] * np_likes[0, k]
            total = state.sum()
            scales[0, k] = total
            alpha[0, k] = state / total
            for t in range(1, n_steps):
                if t >= t_end:
                    alpha[t, k] = alpha[t - 1, k]
                    scales[t, k] = 1.0
                    continue
                state = (alpha[t - 1, k] @ transition[k]) * np_likes[t, k]
                total = state.sum()
                scales[t, k] = total
                alpha[t, k] = state / total
            beta[n_steps - 1, k] = 1.0
            for t in range(n_steps - 2, -1, -1):
                if t + 1 >= t_end:
                    beta[t, k] = beta[t + 1, k]
                    continue
                beta[t, k] = transition[k] @ (
                    np_likes[t + 1, k] * beta[t + 1, k]
                ) / scales[t + 1, k]
    return alpha, beta, scales
