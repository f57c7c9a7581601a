"""Posterior decoding: most-likely state paths and loss-symbol series.

Diagnostics on top of the fitted models: the Viterbi path through the
hidden chain and, more usefully for the paper's problem, the per-loss
most-likely delay symbol — "what delay did each lost probe most probably
experience?"  These are not needed for identification (which uses only
the aggregate ``Ĝ``) but make individual congestion episodes visible.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.models.base import LOSS, ObservationSequence, SymbolIndex
from repro.models.hmm import HiddenMarkovModel
from repro.models.mmhd import MarkovModelHiddenDimension

__all__ = ["viterbi_hmm", "viterbi_mmhd", "decode_loss_symbols"]


def _viterbi(pi, transition, likes) -> np.ndarray:
    """Generic log-space Viterbi over per-step state likelihoods."""
    n_steps, n_states = likes.shape
    with np.errstate(divide="ignore"):
        log_pi = np.log(pi)
        log_transition = np.log(transition)
        log_likes = np.log(likes)
    delta = log_pi + log_likes[0]
    backpointers = np.zeros((n_steps, n_states), dtype=int)
    for t in range(1, n_steps):
        scores = delta[:, None] + log_transition
        backpointers[t] = scores.argmax(axis=0)
        delta = scores.max(axis=0) + log_likes[t]
    path = np.empty(n_steps, dtype=int)
    path[-1] = int(delta.argmax())
    for t in range(n_steps - 2, -1, -1):
        path[t] = backpointers[t + 1, path[t + 1]]
    return path


def _viterbi_mmhd_structured(
    model: MarkovModelHiddenDimension, index: SymbolIndex
) -> np.ndarray:
    """Support-restricted MMHD Viterbi (flat-state path).

    The support restriction behind the folded E-step applies to the
    max-plus recursion: at an observed step with symbol ``m`` only the ``N`` states
    ``(h, d=m)`` can carry mass, so the per-``t`` score matrix shrinks from
    ``(NM, NM)`` to as little as ``(N, N)``.  The transition sub-blocks
    are precomputed contiguously once per decode, so the ``t``-loop does a
    broadcast-add plus a masked max over a dense block instead of fancy
    indexing into the full matrix.

    Tie-breaking matches the dense reference exactly: support indices are
    enumerated in increasing flat-state order and masked-out states score
    ``-inf``, so ``argmax`` picks the same state (``np.argmax`` takes the
    first maximum) whenever the model's parameters are positive — which
    probability flooring guarantees for every fitted model.
    """
    n_symbols = model.n_symbols
    n_hidden = model.n_hidden
    n_states = model.n_states
    with np.errstate(divide="ignore"):
        log_pi = np.log(model.pi)
        log_transition = np.log(model.transition)
        log_loss = np.log(model.loss_given_symbol)
        log_survive = np.log(1.0 - model.loss_given_symbol)
    log_loss_state = log_loss[model.state_symbol]
    lt4 = log_transition.reshape(n_hidden, n_symbols, n_hidden, n_symbols)
    # (prev symbol, cur symbol) -> (N, N); observed -> loss -> (N, S);
    # loss -> observed -> (S, N); loss -> loss uses the full matrix.
    t_oo = np.ascontiguousarray(lt4.transpose(1, 3, 0, 2))
    t_ol = np.ascontiguousarray(lt4.transpose(1, 0, 2, 3)).reshape(
        n_symbols, n_hidden, n_states
    )
    t_lo = np.ascontiguousarray(lt4.transpose(3, 0, 1, 2)).reshape(
        n_symbols, n_states, n_hidden
    )

    symbols = index.symbols0.tolist()
    lost = index.lost
    n_steps = len(symbols)
    backpointers: list = [None] * n_steps
    if lost[0]:
        delta = log_pi + log_loss_state
    else:
        delta = log_pi[symbols[0]::n_symbols] + log_survive[symbols[0]]
    prev_lost, prev_m = lost[0], symbols[0]
    for t in range(1, n_steps):
        m = symbols[t]
        if lost[t]:
            block = log_transition if prev_lost else t_ol[prev_m]
        else:
            block = t_lo[m] if prev_lost else t_oo[prev_m, m]
        scores = delta[:, None] + block
        backpointers[t] = scores.argmax(axis=0)
        delta = scores.max(axis=0)
        delta = delta + (log_loss_state if lost[t] else log_survive[m])
        prev_lost, prev_m = lost[t], m

    # Backtrack in local (support) coordinates, emitting flat states.
    path = np.empty(n_steps, dtype=int)
    local = int(delta.argmax())
    for t in range(n_steps - 1, 0, -1):
        path[t] = local if lost[t] else local * n_symbols + symbols[t]
        local = int(backpointers[t][local])
    path[0] = local if lost[0] else local * n_symbols + symbols[0]
    return path


def viterbi_hmm(
    model: HiddenMarkovModel, seq: ObservationSequence
) -> np.ndarray:
    """Most likely hidden-state path under an HMM, shape ``(T,)``."""
    likes = model._observation_likelihoods(seq.zero_based())
    return _viterbi(model.pi, model.transition, likes)


def viterbi_mmhd(
    model: MarkovModelHiddenDimension,
    seq: ObservationSequence,
    structured: bool = True,
) -> Tuple[np.ndarray, np.ndarray]:
    """Most likely joint path under an MMHD.

    Returns ``(hidden_path, symbol_path)``; at observed instants the
    symbol path necessarily equals the observation, at loss instants it
    is the decoded (most likely) delay symbol, 1-based.

    ``structured=True`` (the default) runs the support-restricted
    recursion; ``structured=False`` keeps the dense reference, which the
    tests assert produces the identical path.
    """
    if structured:
        states = _viterbi_mmhd_structured(model, SymbolIndex(seq))
    else:
        likes = model._observation_likelihoods(seq.zero_based())
        states = _viterbi(model.pi, model.transition, likes)
    hidden = states // model.n_symbols
    symbols = states % model.n_symbols + 1
    return hidden, symbols


def decode_loss_symbols(
    model: MarkovModelHiddenDimension, seq: ObservationSequence
) -> np.ndarray:
    """Most-likely delay symbol of each *lost* probe, in trace order.

    The per-instant analogue of the aggregate ``Ĝ``: useful to see which
    congestion episode each loss belongs to.
    """
    _, symbols = viterbi_mmhd(model, seq)
    return symbols[seq.symbols == LOSS]
