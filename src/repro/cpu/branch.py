"""Bimodal branch predictor (2048 two-bit counters, per Table 1)."""

from __future__ import annotations

__all__ = ["BimodalPredictor"]


class BimodalPredictor:
    """Classic bimodal predictor: a table of 2-bit saturating counters.

    Counters are indexed by ``(pc >> 2) % entries`` and initialised to
    weakly-taken (2), matching SimpleScalar's default.
    """

    def __init__(self, entries: int = 2048):
        if entries <= 0:
            raise ValueError("predictor needs at least one entry")
        self.entries = entries
        self._counters = [2] * entries
        self.predictions = 0
        self.mispredictions = 0

    def predict_and_update(self, pc: int, taken: bool) -> bool:
        """Predict the branch at ``pc``; train on the outcome.

        Returns True when the prediction was correct.
        """
        index = (pc >> 2) % self.entries
        counter = self._counters[index]
        predicted_taken = counter >= 2
        correct = predicted_taken == taken
        self.predictions += 1
        if not correct:
            self.mispredictions += 1
        if taken:
            if counter < 3:
                self._counters[index] = counter + 1
        else:
            if counter > 0:
                self._counters[index] = counter - 1
        return correct

    def bulk_predict_and_update(self, pcs, takens):
        """Batched :meth:`predict_and_update` over whole columns.

        ``pcs``/``takens`` are numpy columns in trace order; returns the
        per-branch correctness flags as a bool array.  Counter evolution
        factorises over table indices (each 2-bit counter sees only its
        own sub-sequence), so the stream is stable-sorted by index and
        each counter's short history replayed in a tight loop against
        the live table, which it leaves as the per-branch calls would.
        """
        import numpy as np

        n = pcs.size
        self.predictions += n
        if n == 0:
            return np.empty(0, dtype=bool)
        indices = (pcs >> 2) % self.entries
        order = np.argsort(indices, kind="stable")
        counters = self._counters
        correct_sorted = []
        append = correct_sorted.append
        counter = 0
        prev_index = -1
        for index, taken in zip(
            indices[order].tolist(), takens[order].tolist()
        ):
            if index != prev_index:
                if prev_index >= 0:
                    counters[prev_index] = counter
                counter = counters[index]
                prev_index = index
            append((counter >= 2) == taken)
            if taken:
                if counter < 3:
                    counter += 1
            elif counter > 0:
                counter -= 1
        counters[prev_index] = counter
        correct_arr = np.array(correct_sorted, dtype=bool)
        self.mispredictions += n - int(np.count_nonzero(correct_arr))
        correct = np.empty(n, dtype=bool)
        correct[order] = correct_arr
        return correct

    @property
    def misprediction_rate(self) -> float:
        if self.predictions == 0:
            return 0.0
        return self.mispredictions / self.predictions
