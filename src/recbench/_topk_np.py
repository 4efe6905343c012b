"""Pure numpy top-k selection, the package's one top-k kernel.

Partial selection, not a full sort.  Rows of at least 4k chunks of
``_CHUNK`` columns are screened first: the k chunks with the largest
maxima hold the row's top k (see :func:`_screened`), so only their
columns go on to the selection.  Narrower rows, and rows whose (k+1)-th
chunk max ties the k-th, are selected whole:

1. ``argpartition`` (O(m) per row) picks k winners per row and so the
   k-th largest value.  It runs on the negated scores, so the -inf
   sentinels that fill sampled and masked rows tie at the top of its
   order, where numpy's selection stays fast; ties at the bottom of its
   order make it several times slower.
2. A row "spills" when its k-th value also occurs outside the winners,
   that is, when more than k entries are at least as large.  Only then
   is the winner set not unique.  Spill rows keep their winners above
   the k-th value, and a sweep over column blocks fills the remaining
   slots with the lowest-index entries equal to it.
3. The k winners of each row are sorted (O(k log k)).

Output is bit-identical to a stable full sort: per row, the k
highest-scoring column indices, descending score, ties broken by
ascending index.

Scores must be finite or -inf (the sentinel for unrankable entries).
A NaN score has no place in that order: each negated block is checked
with one NaN-propagating ``max`` while it is in cache (a NaN in a
screened block sends the whole matrix there), and a NaN raises
:class:`~recbench.errors.NaNScoreError` naming the first such row.
"""

import numpy as np

from .errors import NaNScoreError

# Rows per ``argpartition`` call and per screened block: the reused
# negated block and the call's index output, _PART_ROWS x m each, and
# the screen's temporaries stay small and in cache.
_PART_ROWS = 128

# Columns per step of the tie sweep: bounds its temporaries to a few
# bytes per (spill row x column) of one block, even when a whole row ties.
_SWEEP_COLS = 256

# Columns per chunk of the screen.  Rows of at least 4k chunks are
# screened, so the selection then sees at most a quarter of each row.
_CHUNK = 16


def topk_indices(scores, k):
    scores = np.ascontiguousarray(scores, dtype=np.float64)
    n, m = scores.shape
    n_chunks = m // _CHUNK
    if n_chunks < 4 * k:
        return _select(scores, k)
    idx = np.empty((n, k), dtype=np.int64)
    for lo in range(0, n, _PART_ROWS):
        block = _screened(scores[lo:lo + _PART_ROWS], k, n_chunks)
        if block is None:  # a NaN: the selection names its first row
            return _select(scores, k)
        idx[lo:lo + _PART_ROWS] = block
    return idx


def _screened(scores, k, n_chunks):
    """Top k of wide rows, selected among the columns of their best chunks.

    Chunk c of a row holds columns c, c + n_chunks, c + 2 * n_chunks, ...
    up to ``_CHUNK * n_chunks``, so the chunk maxima are elementwise
    maxima of contiguous slices.  The k chunks with the largest maxima
    hold k entries at least as large as the k-th of those maxima, so the
    row's k-th value is too.  If the (k+1)-th largest chunk max is
    strictly smaller, no entry outside those k chunks and the tail
    columns reaches the k-th value, and selecting among them is exact.
    They are gathered in ascending column order, which keeps the
    tie-break.  Rows whose (k+1)-th chunk max ties go through the full
    selection.  Returns None if the block holds a NaN.
    """
    n, m = scores.shape
    width = _CHUNK * n_chunks
    chunk_max = scores[:, :width].reshape(n, _CHUNK, n_chunks).max(axis=1)
    if np.isnan(chunk_max).any() or np.isnan(scores[:, width:]).any():
        return None
    order = np.argpartition(-chunk_max, k, axis=1)
    best = np.sort(order[:, :k], axis=1)
    runner_up = np.take_along_axis(chunk_max, order[:, k:k + 1], axis=1)
    clear = np.take_along_axis(chunk_max, best, axis=1).min(axis=1) > runner_up[:, 0]
    cols = (best[:, None, :] + n_chunks * np.arange(_CHUNK)[:, None]).reshape(n, -1)
    cols = np.concatenate(
        [cols, np.broadcast_to(np.arange(width, m), (n, m - width))], axis=1)
    picked = _select(np.take_along_axis(scores, cols, axis=1), k)
    idx = np.take_along_axis(cols, picked, axis=1)
    tied = np.flatnonzero(~clear)
    if len(tied):
        idx[tied] = _select(scores[tied], k)
    return idx


def _select(scores, k):
    n, m = scores.shape
    idx = np.empty((n, k), dtype=np.int64)
    neg = np.empty((min(n, _PART_ROWS), m))
    for lo in range(0, n, _PART_ROWS):
        block = np.negative(scores[lo:lo + _PART_ROWS], out=neg[:n - lo])
        if np.isnan(block.max()):
            raise NaNScoreError(lo + int(np.isnan(block).any(axis=1).argmax()))
        idx[lo:lo + _PART_ROWS] = np.argpartition(block, k - 1, axis=1)[:, :k]
    idx.sort(axis=1)
    kth = np.take_along_axis(scores, idx, axis=1).min(axis=1)
    spill = np.flatnonzero(np.count_nonzero(scores >= kth[:, None], axis=1) > k)
    if len(spill):
        idx[spill] = _repair_ties(scores, spill, kth[spill], idx[spill])
    vals = np.take_along_axis(scores, idx, axis=1)
    order = np.argsort(-vals, axis=1, kind="stable")
    return np.take_along_axis(idx, order, axis=1)


def _repair_ties(scores, rows, kth, winners):
    """Exact winners of ``rows``, whose boundary value ``kth`` spills.

    ``winners`` holds each row's partition winners in ascending column
    order.  Those strictly above ``kth`` are kept at the front; the
    remaining slots take the lowest-index columns equal to ``kth``.
    Returns the winners per row in ascending column order.
    """
    n, k = winners.shape
    above = scores[rows[:, None], winners] > kth[:, None]
    out = np.take_along_axis(winners, np.argsort(~above, axis=1, kind="stable"),
                             axis=1)
    filled = above.sum(axis=1)
    active = np.arange(n)
    for lo in range(0, scores.shape[1], _SWEEP_COLS):
        tied = scores[rows[active], lo:lo + _SWEEP_COLS] == kth[active, None]
        r, c = np.nonzero(tied)
        counts = np.bincount(r, minlength=len(active))
        rank = np.arange(len(r)) - (np.cumsum(counts) - counts)[r]
        slot = filled[active][r] + rank
        keep = slot < k
        out[active[r[keep]], slot[keep]] = c[keep] + lo
        filled[active] = np.minimum(filled[active] + counts, k)
        active = active[filled[active] < k]
        if not len(active):
            break
    return np.sort(out, axis=1)
