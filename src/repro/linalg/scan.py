"""Blocked prefix-product scans over stacks of matrices.

The GRAPE chain rule needs every forward partial product ``A_k = U_k … U_1``
and every backward partial product ``B_k = U_N … U_{k+1}`` of a pulse's step
propagators.  A naive scan is ``n_steps`` sequential ``d×d`` GEMMs — each
far too small to amortize a BLAS call.  The blocked scan here trades a few
extra flops for *batched* GEMMs:

1. split the ``S`` matrices into ``C ≈ √S`` chunks of ``L ≈ √S``;
2. scan *within* every chunk simultaneously — step ``j`` of each chunk is
   independent of every other chunk, so the ``L-1`` scan steps are batched
   matmuls over ``C`` matrices each;
3. scan the ``C`` chunk totals sequentially (the only serial part,
   ``C-1`` small GEMMs) into exclusive chunk offsets;
4. combine local scans with their chunk offsets in one batched matmul over
   all ``C·L`` matrices.

That is ``≈ 2√S`` BLAS calls instead of ``S``, each over ``√S``-fold (or
``S``-fold for the combine) larger batches — and every leading batch axis
(the cross-block stacking of :mod:`repro.pulse.grape.batched`) multiplies
the batch size further at zero extra calls.  The scan axis is always
``-3``.

Products reassociate (``(U₃U₂)(U₁·init)`` instead of ``U₃(U₂(U₁·init))``),
so results match the sequential scan to float accumulation order —
~1e-14 for unitary operands — not bit-for-bit.

Both paths run from a :class:`ScanPlan`: the output, chunk and padding
arrays, their per-step views and the block-size decision for one scan
shape.  Repeated callers (the GRAPE kernel, once per pulse length) keep
the plan; the module functions build a throwaway one per call.
"""

from __future__ import annotations

import functools
import math

import numpy as np

#: Below this many matrices the sequential scan wins (blocking overhead —
#: padding, reshapes, the extra combine GEMM — is not worth amortizing).
MIN_BLOCKED_STEPS = 8


def scan_block_size(n_steps: int) -> int:
    """The default chunk length for an ``n_steps`` scan (``≈ √n_steps``).

    Returns 1 — meaning "scan sequentially" — for short scans.  Depends on
    ``n_steps`` only, so a cross-block batched scan and a per-block scan of
    the same pulse length chunk (and therefore reassociate) identically.
    """
    if n_steps < MIN_BLOCKED_STEPS:
        return 1
    return max(2, int(round(math.sqrt(n_steps))))


@functools.lru_cache(maxsize=None)
def _identity(d: int, dtype) -> np.ndarray:
    """A read-only ``d×d`` identity, shared by every plan of that size."""
    eye = np.eye(d, dtype=dtype)
    eye.flags.writeable = False
    return eye


def _scan_major(a: np.ndarray) -> np.ndarray:
    """View of ``a`` with the scan axis (``-3``) first: ``[k]`` is
    ``a[..., k, :, :]`` with the same strides."""
    nd = a.ndim
    if nd == 3:
        return a
    return a.transpose((nd - 3, *range(nd - 3), nd - 2, nd - 1))


class ScanPlan:
    """Prepared buffers and per-step views for repeated scans of one shape.

    A scan of ``n`` matrices of size ``d×d`` (with leading batch axes
    ``lead``) needs the same output array, chunk arrays and identity every
    time; the GRAPE optimizer runs hundreds of same-shape scans, so
    :class:`repro.pulse.grape.cost.GrapeCost` keeps one plan per pulse
    length and :meth:`left_scan` does little but the matmuls.  One-shot
    callers get a throwaway plan from the module functions.

    The sequential-or-blocked decision (:func:`scan_block_size`) is taken
    once, here.  Planning changes no arithmetic and no operand layout:
    every matmul sees the same strides it would on freshly allocated
    arrays, so planned and one-shot scans are bit-identical.
    """

    def __init__(self, n, d, block_size=None, lead=(), dtype=complex, out=None):
        if out is None:
            out = np.empty(lead + (n + 1, d, d), dtype=dtype)
        self.out = out
        self.eye = _identity(d, out.dtype)
        size = scan_block_size(n) if block_size is None else max(1, int(block_size))
        self.blocked = size > 1 and n > size
        self._n = n
        self._size = size
        steps = _scan_major(out)
        self._first = steps[0]
        if not self.blocked:
            #: ``steps[k]`` is the view ``out[..., k, :, :]``.
            self.steps = [steps[k] for k in range(n + 1)]
            return

        chunks = -(-n // size)
        self._chunks = chunks
        shape = lead + (chunks, size, d, d)
        # Trailing identity padding: the padded entries land past index n
        # of the combined scan and are sliced away.
        self._pad = chunks * size - n
        if self._pad:
            padded = np.empty(lead + (chunks * size, d, d), dtype=out.dtype)
            padded[..., n:, :, :] = self.eye
            self._padded_head = padded[..., :n, :, :]
            self._padded_work = self._chunk_steps(padded.reshape(shape))
        self._local = np.empty(shape, dtype=out.dtype)
        self._local_steps = self._chunk_steps(self._local)
        offsets = np.empty(lead + (chunks, d, d), dtype=out.dtype)
        self._offsets_b = offsets[..., :, None, :, :]
        self._offset_steps = list(_scan_major(offsets))
        self._total_steps = list(_scan_major(self._local_steps[size - 1]))
        self._combined = np.empty(shape, dtype=out.dtype)
        self._combined_head = self._combined.reshape(
            lead + (chunks * size, d, d)
        )[..., :n, :, :]

    def _chunk_steps(self, chunked):
        """``[chunked[..., :, j, :, :] for j in range(size)]``."""
        return [chunked[..., :, j, :, :] for j in range(self._size)]

    def left_scan(self, mats, init):
        """Cumulative left-products of ``mats`` applied to ``init``.

        Fills and returns :attr:`out`: ``out[..., 0] = init`` and
        ``out[..., k] = mats[..., k-1] @ out[..., k-1]`` for ``k = 1 … n``
        — i.e. ``out[..., k] = M_{k-1} … M_0 @ init``.
        """
        self._first[...] = init
        if not self.blocked:
            steps = self.steps
            seq = _scan_major(mats)
            for k in range(self._n):
                np.matmul(seq[k], steps[k], out=steps[k + 1])
            return self.out

        if self._pad:
            self._padded_head[...] = mats
            work = self._padded_work
        else:
            work = self._chunk_steps(mats.reshape(self._local.shape))
        # (2) local scans: step j of every chunk at once — batched over chunks.
        local = self._local_steps
        local[0][...] = work[0]
        for j in range(1, self._size):
            np.matmul(work[j], local[j - 1], out=local[j])
        # (3) sequential exclusive prefix over the chunk totals.
        offsets = self._offset_steps
        totals = self._total_steps
        offsets[0][...] = init
        for c in range(1, self._chunks):
            np.matmul(totals[c - 1], offsets[c - 1], out=offsets[c])
        # (4) one batched combine over all chunks × steps.
        np.matmul(self._local, self._offsets_b, out=self._combined)
        self.out[..., 1:, :, :] = self._combined_head
        return self.out


def forward_partial_products(props, block_size=None, out=None, plan=None):
    """All forward partial products of a propagator stack.

    ``out[..., 0] = I`` and ``out[..., k] = props[..., k-1] @ … @ props[..., 0]``
    — the ``A_k`` of the GRAPE chain rule, with ``out[..., -1]`` the total
    unitary.  ``props`` has shape ``(..., n, d, d)``; the result appends one
    scan entry: ``(..., n+1, d, d)``.  A prepared ``plan`` (a
    :class:`ScanPlan` for ``n`` steps) supplies the identity, block size
    and buffers and takes the place of ``block_size`` and ``out``.
    """
    if plan is None:
        props = np.asarray(props)
        plan = ScanPlan(
            props.shape[-3],
            props.shape[-1],
            block_size,
            props.shape[:-3],
            np.result_type(props, complex),
            out,
        )
    return plan.left_scan(props, plan.eye)


def backward_partial_products(props, init, block_size=None, out=None, plan=None):
    """All backward partial products, with ``init`` folded in from the left.

    ``out[..., k] = init @ props[..., n-1] @ … @ props[..., k+1]`` (so
    ``out[..., n-1] = init``) — the ``E† B_k`` of the GRAPE chain rule when
    ``init = E†``.  Shapes: ``props (..., n, d, d)`` → ``out (..., n, d, d)``.

    Implemented as a left scan through the transpose identity
    ``(A B)ᵀ = Bᵀ Aᵀ``: with ``R_0 = init`` and ``R_r = R_{r-1} @ M_r`` over
    the reversed propagators ``M_r = props[n-r]``, each ``R_rᵀ`` is a plain
    left-accumulation, and ``out[..., k] = R_{n-1-k}``.  A prepared
    ``plan`` is a :class:`ScanPlan` for those ``n - 1`` transposed steps.
    """
    if plan is None:
        props = np.asarray(props)
        init = np.asarray(init)
        plan = ScanPlan(
            props.shape[-3] - 1,
            props.shape[-1],
            block_size,
            props.shape[:-3],
            np.result_type(props, init),
        )
    if out is None:
        out = np.empty(props.shape, dtype=plan.out.dtype)
    mats_t = props[..., :0:-1, :, :].swapaxes(-1, -2)
    scanned = plan.left_scan(mats_t, init.swapaxes(-1, -2))
    out[...] = scanned[..., ::-1, :, :].swapaxes(-1, -2)
    return out
