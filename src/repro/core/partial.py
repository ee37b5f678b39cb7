"""Exact associative partial aggregation (the substrate of :mod:`repro.hier`).

Every global update in this repo is a weighted sum of per-client vectors —
FedAvg's ``Σ_p w_p z_p`` and the IADMM family's ``Σ_p (z_p − λ_p/ρ)``.  Over
the *reals* that sum is associative, which is what makes hierarchical
(edge-sharded) federation exact: each edge can fold its shard into a partial
sum and the root can combine the partials, in any grouping.  Plain floating
point breaks the property — ``(a+b)+(c+d)`` and ``((a+b)+c)+d`` round
differently — so a naive hierarchical run could never be bit-for-bit the flat
run.

:class:`ExactPartial` restores associativity by accumulating into a Shewchuk
*expansion*: an unevaluated sum of non-overlapping floats that represents the
running total **exactly** (Shewchuk 1997, "Adaptive precision floating-point
arithmetic"; the same machinery behind :func:`math.fsum`).  Adding a term is
an error-free TwoSum cascade (GROW-EXPANSION), merging two accumulators adds
one's components into the other (exact, since components are just floats),
and :meth:`round` produces the **correctly rounded** value of the exact sum —
a deterministic function of the exact real total alone, independent of how
the terms were grouped or ordered.  Consequently::

    flat:  round(Σ_p t_p)                                == w
    hier:  round(merge_e(Σ_{p∈shard_e} t_p))             == w   (bitwise)

All operations are vectorised over the flat parameter dimension; components
are plain arrays, so a partial travels the wire as a handful of
``psum:<i>``-keyed tensors inside an ordinary
:class:`~repro.comm.codecs.UpdatePacket` (see :func:`pack_partial` /
:func:`unpack_partial`).  A sum built by the block (below) of
similar-magnitude per-client terms is 2-3 components long *by construction*
(one per extraction level), so an edge's shard summary costs
O(components · dim) bytes instead of O(shard · dim) — the fan-in reduction
``perf/`` reports as ``hier.root.bytes_per_round`` on ``hier_int8``.  (The
per-term cascade alone did not deliver that: it drops a component array only
when all ``dim`` lanes of it are zero, and shipped 6.7 per summary there.)

Block use
---------
More than a couple of vectors are summed by the block: write each term into
:meth:`ExactPartial.row` and read the accumulator as usual.  A full block of
``K`` rows is folded per lane by Rump, Ogita & Oishi's ExtractVector (SIAM J.
Sci. Comput. 31(1), 2008 — the pre-rounding step of AccSum and of
reproducible BLAS): with ``σ`` a power of two ``≥ 2(K+2)·max|p|``, split every
row as ``q = (p + σ) − σ``, ``p −= q``.  Both steps are exact; every ``q`` is
a multiple of ``ulp(σ)/2`` and every partial sum of them stays below ``σ``,
so the column sum ``Σ q`` is **exact in any order** — numpy's pairwise / SIMD
reduction included.  The remainders are at most ``σ·2⁻ᵖ`` (``p`` the
format's precision), so the next level's ``σ`` is known without looking, and
the levels repeat until the remainders are all zero: 2 for similar-magnitude
terms, 5-6 for 60-decade exponent spreads.  The level sums of a block that
filled up are carried into the next one as its first rows (through the
cascade when more than half a block), and the last block's 2-4 go through the
cascade :meth:`~ExactPartial.add` — the one-vector primitive the block path
*ends in*.  ``round()`` returns the same bits however a sum was built,
because it is a function of the exact real total alone; the *expansion* of a
block-built sum is a function of the terms and their order alone, which is
what lets it travel a wire.

Three things are decided from the data, never by a caller: scratch is bounded
(rows are handed out under one fixed byte budget, at most ``_MAX_BLOCK_ROWS``
of them, and the ``(K, tile)`` temporary is column-tiled; a vector too long
for a block of ``_MIN_BLOCK_ROWS`` rows is added one term at a time, through a
one-row scratch — "Long vectors"); a block never holds more than ``2^(p/2−2)``
rows (1,024 at float32 — it binds only in narrower formats), so each level
retires at least half the mantissa; and a block whose ``σ`` would overflow, or
that holds a non-finite value, is added row by row through the cascade, so
those lanes get exactly the cascade's result.

Running use
-----------
IEEE negation is exact, so *removing* a term is adding its negation: with
``-t_old`` and ``t_new`` written as rows, the next read folds them and the
expansion held before the first of them as one block, into the current
multiset's sum — no longer than a fresh block sum of it, and :meth:`round`
gives a fresh sum's bits (:class:`~repro.core.base.ADMMServer` replaces a
client's term so).  Only an expansion held before a fold's first row joins
it: a fresh sum ships its blocks' levels, cascaded.  Only the
*representation* depends on history: never pack a running sum.

Long vectors
------------
A vector too long to block in a format narrower than float64 (float32 past
32,768 floats: the Fig. 2 CNN's 406,922) is summed in float64, where the
cascade adds similar-magnitude float32 values without error, and an all-zero
error array is not kept: the sum stays one component until a lane spans more
than 53 bits.  ``round()`` casts the lanes held in one component — one
rounding of the exact value — and walks the rest over their exact pieces in
the format, as ``components`` ships them: the format's own cascade gives the
same bits while no sum passes a quarter of its range.  One that does, or is
not finite, hands the accumulator (as those pieces) to that cascade.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

__all__ = ["ExactPartial", "PSUM_PREFIX", "pack_partial", "unpack_partial"]

#: payload-key prefix of a packed partial's component tensors
PSUM_PREFIX = "psum"

#: the block's byte budget, and that of the ``(K, tile)`` temporary beside it
_BLOCK_BYTES = 1 << 20
_TILE_BYTES = 1 << 18
#: rows per block: fewer are not worth their carried level sums, and past the
#: upper end those are already under 5% of a block — more rows only cost memory
_MIN_BLOCK_ROWS, _MAX_BLOCK_ROWS = 8, 64


class ExactPartial:
    """An exact, associative accumulator for flat parameter vectors.

    Parameters
    ----------
    dim:
        Length of the accumulated vectors.
    dtype:
        IEEE float dtype the accumulation runs in (the pipeline dtype; the
        error-free transformations below are valid in any IEEE binary
        format, so float32 runs stay exact — long ones in float64).
    """

    def __init__(self, dim: int, dtype=np.float64):
        self.dim = int(dim)
        self.dtype = np.dtype(dtype)
        if self.dtype.kind != "f":
            raise ValueError(f"ExactPartial needs a float dtype, got {self.dtype}")
        self._comps: List[np.ndarray] = []
        self._compact_at = 8
        precision = np.finfo(self.dtype).nmant + 1
        rows = min(_BLOCK_BYTES // max(1, self.dim * self.dtype.itemsize), _MAX_BLOCK_ROWS, 2 ** (precision // 2 - 2))
        #: rows per block; 1 = a vector too long to block, summed through the cascade
        self._block_rows = rows if rows >= _MIN_BLOCK_ROWS else 1
        #: float64 while a long narrow vector sums wide, under ``_limit`` (¼ of the range); else None
        self._wide = np.dtype(np.float64) if self._block_rows == 1 and self.dtype.itemsize < 8 else None
        self._limit = float(np.ldexp(1.0, np.finfo(self.dtype).maxexp - 2))
        #: rows handed out by :meth:`row` and not yet in ``_comps`` (the first ``_used``)
        self._block: Optional[np.ndarray] = None
        self._used = 0
        self._joins = False  #: the expansion predates the block's first row (a running sum's): it joins

    # ------------------------------------------------------------ inspection
    @property
    def components(self) -> Tuple[np.ndarray, ...]:
        """The expansion's component arrays, smallest magnitude first.

        Together they represent the exact accumulated sum, in the format;
        they are live references — copy before mutating.
        """
        self._settle()
        return tuple(self._comps if self._wide is None else _narrow(self._comps, self.dtype))

    def __len__(self) -> int:
        """How many component arrays :attr:`components` ships."""
        return len(self.components)

    @classmethod
    def from_components(cls, components: Sequence[np.ndarray], dim: int, dtype) -> "ExactPartial":
        """Rebuild an accumulator from shipped components (exact)."""
        acc = cls(dim, dtype)
        acc.merge(components)
        return acc

    # ---------------------------------------------------------- accumulation
    def row(self) -> np.ndarray:
        """Scratch for the next term: write the vector into the returned row
        and it is part of the sum (see "Block use").  The row is the
        accumulator's; it is folded — and the memory reused — by the next
        ``row()`` past a full block and by any read."""
        if self._block is None:
            self._block = np.empty((self._block_rows, self.dim), dtype=self.dtype)
            self._joins = bool(self._comps)
        elif self._used == len(self._block):
            self._settle(carry=True)
        self._used += 1
        return self._block[self._used - 1]

    def _settle(self, carry: bool = False) -> None:
        """Fold the rows handed out so far: a block down to its level sums —
        kept as the block's first rows when more terms are coming (``carry``),
        else the new expansion, one held before the block's first row (a
        running sum's) having joined it as rows — and anything a block cannot or
        need not take (three rows or fewer, a one-row scratch, overflow,
        non-finite values) row by row through the cascade."""
        block, used = self._block, self._used
        if not used:  # nothing handed out (or a read from inside the adds below)
            return
        if used > 3 and self._joins and not carry:  # the expansion joins the block, as rows
            comps, self._comps = self._comps, []
            self.merge(comps)
            block, used = self._block, self._used
        self._used = 0
        if not carry:
            self._block = None
        terms = self._extract(block[:used]) if used > 3 else None
        if terms is None:
            terms = block[:used]
        elif carry and 2 * len(terms) <= len(block):
            return self.merge(terms)
        for term in terms:
            self.add(term)

    def _extract(self, block: np.ndarray) -> Optional[List[np.ndarray]]:
        """The level sums of ``block``'s rows (see "Block use"), largest
        first; the rows are left zero.  ``None``, with the block untouched,
        when a ``σ`` would overflow or a value is not finite."""
        rows, dim = block.shape
        info = np.finfo(self.dtype)
        shift = (2 * (rows + 2) - 1).bit_length()  # 2**shift >= 2(K + 2)
        step = shift - info.nmant - 1  # a level leaves |p| <= sigma * 2**-precision
        peak = np.maximum(block.max(axis=0), -block.min(axis=0))
        if not np.isfinite(peak).all():
            return None
        exponent = np.frexp(peak)[1] + shift  # peak < 2**frexp's exponent
        if exponent.max() >= info.maxexp:
            return None
        width = max(1, _TILE_BYTES // (rows * self.dtype.itemsize))
        spare = np.empty((rows, min(width, dim)), dtype=self.dtype)
        one = self.dtype.type(1)
        levels: List[np.ndarray] = []
        for lo in range(0, dim, width):
            p = block[:, lo : lo + width]
            q = spare[:, : p.shape[1]]
            e = exponent[lo : lo + width]
            depth, live = 0, peak[lo : lo + width].any()
            while live:
                sigma = np.ldexp(one, e)
                np.add(p, sigma, out=q)
                q -= sigma  # q: the rows' high parts, p: what is left of them
                p -= q
                if depth == len(levels):
                    levels.append(np.zeros(dim, dtype=self.dtype))
                q.sum(axis=0, out=levels[depth][lo : lo + width])
                depth += 1
                e = e + step
                live = p.any()
        return levels

    def _vector(self, term: np.ndarray) -> np.ndarray:
        flat = np.asarray(term).reshape(-1)
        if flat.shape != (self.dim,):
            raise ValueError(f"expected a vector of length {self.dim}, got shape {np.shape(term)}")
        return flat

    def add(self, term: np.ndarray) -> None:
        """Add one vector to the exact running sum (error-free)."""
        self._settle()
        q = self._vector(term).astype(self.dtype, copy=False)
        if self._wide is not None:
            comps = _grow(self._comps, q, self._wide)
            if not (comps[-1].max() < self._limit and comps[-1].min() > -self._limit):  # True at a NaN
                # a sum this large could overflow the format: from here its own cascade decides
                self._comps, self._wide = _narrow(self._comps, self.dtype), None
        if self._wide is None:
            comps = _grow(self._comps, q, self.dtype)
        self._comps = comps
        if len(comps) > self._compact_at:
            self._compact()

    def _compact(self) -> None:
        """Pack each lane's non-zero components down to the lowest slots.

        The grow cascade prunes a component array only when *every* lane is
        zero, so with many lanes the array count can creep far past the
        per-lane non-overlap bound.  Dropping per-lane zeros (an exact,
        order-preserving operation — the invariants allow zeros anywhere)
        bounds the count by the widest lane's expansion, typically 2-5.
        """
        stack = np.stack(self._comps)
        nonzero = stack != 0
        depth = int(nonzero.sum(axis=0).max()) if stack.size else 0
        depth = max(depth, 1)
        packed = np.zeros((depth, self.dim), dtype=stack.dtype)
        rows, cols = np.nonzero(nonzero)
        packed[nonzero.cumsum(axis=0)[rows, cols] - 1, cols] = stack[rows, cols]
        self._comps = list(packed)
        # Hysteresis: don't thrash when a genuinely deep expansion compacts
        # to just under the trigger.
        self._compact_at = max(8, 2 * depth)

    def merge(self, other: "ExactPartial | Sequence[np.ndarray]") -> None:
        """Fold another partial (or its shipped components) into this one.

        Exact: a component is just a float vector, so adding each (as a
        block row) preserves the combined exact value — this is what makes
        the accumulator associative across arbitrary shard groupings.
        """
        comps = other.components if isinstance(other, ExactPartial) else other
        for comp in comps:
            self.row()[...] = self._vector(comp)

    # -------------------------------------------------------------- rounding
    def round(self) -> np.ndarray:
        """The exact accumulated sum, correctly rounded to one vector — see
        :func:`_round` and "Long vectors"."""
        self._settle()
        comps = self._comps
        if self._wide is None or not comps:
            return _round(comps, self.dim, self.dtype)
        out = np.add(comps[-1], 0.0, dtype=self.dtype)  # one rounding; -0.0 → +0.0
        lanes = np.flatnonzero(np.logical_or.reduce([c != 0 for c in comps[:-1]]))  # held in more than one
        out[lanes] = _round(_narrow([c[lanes] for c in comps], self.dtype), lanes.size, self.dtype)
        return out


def _grow(comps: List[np.ndarray], q: np.ndarray, dtype: np.dtype) -> List[np.ndarray]:
    """``comps`` (an expansion, smallest magnitude first) plus ``q``, exactly,
    in ``dtype``.  Column-tiled: the temporaries are four reused tiles, and an
    error array is allocated, written and kept only where a tile of it is non-zero."""
    if not comps:
        return [q.astype(dtype)]
    dim, width = len(q), _TILE_BYTES // dtype.itemsize
    total, errs = np.empty(dim, dtype), [None] * len(comps)
    tiles = np.empty((4, min(width, dim)), dtype)  # one allocation, four tiles
    for lo in range(0, dim, width):
        acc = q[lo : lo + width]
        s0, s1, bv, av = (t[: len(acc)] for t in tiles)
        for i, e in enumerate(comps):
            # Knuth TwoSum (Shewchuk's names): s + err == acc + e exactly, in any order.  Down the components
            # (GROW-EXPANSION) it keeps the expansion non-overlapping and increasing, as _round needs.
            e, s = e[lo : lo + width], total[lo : lo + width] if i == len(comps) - 1 else (s0, s1)[i % 2]
            np.add(acc, e, out=s)
            np.subtract(s, acc, out=bv)
            np.subtract(s, bv, out=av)
            np.subtract(acc, av, out=av)  # a_roundoff
            np.subtract(e, bv, out=bv)  # b_roundoff
            np.add(av, bv, out=bv)  # err; av += bv on a one-lane tile can return bv's NaN, not av's
            if bv.any():
                if errs[i] is None:
                    errs[i] = np.zeros(dim, dtype)
                errs[i][lo : lo + width] = bv
            acc = s
    return [a for a in errs if a is not None] + [total]


def _narrow(comps: Sequence[np.ndarray], dtype: np.dtype) -> List[np.ndarray]:
    """A float64 expansion of ``dtype`` values as one in ``dtype`` (exact: every
    component is a multiple of the least subnormal), never empty once added to."""
    out: List[np.ndarray] = []
    for comp in comps:
        while comp.any() or not out:
            piece = comp.astype(dtype)
            out, comp = _grow(out, piece, dtype), comp - piece
    return out


def _round(comps: Sequence[np.ndarray], dim: int, dtype: np.dtype) -> np.ndarray:
    """``math.fsum``'s final-rounding step, vectorised: walk the components
    from the largest down until a non-zero low-order residue appears, then
    nudge by one ulp when that residue is exactly half an ulp and the remaining
    tail pushes the exact value past the halfway point.  A function of the
    exact sum alone, not of its expansion (an exactly zero lane is ``+0.0``)."""
    if not comps:
        return np.zeros(dim, dtype=dtype)
    hi = comps[-1] + dtype.type(0)  # a copy; -0.0 → +0.0, and no sum below can undo it
    if len(comps) == 1:
        return hi
    lo = np.zeros_like(hi)
    done = np.zeros(dim, dtype=bool)
    tail_sign = np.zeros_like(hi)
    for y in reversed(comps[:-1]):
        active = ~done
        s = hi + y
        yr = s - hi
        resid = y - yr
        np.copyto(hi, s, where=active)
        np.copyto(lo, resid, where=active)
        newly = active & (lo != 0)
        done |= newly
        # For lanes whose residue is already fixed, remember the sign of
        # the largest non-zero remaining component (non-overlap makes it
        # dominate the tail) — the halfway-case tie breaker below.
        need_sign = done & ~newly & (tail_sign == 0) & (y != 0)
        np.copyto(tail_sign, np.sign(y), where=need_sign)
    half = dtype.type(2.0) * lo
    bumped = hi + half
    exact_bump = (bumped - hi) == half
    fix = exact_bump & (lo != 0) & (np.sign(lo) == tail_sign)
    np.copyto(hi, bumped, where=fix)
    return hi


# ------------------------------------------------------------------ packing
def pack_partial(partial: ExactPartial) -> "Dict[str, np.ndarray]":
    """Render a partial as a wire payload: ``{"psum:0": c0, "psum:1": c1, …}``.

    Largest component first, so a lossy edge→root codec (which quantises
    per tensor) spends its fidelity on the dominant term.
    """
    comps = partial.components
    if not comps:  # an empty partial is exactly zero — ship it explicitly
        comps = (np.zeros(partial.dim, dtype=partial.dtype),)
    return {f"{PSUM_PREFIX}:{i}": comp for i, comp in enumerate(reversed(comps))}


def unpack_partial(payload: Mapping[str, np.ndarray]) -> List[np.ndarray]:
    """Inverse of :func:`pack_partial` (component order is irrelevant to the
    exact value; returned largest-first as packed)."""
    keys = sorted(
        (k for k in payload if k.startswith(PSUM_PREFIX + ":")),
        key=lambda k: int(k.split(":", 1)[1]),
    )
    if not keys:
        raise ValueError(f"payload holds no {PSUM_PREFIX!r} components: {sorted(payload)}")
    return [np.asarray(payload[k]) for k in keys]
