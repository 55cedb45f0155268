"""Fused pure-numpy kernels (the default ``"numpy"`` backend).

Three genuinely different formulations, not relabels of the step loops:

* :func:`ar1_scan` — a blocked *rescaled prefix scan*: within a chunk the
  recurrence ``y[i] = rho[i] y[i-1] + inn[i] z[i]`` telescopes to
  ``y[s+j] = (head + cumsum(w * z)[j]) * Q[j]`` with ``Q[j] = prod rho``
  and ``w = inn / Q``, so the Python loop shrinks from ``p`` steps to a
  handful of chunk steps of elementwise + cumsum work.  Chunks are cut
  greedily left-to-right (when the prefix product would underflow the
  rescaling floor, at a zero coefficient, or at the 8192-position cap),
  which makes the whole scan *prefix-stable*: position ``i``'s output
  depends only on coefficients/draws ``<= i``, bitwise — scanning a prefix
  of the grid equals the prefix of the scan.  That property is what keeps
  common-random-number candidate independence exact in
  :func:`ar1_min_scan`.
* :func:`ar1_min_scan` — candidates whose first scale and coefficient
  vectors share a prefix (every uniform ladder at one resolution and one
  shadowing draw) share **one** scan; the per-candidate minimum prunes
  columns through an exact probe bound, then reduces only the surviving
  contiguous spans (sound pruning — exact, not approximate).
* :func:`soc_scan` — hour-major walk *in SoC units*, streamed over blocks
  of days so its buffers stay O(block x lanes): normalizing the hourly
  deficit by capacity and scaling the surplus by ``efficiency / capacity``
  once per block collapses the per-hour update to
  ``soc' = soc - min(dd, max(0, soc - cutoff))`` on discharge and
  ``soc' = min(1, soc + min(ss, 1 - soc))`` on charge — four to nine
  elementwise ops per hour vs. ~30 in the reference walk, with each hour
  executing only the branch it needs.  Every non-recurrent accumulation is
  hoisted out of the hourly loop into one reduction per block; PV sums
  replay the reference summation order bitwise (``_hour_order_sum``), the
  SoC-dependent outputs agree to a few ULPs — inside the 1e-9 parity
  budget.

``occupancy_scan`` is re-exported from the reference backend unchanged:
its lane axis is already fully batched and the group loop is a handful of
iterations, so no fused formulation is needed.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.reference import occupancy_scan

__all__ = ["ar1_scan", "ar1_min_scan", "soc_scan", "occupancy_scan",
           "KERNELS"]

#: Chunk-length cap of the blocked scan.  The rescaling floor below is
#: what actually bounds chunk length (underflow forces an early cut); the
#: cap only limits how far past a cut the speculative ``cumprod`` may run,
#: so it is set high enough that realistic grids scan in one chunk.
_BLOCK = 8192

#: Column stride of the pruning probe: each candidate's per-trial upper
#: bound is the minimum over every 16th shadowed column — cheap, and tight
#: enough to prune most of the grid before the full reduction.
_PROBE_STRIDE = 16

#: Surviving columns closer than this are merged into one contiguous span
#: before the full reduction: a dominated column inside a span is harmless
#: (it can never win), and contiguous slices beat a fancy-index gather.
_SPAN_GAP = 64

#: Prefix products below this trigger an early chunk cut: the rescaled
#: weights ``inn / Q`` would otherwise overflow toward 1e308.  Cutting is
#: always safe (a chunk of length 1 degenerates to the plain recurrence).
_Q_FLOOR = 1e-250

#: Days per block of the streamed SoC walk.  Its buffers are
#: ``(24 * _BLOCK_DAYS, n)``: ~0.2 MB each for 140 lanes, against ~10 MB
#: for a whole year.  Outputs do not depend on the value, bit for bit.
_BLOCK_DAYS = 7


def _chunk_plan(rho: np.ndarray, innovation: np.ndarray, first_scale: float,
                p: int) -> list[tuple]:
    """Chunk schedule of the blocked scan over ``p`` positions.

    Returns ``(s, e, head, q, w)`` per chunk ``[s, e)``: the coefficient
    carrying the previous chunk's last value in, the prefix products and
    the rescaled weights.  A virtual coefficient 0 and innovation
    ``first_scale`` ahead of position 0 turn the seed into a regular step.
    Chunks are cut greedily left to right — when the prefix product would
    underflow the rescaling floor, at a zero coefficient, or at the
    :data:`_BLOCK` cap — so the cuts, like every output, depend only on the
    coefficient prefix.
    """
    rho_eff = np.empty(p)
    rho_eff[0] = 0.0
    rho_eff[1:] = rho[:p - 1]
    inn_eff = np.empty(p)
    inn_eff[0] = first_scale
    inn_eff[1:] = innovation[:p - 1]
    plan = []
    s = 0
    while s < p:
        stop = min(s + _BLOCK, p)
        qp = np.cumprod(rho_eff[s + 1:stop])
        bad = np.flatnonzero(np.abs(qp) < _Q_FLOOR)
        if bad.size:
            e = s + 1 + int(bad[0])
            qp = qp[:int(bad[0])]
        else:
            e = stop
        q = np.empty(e - s)
        q[0] = 1.0
        q[1:] = qp
        plan.append((s, e, rho_eff[s], q, inn_eff[s:e] / q))
        s = e
    return plan


def ar1_scan(z: np.ndarray, rho: np.ndarray, innovation: np.ndarray,
             first_scale: float) -> np.ndarray:
    """Blocked rescaled-prefix AR(1) scan over the last axis.

    Same contract as the reference kernel (see
    :func:`repro.kernels.reference.ar1_scan`); rounding introduced at step
    ``i`` decays into step ``j`` by ``rho^(j-i)``, so the output matches
    the reference to ``~eps * min(p, 1/(1-rho))`` absolute — well inside
    the 1e-9 parity pin — and is bitwise prefix-stable in ``p``.

    Args:
        z: Standard normals, shape ``(..., p)``.
        rho: Per-step AR coefficients, length ``>= p - 1``.
        innovation: Per-step innovation scales, length ``>= p - 1``.
        first_scale: Scale of the first sample.

    Returns:
        The recurrence output, same shape as ``z``.
    """
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    carry = np.zeros(z.shape[:-1] + (1,))
    for s, e, head, q, w in _chunk_plan(rho, innovation, first_scale,
                                        z.shape[-1]):
        seg = out[..., s:e]
        np.multiply(z[..., s:e], w, out=seg)
        # Seeding the head into the first column lets the cumsum carry it
        # across the chunk — one full elementwise pass fewer than adding it
        # to every column afterwards.  The head is exactly 0 at s = 0 and
        # after a zero coefficient.
        np.add(seg[..., :1], head * carry, out=seg[..., :1])
        np.cumsum(seg, axis=-1, out=seg)
        np.multiply(seg, q, out=seg)
        carry = out[..., e - 1:e]
    return out


def _scan_t(z_t: np.ndarray, plan: list[tuple]) -> np.ndarray:
    """:func:`ar1_scan` of one chunk schedule, position-major.

    ``z_t`` is the ``[position, trial]`` draw and ``plan`` the
    :func:`_chunk_plan` of the coefficients.  Returns ``[position,
    trial]``, bitwise the transpose of :func:`ar1_scan`: every element sees
    the same multiplies and the same sequential cumulative adds, only
    along the other axis — and the span reduction of :func:`_group_minima`
    then runs down contiguous trial lanes without a transposed copy.
    """
    out = np.empty(z_t.shape)
    carry = np.zeros((1, z_t.shape[1]))
    for s, e, head, q, w in plan:
        seg = out[s:e]
        np.multiply(z_t[s:e], w[:, None], out=seg)
        np.add(seg[:1], head * carry, out=seg[:1])
        np.cumsum(seg, axis=0, out=seg)
        np.multiply(seg, q[:, None], out=seg)
        carry = out[e - 1:e]
    return out


def _group_minima(scan_t: np.ndarray, snr: np.ndarray, sizes: np.ndarray,
                  members: list[int], mins: np.ndarray) -> None:
    """Fill ``mins[c]`` for each member from its group's ``[position,
    trial]`` scan: the minimum over ``i < sizes[c]`` of
    ``snr[c, i] + scan_t[i]``, visiting only columns that can win.

    Exact pruning, two bounds deep: a strided probe's per-trial minimum
    ``u`` is a true upper bound on each trial's final minimum, so any
    column whose best case ``snr + col_min`` exceeds ``T = max(u)`` can
    never achieve any trial's minimum — and each trial's argmin column
    survives the cut (its value is ``<= u_t <= T``).  Survivors merge into
    contiguous spans, reduced through one reused cache-resident buffer
    with the minimum running down contiguous trial lanes.
    """
    trials = scan_t.shape[1]
    col_min = scan_t.min(axis=1)
    # One contiguous copy of every _PROBE_STRIDE-th position: the
    # per-candidate probe then runs on dense memory.
    probe_scan = np.ascontiguousarray(scan_t[::_PROBE_STRIDE])
    plans = []
    widest = 1
    pbuf = np.empty((probe_scan.shape[0], trials))
    cbuf = np.empty(scan_t.shape[0])
    for c in members:
        pc = int(sizes[c])
        row = snr[c, :pc]
        k = -(-pc // _PROBE_STRIDE)   # probe columns 16*i < pc
        np.add(probe_scan[:k], row[::_PROBE_STRIDE, None], out=pbuf[:k])
        # u is itself an exact minimum over probe columns, so reducing it
        # straight into the output row seeds the span reduction; every
        # argmin column is inside some span.
        u = mins[c]
        np.minimum.reduce(pbuf[:k], axis=0, out=u)
        np.add(row, col_min[:pc], out=cbuf[:pc])
        keep = np.flatnonzero(cbuf[:pc] <= u.max())
        # Merge survivors into contiguous spans; dominated columns
        # swallowed by a span are harmless (they never win).
        cuts = np.flatnonzero(np.diff(keep) > _SPAN_GAP)
        starts = np.concatenate(([keep[0]], keep[cuts + 1]))
        ends = np.concatenate((keep[cuts], [keep[-1]])) + 1
        plans.append((c, row, starts, ends))
        widest = max(widest, int((ends - starts).max()))
    buf = np.empty((widest, trials))
    for c, row, starts, ends in plans:
        for lo, hi in zip(starts, ends):
            part = np.add(scan_t[lo:hi], row[lo:hi, None], out=buf[:hi - lo])
            np.minimum(mins[c], part.min(axis=0), out=mins[c])


def ar1_min_scan(snr: np.ndarray, rho: np.ndarray, innovation: np.ndarray,
                 z: np.ndarray, first_scale: float | np.ndarray,
                 sizes: np.ndarray) -> np.ndarray:
    """Grouped blocked scan + pruned minimum over shadowed SNR columns.

    Candidates are grouped by first scale and shared coefficient prefix
    (after sorting by grid size, a candidate joins a group when its scale
    equals the leader's and its coefficients equal the leader's, bit for
    bit, over its own length); each group needs **one** scan of the shared
    normal draws — prefix stability makes the first ``p_c`` positions
    bitwise equal to the scan the candidate would run alone, so
    common-random-number independence across candidates is preserved
    exactly.  Each group's scan runs position-major (:func:`_scan_t`), and
    each candidate's minimum then comes from :func:`_group_minima`'s exact
    pruned reduction.

    Args / Returns: see :func:`repro.kernels.reference.ar1_min_scan`.
    """
    n_cand = snr.shape[0]
    trials = z.shape[0]
    sizes = np.asarray(sizes, dtype=np.intp)
    scales = np.broadcast_to(np.asarray(first_scale, dtype=float),
                             (n_cand,)).tolist()
    mins = np.empty((n_cand, trials))

    # Group by scale and coefficient prefix, longest grids first so group
    # leaders cover their members.  Bytes prefixes compare bit for bit.
    leads: list[tuple[float, bytes, bytes]] = []
    groups: list[list[int]] = []
    for c in np.argsort(-sizes, kind="stable").tolist():
        steps = int(sizes[c]) - 1
        key = (scales[c], rho[c, :steps].tobytes(),
               innovation[c, :steps].tobytes())
        for (scale, r, i), g in zip(leads, groups):
            if scale == key[0] and r.startswith(key[1]) \
                    and i.startswith(key[2]):
                g.append(c)
                break
        else:
            leads.append(key)
            groups.append([c])

    # A transposed view of the draw: each scan reads it once, and a
    # position-major copy would add a scan-sized array to the peak.
    z_t = z.T
    for g in groups:
        lead = g[0]
        p = int(sizes[lead])
        plan = _chunk_plan(rho[lead], innovation[lead], scales[lead], p)
        _group_minima(_scan_t(z_t[:p], plan), snr, sizes, g, mins)
    return mins


def _hour_order_sum(hourly: np.ndarray) -> np.ndarray:
    """Float sum over the hour axis, bitwise-identical to a ``+=`` loop.

    numpy's axis-0 reduction over a C-ordered 2-D array accumulates row by
    row (vectorized over the lanes) when there is more than one lane —
    exactly the reference loop's association.  The single-lane case falls
    back to pairwise summation inside numpy, so it is routed through
    ``np.add.at``, which is documented to apply updates one by one.
    """
    if hourly.shape[1] > 1:
        return np.sum(hourly, axis=0)
    out = np.zeros(hourly.shape[1])
    np.add.at(out, np.zeros(hourly.shape[0], dtype=np.intp), hourly[:, 0])
    return out


def _monthly_sums(hourly: np.ndarray, months: np.ndarray) -> np.ndarray:
    """Per-month hour-order float sums, shape ``(12, n)``.

    When every month forms a single contiguous day-run (any 365-day
    horizon, e.g. the Oct-1 default) each month's sum is one
    :func:`_hour_order_sum` over its slice — bitwise the reference
    accumulation.  Split months (wrapped starts, multi-year horizons) fall
    back to ``np.add.at``'s one-by-one updates, which replay the reference
    order exactly.
    """
    out = np.zeros((12, hourly.shape[1]))
    run_starts = np.concatenate(
        ([0], np.flatnonzero(np.diff(months) != 0) + 1))
    run_months = months[run_starts]
    if hourly.shape[1] > 1 and len(set(run_months.tolist())) == run_starts.size:
        run_ends = np.concatenate((run_starts[1:], [months.size]))
        for m, a, b in zip(run_months, run_starts, run_ends):
            out[int(m)] = np.sum(hourly[a * 24:b * 24], axis=0)
    else:
        np.add.at(out, np.repeat(months, 24), hourly)
    return out


def soc_scan(produced_w: np.ndarray, demanded_w: np.ndarray,
             months: np.ndarray, capacity_wh: np.ndarray,
             efficiency: np.ndarray, cutoff: np.ndarray,
             initial_soc: float) -> dict:
    """Hour-major SoC walk in SoC units, streamed over day blocks.

    The recurrence runs in state-of-charge units: with
    ``dd = (demanded - produced) / capacity`` and
    ``ss = (produced - demanded) * efficiency / capacity`` precomputed as
    whole-block passes, each hour reduces to

    * pure discharge — ``delivered = min(dd, max(0, soc - cutoff))``,
      ``soc' = soc - delivered`` (4 ops);
    * pure charge — ``soc' = min(1, soc + min(ss, 1 - soc))``, delivered
      is the (non-positive) deficit (5 ops);
    * mixed — both branches merged through the charging mask (9 ops).

    The horizon is walked in blocks of :data:`_BLOCK_DAYS` days through
    ``(block hours, n)`` buffers, so a call over many lanes holds no
    horizon-sized temporary.  Each block's accounting is reduced before
    the next block starts: min SoC, full days and unmet counts exactly
    (integers and minima do not depend on grouping), and the unmet energy
    by summing every block behind a running-accumulator row, which keeps
    the hour-order association of one whole-horizon sum.  The PV sums are
    hour-order sums over the untouched input (see :func:`_hour_order_sum`),
    bitwise the reference accumulation; the SoC-dependent outputs differ
    from the reference walk only by elementwise rounding — a few ULPs, far
    inside the 1e-9 backend parity budget.  Every output is independent of
    the block length, bit for bit, and each lane's outputs are independent
    of the other lanes.  The ``"reference"`` backend is the bitwise anchor.

    Args / Returns: see :func:`repro.kernels.reference.soc_scan`.
    """
    days = produced_w.shape[0]
    n = produced_w.shape[-1]
    produced = produced_w.reshape(days * 24, n)
    surplus_scale = -(efficiency / capacity_wh)
    unmet_floor = 1e-9 / capacity_wh

    block_rows = min(days, _BLOCK_DAYS) * 24
    dd_buf = np.empty((block_rows, n))
    ss_buf = np.empty((block_rows, n))
    soc_buf = np.empty((block_rows, n))
    # Row 0 carries the running unmet-energy sum into each block's sum.
    delivered_buf = np.empty((block_rows + 1, n))   # in SoC units
    charging_buf = np.empty((block_rows, n), dtype=bool)
    b1 = np.empty(n)
    b2 = np.empty(n)

    soc = np.full(n, float(initial_soc))
    min_soc = soc.copy()
    full_days = np.zeros(n, dtype=int)
    unmet_hours = np.zeros(n, dtype=int)
    monthly_unmet = np.zeros((12, n), dtype=int)
    unmet_sum = np.zeros(n)
    for first_day in range(0, days, _BLOCK_DAYS):
        block_days = min(_BLOCK_DAYS, days - first_day)
        rows = block_days * 24
        block = produced_w[first_day:first_day + block_days]
        charging = charging_buf[:rows]
        np.greater_equal(block, demanded_w[None],
                         out=charging.reshape(block_days, 24, n))
        any_charge = charging.any(axis=1).tolist()
        all_charge = charging.all(axis=1).tolist()
        # Hourly deficit and efficiency-scaled surplus, in SoC units.  The
        # surplus is derived from the deficit (exact sign flip) before the
        # in-place normalization reuses it.
        dd = dd_buf[:rows]
        np.subtract(demanded_w[None], block,
                    out=dd.reshape(block_days, 24, n))
        ss = np.multiply(dd, surplus_scale, out=ss_buf[:rows])
        dd /= capacity_wh
        socs = soc_buf[:rows]
        delivered = delivered_buf[1:rows + 1]
        # Pre-sliced row views: list indexing is several times cheaper
        # than ndarray row indexing inside the hourly loop.
        soc_rows = list(socs)
        d_rows = list(delivered)
        dd_rows = list(dd)
        ss_rows = list(ss)
        ch_rows = list(charging)
        for h in range(rows):
            soc_row = soc_rows[h]
            d_row = d_rows[h]
            if not any_charge[h]:
                # Pure discharge: soc' = soc - min(dd, max(0, soc - cutoff)).
                np.subtract(soc, cutoff, out=b2)
                np.maximum(0.0, b2, out=b2)                 # usable
                np.minimum(dd_rows[h], b2, out=d_row)       # delivered
                np.subtract(soc, d_row, out=soc_row)
            elif all_charge[h]:
                # Pure charge: delivered == deficit (<= 0) exactly.
                np.subtract(1.0, soc, out=b1)
                np.minimum(ss_rows[h], b1, out=b1)          # taken
                np.add(soc, b1, out=b1)
                np.minimum(1.0, b1, out=soc_row)
                np.copyto(d_row, dd_rows[h])
            else:
                # Mixed hour: both branches, merged like the reference.  On
                # charging lanes dd <= 0 <= usable, so the delivered row is
                # automatically the charge-branch deficit — no fixup needed.
                np.subtract(1.0, soc, out=b1)
                np.minimum(ss_rows[h], b1, out=b1)
                np.add(soc, b1, out=b1)
                np.minimum(1.0, b1, out=b1)                 # soc_charged
                np.subtract(soc, cutoff, out=b2)
                np.maximum(0.0, b2, out=b2)
                np.minimum(dd_rows[h], b2, out=d_row)
                np.subtract(soc, d_row, out=soc_row)        # soc_discharged
                np.copyto(soc_row, b1, where=ch_rows[h])
            soc = soc_row
        # The next block overwrites this buffer; carry the state out of it.
        soc = soc.copy()

        np.minimum(min_soc, socs.min(axis=0), out=min_soc)
        full_days += (socs.reshape(block_days, 24, n)
                      >= 1.0 - 1e-9).any(axis=1).sum(axis=0)
        # Shortfall (SoC units) and the unmet flag.  Scaling the
        # reference's 1e-9 Wh threshold by capacity keeps the decision
        # aligned up to one rounding of the knife edge; masking by
        # multiplication is exact (True -> x * 1.0, False -> 0.0).
        np.subtract(dd, delivered, out=delivered)           # shortfall
        unmet = np.greater(delivered, unmet_floor, out=charging)
        np.multiply(delivered, unmet, out=delivered)
        unmet_hours += unmet.sum(axis=0)
        # Integer counts are exact under any grouping, so each day adds
        # its count to its month in one scatter.
        np.add.at(monthly_unmet, months[first_day:first_day + block_days],
                  unmet.reshape(block_days, 24, n).sum(axis=1))
        delivered_buf[0] = unmet_sum
        unmet_sum = _hour_order_sum(delivered_buf[:rows + 1])

    return {
        "min_soc": min_soc,
        "full_days": full_days,
        "unmet_hours": unmet_hours,
        "unmet_wh": unmet_sum * capacity_wh,
        "annual_pv_wh": _hour_order_sum(produced),
        # The demand tile repeats one 24-row block, so its sequential sum
        # collapses to a closed form (equal to the reference accumulation
        # to ~1e-13 relative).
        "annual_load_wh": demanded_w.sum(axis=0) * float(days),
        "monthly_pv_wh": np.ascontiguousarray(
            _monthly_sums(produced, months).T),
        "monthly_unmet_hours": np.ascontiguousarray(monthly_unmet.T),
    }


#: Kernel table of the ``"numpy"`` backend.
KERNELS = {
    "ar1_scan": ar1_scan,
    "ar1_min_scan": ar1_min_scan,
    "soc_scan": soc_scan,
    "occupancy_scan": occupancy_scan,
}
