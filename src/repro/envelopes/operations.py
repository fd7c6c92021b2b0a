"""Deviation and deconvolution operations on envelope curves.

These four functions implement, exactly, the quantities that the paper's
server theorems need:

* :func:`busy_interval` — Theorem 1(1): the maximal busy interval ``B``,
  the first instant at which the service staircase has caught up with the
  arrival envelope.
* :func:`vertical_deviation` — Theorem 1(2): the worst-case backlog (buffer
  requirement) ``F``.
* :func:`horizontal_deviation` — Theorem 1(3): the worst-case delay ``chi``
  (and the FIFO output-port delay bound of refs [2, 14]).
* :func:`deconvolve` — Theorem 1(4) / Eq. (12): the output-traffic envelope
  ``sup_t [A(t + I) - S(t)]`` restricted to ``t`` in the busy interval.

All operations are exact for piecewise-linear inputs: candidate extremal
points are enumerated from the curves' breakpoints, and between candidates
the objective is affine.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.envelopes.curve import EPS, Curve, _left_limits_at, _slopes_at


def busy_interval(arrival: Curve, service: Curve, t_max: float = math.inf) -> float:
    """The maximal busy interval ``B = min { t > 0 : A(t) <= S(t) }``.

    Returns 0.0 when the server is never backlogged (``A <= S`` from the
    start), and ``math.inf`` when the arrival rate exceeds the service rate
    so the backlog never clears (the unstable case of Theorem 1).

    Parameters
    ----------
    arrival, service:
        The cumulative arrival envelope ``A`` and availability curve ``S``.
    t_max:
        Optional search cut-off; ``inf`` by default (the final affine
        segments make an exact unbounded search possible).
    """
    xs = np.union1d(arrival.xs, service.xs)
    xs = xs[xs <= t_max]
    if len(xs):
        a_vals = arrival(xs)
        diff = a_vals - service(xs)
        tol = 1e-9 * np.maximum(1.0, np.abs(a_vals))
        hits = (xs > 0) & (diff <= tol)
        if hits.any():
            # First breakpoint at which the service has caught up; locate
            # the crossing inside the preceding segment when the arrival
            # was still ahead there.
            k = int(np.argmax(hits))
            x = float(xs[k])
            if k >= 1 and float(diff[k - 1]) > float(tol[k]):
                sa = float(_slopes_at(arrival, xs[k - 1 : k])[0])
                ss = float(_slopes_at(service, xs[k - 1 : k])[0])
                dslope = sa - ss
                if dslope < -EPS:
                    t_cross = float(xs[k - 1]) - float(diff[k - 1]) / dslope
                    # The crossing may occur before the breakpoint (inside
                    # the open segment) only if both curves are continuous
                    # there; a jump in S at `x` can also close the gap.
                    if t_cross < x - EPS:
                        return float(t_cross)
            return x
    # Beyond the last breakpoint both curves are affine.
    x0 = float(xs[-1]) if len(xs) else 0.0
    a0 = float(arrival(x0))
    diff0 = a0 - float(service(x0))
    tol0 = 1e-9 * max(1.0, abs(a0))
    dslope = arrival.final_slope - service.final_slope
    if diff0 <= tol0:
        return x0 if x0 > 0 else 0.0
    if dslope >= -EPS:
        return math.inf
    return float(x0 - diff0 / dslope)


def vertical_deviation(
    arrival: Curve, service: Curve, t_max: float = math.inf
) -> float:
    """``sup_{0 < t <= t_max} [A(t) - S(t)]`` — the worst-case backlog.

    With ``t_max = inf`` the supremum over the final affine region is
    included (it is ``+inf`` when the arrival rate exceeds the service
    rate).
    """
    xs = np.union1d(arrival.xs, service.xs)
    xs = xs[xs <= t_max]
    if len(xs) == 0:
        xs = np.asarray([0.0])
    # Right values at the breakpoints, and left limits (a jump *down* in
    # A - S happens when S jumps, so the supremum may sit just before a
    # breakpoint).
    right = np.max(arrival(xs) - service(xs))
    left = np.max(_left_limits_at(arrival, xs) - _left_limits_at(service, xs))
    best = max(0.0, float(right), float(left))
    if math.isfinite(t_max):
        best = max(best, float(arrival(t_max) - service(t_max)))
        return best
    if arrival.final_slope > service.final_slope + EPS:
        return math.inf
    return best


def horizontal_deviation(
    arrival: Curve, service: Curve, t_max: float = math.inf
) -> float:
    """``sup_{0 < t <= t_max} min { d >= 0 : S(t + d) >= A(t) }``.

    This is the classical worst-case FIFO delay: the maximal horizontal
    distance from the arrival envelope to the service curve.  Returns
    ``math.inf`` when the system is unstable (``A``'s long-term rate exceeds
    ``S``'s) or when ``S`` plateaus below a value ``A`` reaches.
    """
    if math.isinf(t_max) and arrival.final_slope > service.final_slope + EPS:
        return math.inf

    # Candidate t values where the delay function d(t) = S^{-1}(A(t)) - t can
    # peak: arrival breakpoints (tail of a burst), and points where A(t)
    # crosses a service breakpoint value (d changes slope there).  Left
    # limits at service jumps and a nudge past each candidate cover suprema
    # that are approached but not attained.
    service_levels = np.concatenate(
        [service.ys, _left_limits_at(service, service.xs[1:])]
    )
    crossing_ts = arrival.pseudo_inverse_many(service_levels)
    crossing_ts = crossing_ts[np.isfinite(crossing_ts)]
    cands = np.concatenate([arrival.xs, crossing_ts])
    cands = np.concatenate([cands, cands + 1e-9 * np.maximum(1.0, cands)])
    if math.isfinite(t_max):
        cands = cands[cands <= t_max + EPS]
        cands = np.append(cands, float(t_max))
    cands = cands[cands >= 0.0]
    if len(cands) == 0:
        return 0.0

    arr_vals = arrival(cands)
    s_times = service.pseudo_inverse_many(arr_vals)
    if np.any(np.isinf(s_times)):
        return math.inf
    best = float(np.max(s_times - cands))

    # Beyond the last candidate the delay function is affine with slope
    # (rate_A / rate_S - 1) <= 0 in the stable case, so the supremum over the
    # tail is attained at the last breakpoint already considered; in the
    # bounded case t_max is included above.
    return max(best, 0.0)


def token_bucket_majorant(curve: Curve) -> Tuple[float, float]:
    """The tightest (sigma, rho) with ``curve(t) <= sigma + rho * t``.

    ``rho`` is the curve's final slope; ``sigma`` the supremum of
    ``curve(t) - rho * t``, attained at a breakpoint (or a left limit just
    before one) because the difference is piecewise linear.
    """
    rho = curve.final_slope
    xs = curve.xs
    sigma = float(np.max(curve(xs) - rho * xs))
    if len(xs) > 1:
        lefts = _left_limits_at(curve, xs[1:]) - rho * xs[1:]
        sigma = max(sigma, float(np.max(lefts)))
    return max(0.0, sigma), rho


def thin_index(n: int, max_breakpoints: int) -> np.ndarray:
    """Sorted positions ``int(k * n / max_breakpoints)`` plus both endpoints.

    The indices :func:`deconvolve` keeps when its candidate grid of ``n``
    points exceeds ``max_breakpoints``.
    """
    step = n / float(max_breakpoints)
    idx = (np.arange(max_breakpoints) * step).astype(np.int64)
    return np.unique(np.concatenate([[0, n - 1], idx]))


def deconvolve(
    arrival: Curve,
    service: Curve,
    t_limit: float,
    i_max: Optional[float] = None,
    max_breakpoints: int = 512,
) -> Curve:
    """Output envelope ``O(I) = sup_{0 <= t <= t_limit} [A(t + I) - S(t)]``.

    ``t_limit`` should be the server's busy interval ``B`` (Theorem 1(4)
    restricts the supremum to the busy interval).  The result is exact: the
    supremum of finitely many affine-in-``I`` functions is evaluated at every
    ``I`` where the active function can change — the pairwise differences of
    breakpoints of ``A`` and ``S`` — and is affine in between.

    Parameters
    ----------
    i_max:
        Horizon after which the result continues with ``A``'s final slope.
        Defaults to ``A.last_breakpoint + t_limit`` which is provably
        sufficient for exactness.
    max_breakpoints:
        Safety valve for pathological inputs: if the candidate grid exceeds
        this size it is thinned (the result then interpolates between exact
        points of a non-decreasing function, and is re-majorized to stay
        conservative).
    """
    if not math.isfinite(t_limit):
        raise ValueError("deconvolution needs a finite busy interval")
    t_limit = max(0.0, t_limit)

    if i_max is None:
        i_max = arrival.last_breakpoint + t_limit + EPS

    # Candidate t values (within [0, t_limit]): breakpoints of S, and
    # breakpoints of A shifted by each candidate I — equivalently, we build
    # the candidate I grid from pairwise differences and evaluate the sup by
    # scanning t candidates per I.
    inner = service.xs[(service.xs > 0.0) & (service.xs < t_limit)]
    # The supremum can sit just *before* a service jump (where S is still at
    # its left limit); nudged candidates capture it to within the nudge.
    nudge_src = np.concatenate([service.xs, [t_limit]])
    nudge_src = nudge_src[(nudge_src > 0.0) & (nudge_src <= t_limit)]
    nudged = np.maximum(0.0, nudge_src - 1e-9 * np.maximum(1.0, nudge_src))
    t_base = np.unique(np.concatenate([[0.0, t_limit], inner, nudged]))

    # Candidate I grid: pairwise differences ax - t, plus the arrival
    # breakpoints themselves, clipped to (0, i_max).
    diffs = (arrival.xs[:, None] - t_base[None, :]).ravel()
    diffs = diffs[(diffs > 0.0) & (diffs < i_max)]
    ax_inner = arrival.xs[(arrival.xs > 0.0) & (arrival.xs < i_max)]
    i_arr = np.unique(np.concatenate([[0.0, float(i_max)], diffs, ax_inner]))
    thinned = len(i_arr) > max_breakpoints
    if thinned:
        i_arr = i_arr[thin_index(len(i_arr), max_breakpoints)]

    # Branch 1 (service-relative candidates): sup over t in t_base of
    # A(t + I) - S(t), vectorized as a |I| x |t| matrix.  The evaluation of
    # A is inlined (all candidates are >= 0, so ``__call__``'s negative-t
    # clamp is a no-op) and chunked over I rows so the temporaries stay
    # cache-resident: the row maximum is order-independent and every
    # elementwise operation is unchanged, so the result is bit-identical
    # to the unchunked form.
    s_base = service(t_base)
    n_t = len(t_base)
    values = np.empty(len(i_arr))
    axs, ays, aslopes = arrival.xs, arrival.ys, arrival.slopes
    chunk = max(1, 262144 // max(1, n_t))
    for lo in range(0, len(i_arr), chunk):
        pts = t_base[None, :] + i_arr[lo:lo + chunk, None]
        idx = np.searchsorted(axs, pts, side="right") - 1
        np.maximum(idx, 0, out=idx)
        a_matrix = ays[idx] + aslopes[idx] * (pts - axs[idx])
        values[lo:lo + chunk] = np.max(a_matrix - s_base[None, :], axis=1)

    # Branch 2 (arrival-relative candidates): t = ax - I for each arrival
    # breakpoint ax; there A jumps to its right value ys[k].  Only the band
    # I <= ax <= I + t_limit can hold a valid t, so each row's columns are
    # located with two searchsorted calls, widened by a hair so rounding
    # cannot drop one.  The exact validity test on the band then keeps
    # precisely the (I, t) pairs a dense |I| x |A| evaluation would; each
    # value is the same ys[k] - S(t) and the row maximum only selects, so
    # the result is bit-identical to the dense form.
    pad = 1e-9 * (1.0 + t_limit + i_arr)
    first = np.searchsorted(axs, i_arr - pad, side="left")
    counts = np.searchsorted(axs, i_arr + t_limit + pad, side="right") - first
    starts = np.cumsum(counts) - counts
    rows = np.repeat(np.arange(len(i_arr)), counts)
    cols = np.arange(int(counts.sum())) + np.repeat(first - starts, counts)
    t_band = axs[cols] - i_arr[rows]
    valid = (t_band >= 0.0) & (t_band <= t_limit)
    branch2 = np.where(valid, ays[cols] - service(np.where(valid, t_band, 0.0)), -math.inf)
    hit = counts > 0
    values[hit] = np.maximum(values[hit], np.maximum.reduceat(branch2, starts[hit]))

    # O is non-decreasing in I; enforce against numerical noise.
    values = np.maximum.accumulate(values)

    if thinned:
        # Linear interpolation between thinned samples could undercut the
        # true (non-decreasing) function; a right-continuous staircase
        # through the *next* sample dominates it everywhere.
        ys = np.concatenate([values[1:], values[-1:]])
        slopes = np.concatenate(
            [np.zeros(len(i_arr) - 1), [arrival.final_slope]]
        )
        return Curve(i_arr, ys, slopes, validate=False).simplify()

    out = Curve.from_breakpoints(i_arr, values, final_slope=arrival.final_slope)
    return out.simplify()
