"""Independent reference implementations used to cross-check the library.

Everything here is written from the operation definitions, not from the
library code: morphology walks pixel neighborhoods via coordinate sets,
the Otsu reference recomputes between-class variance from prefix sums
with exact integer arithmetic, Euler numbers come from flood-filling
enclosed background, solidity from Qhull half-space containment, and
matching from exhaustive assignment search. The four-gather resampling
and all-pairs matching references are the plain formulations the
library once used, and the pixel-scoring reference is the library's
summation order written over whole arrays; the library must match them
bit for bit.
"""

from __future__ import annotations

import itertools
import math
from collections import deque

import numpy as np

from raftcensus.evaluation import MatchPair


# --- morphology -----------------------------------------------------------

def ref_erode(m: np.ndarray, offsets) -> np.ndarray:
    """Definition: output true iff every offset neighbor is true."""
    fg = {(int(r), int(c)) for r, c in zip(*np.nonzero(m))}
    out = np.zeros(m.shape, dtype=bool)
    for r, c in fg:
        if all((r + dy, c + dx) in fg for dy, dx in offsets):
            out[r, c] = True
    return out


def ref_dilate(m: np.ndarray, offsets) -> np.ndarray:
    """Definition: output true iff any offset neighbor is true."""
    h, w = m.shape
    out = np.zeros(m.shape, dtype=bool)
    for r, c in zip(*np.nonzero(m)):
        for dy, dx in offsets:
            rr, cc = int(r) - dy, int(c) - dx
            if 0 <= rr < h and 0 <= cc < w:
                out[rr, cc] = True
    return out


def ref_open(m, offsets):
    return ref_dilate(ref_erode(m, offsets), offsets)


def ref_close(m, offsets):
    return ref_erode(ref_dilate(m, offsets), offsets)


def ref_bottom_hat(m, offsets):
    return ref_close(m, offsets) & ~np.asarray(m, dtype=bool)


# --- otsu -----------------------------------------------------------------

def ref_otsu(counts) -> int:
    """Exhaustive scan of all 255 splits with exact integer arithmetic.

    Maximizes w0*w1*(mu0-mu1)^2 = (s0*n1 - s1*n0)^2 / (n0*n1) up to a
    constant; ties resolve to the smallest t.
    """
    counts = [int(c) for c in counts]
    total = sum(counts)
    n_prefix = list(itertools.accumulate(counts))
    s_prefix = list(itertools.accumulate(i * c for i, c in enumerate(counts)))
    best_t, best_num, best_den = -1, -1, 1
    for t in range(len(counts) - 1):
        n0 = n_prefix[t]
        n1 = total - n0
        if n0 == 0 or n1 == 0:
            continue
        s0 = s_prefix[t]
        s1 = s_prefix[-1] - s0
        num = (s0 * n1 - s1 * n0) ** 2
        den = n0 * n1
        if num * best_den > best_num * den:
            best_t, best_num, best_den = t, num, den
    return best_t


# --- connected components / blob features ----------------------------------

def ref_label_partition(m: np.ndarray) -> set[frozenset]:
    """8-connected components as a set of pixel sets, via flood fill."""
    m = np.asarray(m, dtype=bool)
    h, w = m.shape
    seen = np.zeros_like(m)
    parts = set()
    for r0, c0 in zip(*np.nonzero(m)):
        if seen[r0, c0]:
            continue
        stack = [(int(r0), int(c0))]
        seen[r0, c0] = True
        comp = []
        while stack:
            r, c = stack.pop()
            comp.append((r, c))
            for dr in (-1, 0, 1):
                for dc in (-1, 0, 1):
                    rr, cc = r + dr, c + dc
                    if 0 <= rr < h and 0 <= cc < w and m[rr, cc] and not seen[rr, cc]:
                        seen[rr, cc] = True
                        stack.append((rr, cc))
        parts.add(frozenset(comp))
    return parts


def ref_euler(pixels: np.ndarray, bbox) -> int:
    """1 - number of 4-connected background regions not touching the
    padded window border."""
    r0, c0, r1, c1 = bbox
    h, w = r1 - r0 + 3, c1 - c0 + 3
    win = np.zeros((h, w), dtype=bool)
    win[pixels[:, 0] - r0 + 1, pixels[:, 1] - c0 + 1] = True
    bg = ~win
    seen = np.zeros_like(bg)
    holes = 0
    for sr in range(h):
        for sc in range(w):
            if not bg[sr, sc] or seen[sr, sc]:
                continue
            q = deque([(sr, sc)])
            seen[sr, sc] = True
            touches_border = False
            while q:
                r, c = q.popleft()
                if r in (0, h - 1) or c in (0, w - 1):
                    touches_border = True
                for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    rr, cc = r + dr, c + dc
                    if 0 <= rr < h and 0 <= cc < w and bg[rr, cc] and not seen[rr, cc]:
                        seen[rr, cc] = True
                        q.append((rr, cc))
            if not touches_border:
                holes += 1
    return 1 - holes


def ref_convex_area(pixels: np.ndarray, bbox) -> int:
    """Qhull hull of pixel corner points; centers counted by half-space
    containment with a tolerance far below the coordinate granularity."""
    from scipy.spatial import ConvexHull

    corners = set()
    for r, c in pixels:
        for dr in (0, 1):
            for dc in (0, 1):
                corners.add((int(r) + dr, int(c) + dc))
    hull = ConvexHull(np.array(sorted(corners), dtype=float))
    eqs = hull.equations
    r0, c0, r1, c1 = bbox
    count = 0
    for r in range(r0, r1 + 1):
        for c in range(c0, c1 + 1):
            p = np.array([r + 0.5, c + 0.5])
            if np.all(eqs[:, :2] @ p + eqs[:, 2] <= 1e-9):
                count += 1
    return count


# --- matching ---------------------------------------------------------------

def ref_max_matching_count(detections, truths, max_dist: float) -> int:
    """Maximum-cardinality matching within the gate, by exhaustive search."""
    n, k = len(detections), len(truths)
    ok = [
        [
            math.hypot(d[1] - t[0], d[2] - t[1]) <= max_dist
            for t in truths
        ]
        for d in detections
    ]
    best = 0
    order = list(range(k))
    for r in range(min(n, k), 0, -1):
        if r <= best:
            break
        for dsel in itertools.combinations(range(n), r):
            found = False
            for tperm in itertools.permutations(order, r):
                if all(ok[d][t] for d, t in zip(dsel, tperm)):
                    found = True
                    break
            if found:
                best = r
                break
        if best == r:
            break
    return best


def ref_match_all_pairs(detections, truths, max_dist: float) -> list:
    """Greedy one-to-one matching after the exact test on every pair."""
    pairs = []
    for di, (_, dr, dc) in enumerate(detections):
        for ti, (tr, tc) in enumerate(truths):
            d = math.hypot(dr - tr, dc - tc)
            if d <= max_dist:
                pairs.append((d, di, ti))
    pairs.sort()
    used_det: set[int] = set()
    used_truth: set[int] = set()
    matches = []
    for d, di, ti in pairs:
        if di in used_det or ti in used_truth:
            continue
        used_det.add(di)
        used_truth.add(ti)
        matches.append(MatchPair(detections[di][0], ti, d))
    return matches


# --- interpolation -----------------------------------------------------------

def ref_bilinear(p: np.ndarray, factor: int) -> np.ndarray:
    """Direct per-pixel evaluation of the pixel-center bilinear formula."""
    p = np.asarray(p, dtype=float)
    h, w = p.shape
    out = np.empty((h * factor, w * factor))
    for i in range(h * factor):
        y = min(max((i + 0.5) / factor - 0.5, 0.0), h - 1.0)
        y0 = int(math.floor(y))
        y1 = min(y0 + 1, h - 1)
        fy = y - y0
        for j in range(w * factor):
            x = min(max((j + 0.5) / factor - 0.5, 0.0), w - 1.0)
            x0 = int(math.floor(x))
            x1 = min(x0 + 1, w - 1)
            fx = x - x0
            out[i, j] = (
                p[y0, x0] * (1 - fy) * (1 - fx)
                + p[y0, x1] * (1 - fy) * fx
                + p[y1, x0] * fy * (1 - fx)
                + p[y1, x1] * fy * fx
            )
    return out


def ref_bilinear_gathers(p: np.ndarray, factor: int) -> np.ndarray:
    """Pixel-center bilinear upsampling from four whole-output gathers."""
    p = np.asarray(p, dtype=np.float64)
    h, w = p.shape

    def axis_coords(n_out, n_in):
        x = np.clip((np.arange(n_out) + 0.5) / factor - 0.5, 0.0, n_in - 1.0)
        lo = np.floor(x).astype(int)
        return lo, np.minimum(lo + 1, n_in - 1), x - lo

    r0, r1, fy = axis_coords(h * factor, h)
    c0, c1, fx = axis_coords(w * factor, w)
    fy = fy[:, None]
    fx = fx[None, :]
    top = p[r0][:, c0] * (1 - fx) + p[r0][:, c1] * fx
    bot = p[r1][:, c0] * (1 - fx) + p[r1][:, c1] * fx
    return top * (1 - fy) + bot * fy


# --- pixel scoring --------------------------------------------------------

def ref_sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function split by sign, so exp never overflows."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def ref_forward_batch(m, x: np.ndarray) -> np.ndarray:
    """(n, n_out) network outputs for an (n, n_in) batch.

    Each unit sums its weighted inputs over whole columns, left to right
    from the first input, then adds its bias:
    ((w_0 x_0 + w_1 x_1) + w_2 x_2 + ...) + b.
    """
    def layer(w, b, a):
        z = a[:, :1] * w[:, 0]
        for k in range(1, a.shape[1]):
            z = z + a[:, k : k + 1] * w[:, k]
        return ref_sigmoid(z + b)

    x = np.asarray(x, dtype=np.float64)
    return layer(m.weights[1], m.biases[1], layer(m.weights[0], m.biases[0], x))


def ref_whole_image_mask(m, planes, out_index: int, thr: float) -> np.ndarray:
    """Score every pixel from one (H * W, n_in) copy of the whole stack."""
    h, w = planes[m.feature_order[0]].shape
    x = np.stack([planes[b] for b in m.feature_order], axis=-1).reshape(-1, m.n_in)
    return (ref_forward_batch(m, x)[:, out_index] >= thr).reshape(h, w)


def ref_gather_mask(m, planes, out_index: int, thr: float, where: np.ndarray) -> np.ndarray:
    """Gather the ``where`` pixels, score only them, scatter the hits."""
    out = np.zeros(where.shape, dtype=bool)
    rows, cols = np.nonzero(where)
    if len(rows) == 0:
        return out
    x = np.stack([planes[b][rows, cols] for b in m.feature_order], axis=1)
    hits = ref_forward_batch(m, x)[:, out_index] >= thr
    out[rows[hits], cols[hits]] = True
    return out
