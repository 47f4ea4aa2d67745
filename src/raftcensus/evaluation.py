"""Score a census against ground-truth platform positions.

Detections are matched to truth centroids greedily by ascending
distance with a gate (default 3 px, about one raft diagonal); each side
is matched at most once. The gate must be finite and positive. Candidate
truths for a detection come from a window of twice the gate on either
side of its row; each candidate then gets the exact distance test, so
the matches are those of testing every pair. Rates:

- TFA (false acceptance): unmatched detections over total detections.
- TFR (false rejection): unmatched platforms over total platforms.

Both are percentages; an empty denominator yields 0.0 with the
corresponding ``no_detections`` / ``no_platforms`` flag set.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .errors import EvaluationError

__all__ = [
    "MatchPair",
    "MetricsReport",
    "match_centroids",
    "compute_rates",
    "evaluate_census",
    "report_to_json",
    "format_report",
    "DEFAULT_MAX_MATCH_DIST",
]

DEFAULT_MAX_MATCH_DIST = 3.0


@dataclass(frozen=True)
class MatchPair:
    detection_id: int
    truth_index: int
    distance_px: float


@dataclass(frozen=True)
class MetricsReport:
    tfa_percent: float
    tfr_percent: float
    true_positives: int
    false_detections: int
    missed: int
    total_detections: int
    total_platforms: int
    matches: tuple[MatchPair, ...]
    no_detections: bool
    no_platforms: bool


def match_centroids(
    detections: list[tuple[int, float, float]],
    truth_centroids: list[tuple[float, float]],
    max_dist: float = DEFAULT_MAX_MATCH_DIST,
) -> list[MatchPair]:
    """Greedy one-to-one matching by ascending centroid distance.

    ``detections`` are (id, row, col) triples. Pairs farther apart than
    ``max_dist`` are never matched; the gate must be finite and
    positive. Ties in distance resolve by detection order then truth
    order, so the result is deterministic.

    Only truths whose row lies within ``2 * max_dist`` of a detection's
    row are tested; the factor 2 is slack for rounding, so every pair
    the exact ``hypot`` test passes is among them. A coordinate that is
    NaN or infinite never passes a finite gate, so such points are
    skipped.
    """
    if not (math.isfinite(max_dist) and max_dist > 0):
        raise EvaluationError(f"max_dist must be finite and positive, got {max_dist}")
    by_row = sorted(
        (tr, ti, tc)
        for ti, (tr, tc) in enumerate(truth_centroids)
        if math.isfinite(tr) and math.isfinite(tc)
    )
    rows = [tr for tr, _, _ in by_row]
    slack = 2 * max_dist
    pairs = []
    for di, (_, dr, dc) in enumerate(detections):
        if not (math.isfinite(dr) and math.isfinite(dc)):
            continue
        lo = bisect_left(rows, dr - slack)
        hi = bisect_right(rows, dr + slack)
        for tr, ti, tc in by_row[lo:hi]:
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


def compute_rates(
    matches: list[MatchPair], total_detections: int, total_platforms: int
) -> MetricsReport:
    """TFA/TFR percentages from a match set and the two totals."""
    if total_detections < 0 or total_platforms < 0:
        raise EvaluationError("totals must be non-negative")
    n = len(matches)
    if n > total_detections or n > total_platforms:
        raise EvaluationError(
            f"inconsistent counts: {n} matches exceed totals "
            f"({total_detections} detections, {total_platforms} platforms)"
        )
    if len({m.detection_id for m in matches}) != n or len({m.truth_index for m in matches}) != n:
        raise EvaluationError("inconsistent counts: duplicate ids in match set")
    false_det = total_detections - n
    missed = total_platforms - n
    no_detections = total_detections == 0
    no_platforms = total_platforms == 0
    tfa = 0.0 if no_detections else (100.0 * false_det) / total_detections
    tfr = 0.0 if no_platforms else (100.0 * missed) / total_platforms
    return MetricsReport(
        tfa_percent=tfa,
        tfr_percent=tfr,
        true_positives=n,
        false_detections=false_det,
        missed=missed,
        total_detections=total_detections,
        total_platforms=total_platforms,
        matches=tuple(matches),
        no_detections=no_detections,
        no_platforms=no_platforms,
    )


def evaluate_census(
    census, truth_centroids, max_dist: float = DEFAULT_MAX_MATCH_DIST
) -> MetricsReport:
    """Match and rate in one step; ``truth_centroids`` is read once."""
    truth = list(truth_centroids)
    dets = [(rec.id, rec.centroid_px[0], rec.centroid_px[1]) for rec in census.records]
    matches = match_centroids(dets, truth, max_dist)
    return compute_rates(matches, len(census.records), len(truth))


_MATCH_JSON = """\
    {
      "detection_id": %d,
      "distance_px": %s,
      "truth_index": %d
    }"""


def report_to_json(report: MetricsReport) -> str:
    """Stable JSON rendering (sorted keys, exact float repr).

    The text is what ``json.dumps(payload, indent=2, sort_keys=True)``
    gives, byte for byte. Matches are filled into a fixed template, since
    that call would run the pure-Python encoder over every match; their
    distances lie within the finite match gate, so ``float.__repr__``
    writes them as ``json.dumps`` does.
    """
    payload = {
        "tfa_percent": report.tfa_percent,
        "tfr_percent": report.tfr_percent,
        "true_positives": report.true_positives,
        "false_detections": report.false_detections,
        "missed": report.missed,
        "total_detections": report.total_detections,
        "total_platforms": report.total_platforms,
        "no_detections": report.no_detections,
        "no_platforms": report.no_platforms,
        "matches": [],
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    if report.matches:
        listed = ",\n".join(
            _MATCH_JSON % (m.detection_id, float.__repr__(m.distance_px), m.truth_index)
            for m in report.matches
        )
        text = text.replace('"matches": []', f'"matches": [\n{listed}\n  ]', 1)
    return text + "\n"


def format_report(report: MetricsReport) -> str:
    """Human-readable summary table."""
    lines = [
        f"{'detections':<20}{report.total_detections:>8}",
        f"{'platforms (truth)':<20}{report.total_platforms:>8}",
        f"{'true positives':<20}{report.true_positives:>8}",
        f"{'false detections':<20}{report.false_detections:>8}",
        f"{'missed':<20}{report.missed:>8}",
        f"{'TFA':<20}{report.tfa_percent:>7.2f}%",
        f"{'TFR':<20}{report.tfr_percent:>7.2f}%",
    ]
    if report.no_detections:
        lines.append("note: no detections; TFA defined as 0")
    if report.no_platforms:
        lines.append("note: no truth platforms; TFR defined as 0")
    return "\n".join(lines) + "\n"
