import math

import pytest

from raftcensus import (Census, CensusRecord, MatchPair, compute_rates, evaluate_census,
                        match_centroids)
from raftcensus.errors import EvaluationError
from raftcensus.evaluation import report_to_json

from oracles import ref_match_all_pairs, ref_max_matching_count, ref_report_to_json


def make_instance(rng, max_dist=3.0, n_truth=None):
    """Truths separated by more than twice the gate, detections near them
    plus spurious ones; in this family greedy matching is optimal."""
    k = n_truth if n_truth is not None else int(rng.integers(1, 7))
    truths = []
    while len(truths) < k:
        cand = tuple(rng.uniform(0, 40, size=2))
        if all(math.hypot(cand[0] - t[0], cand[1] - t[1]) > 2 * max_dist + 0.5 for t in truths):
            truths.append(cand)
    dets = []
    next_id = 1
    for t in truths:
        if rng.random() < 0.8:
            for _ in range(1 + (rng.random() < 0.2)):
                ang = rng.uniform(0, 2 * math.pi)
                rad = rng.uniform(0, max_dist)
                dets.append((next_id, t[0] + rad * math.cos(ang), t[1] + rad * math.sin(ang)))
                next_id += 1
    for _ in range(int(rng.integers(0, 3))):
        dets.append((next_id, rng.uniform(0, 40), rng.uniform(0, 40)))
        next_id += 1
    return dets, truths


class TestMatching:
    def test_identical_lists_match_perfectly(self):
        truths = [(1.0, 2.0), (5.0, 5.0), (9.0, 1.0)]
        dets = [(i + 1, r, c) for i, (r, c) in enumerate(truths)]
        matches = match_centroids(dets, truths)
        assert len(matches) == 3
        assert all(m.distance_px == 0.0 for m in matches)

    def test_empty_census(self):
        matches = match_centroids([], [(0.0, 0.0)] * 5)
        assert matches == []

    def test_gate_respected(self):
        matches = match_centroids([(1, 0.0, 0.0)], [(0.0, 4.0)], max_dist=3.0)
        assert matches == []

    def test_one_to_one(self):
        # two detections near one truth: only one matches
        matches = match_centroids([(1, 0.0, 0.1), (2, 0.0, 0.2)], [(0.0, 0.0)])
        assert len(matches) == 1
        assert matches[0].detection_id == 1  # nearest wins

    def test_matches_optimal_count_on_separated_instances(self, rng):
        for _ in range(150):
            dets, truths = make_instance(rng)
            got = len(match_centroids(dets, truths, 3.0))
            assert got == ref_max_matching_count(dets, truths, 3.0)

    def test_invalid_gate(self):
        with pytest.raises(EvaluationError):
            match_centroids([], [], max_dist=0.0)

    @pytest.mark.parametrize("gate", [-1.0, math.nan, math.inf, -math.inf])
    def test_non_finite_or_negative_gate_rejected(self, gate):
        # a NaN gate would match nothing and an infinite one everything
        with pytest.raises(EvaluationError, match="finite and positive"):
            match_centroids([(1, 0.0, 0.0)], [(0.0, 0.0)], max_dist=gate)


def bitwise(matches):
    return [(m.detection_id, m.truth_index, m.distance_px.hex()) for m in matches]


def assert_same_as_all_pairs(dets, truths, gate):
    got = match_centroids(dets, truths, gate)
    want = ref_match_all_pairs(dets, truths, gate)
    assert got == want
    assert bitwise(got) == bitwise(want)
    return got


def points(rng, n, lo, hi):
    return [tuple(float(v) for v in rng.uniform(lo, hi, size=2)) for _ in range(n)]


class TestMatchingEquivalence:
    """The row-windowed matcher against the exact test on every pair."""

    @pytest.mark.parametrize("gate", [0.5, 3.0, 12.0])
    def test_dense_random(self, rng, gate):
        n_matched = 0
        for _ in range(20):
            truths = points(rng, int(rng.integers(0, 80)), 0, 20)
            dets = [(i + 1, r, c) for i, (r, c) in enumerate(points(rng, 80, -2, 22))]
            n_matched += len(assert_same_as_all_pairs(dets, truths, gate))
        assert n_matched > 50  # the instances do match, not only reject

    def test_duplicates_and_ties(self, rng):
        base = points(rng, 6, 0, 8)
        truths = base + base[:3] + [base[0]] * 2
        dets = [(i + 1, r, c) for i, (r, c) in enumerate(base * 2 + base[2:4])]
        # equidistant detections around one truth
        dets += [(50, 4.0, 1.0), (51, 4.0, -1.0), (52, 5.0, 0.0), (53, 3.0, 0.0)]
        truths.append((4.0, 0.0))
        for gate in (0.5, 1.0, 3.0):
            assert_same_as_all_pairs(dets, truths, gate)

    def test_distances_at_the_gate(self):
        cases = [
            ([(1, 3.0, 4.0)], [(0.0, 0.0)], 5.0),  # 3-4-5: hypot exact
            ([(1, 2.5, 7.0)], [(0.0, 7.0)], 2.5),  # along the row axis
            ([(1, -7.0, 0.0)], [(-1.0, 0.0)], 6.0),
            ([(1, 0.0, 1.0)], [(0.0, 0.0)], 1.0),  # same row, along columns
            ([(1, 0.1, 0.2)], [(0.4, 0.6)], math.hypot(0.1 - 0.4, 0.2 - 0.6)),
        ]
        for dets, truths, gate in cases:
            n_match = []
            for g in (math.nextafter(gate, 0.0), gate, math.nextafter(gate, math.inf)):
                n_match.append(len(assert_same_as_all_pairs(dets, truths, g)))
            assert n_match[1:] == [1, 1]

    def test_rows_at_the_window_edge(self):
        # truths whose row is exactly, or one ulp inside or outside,
        # twice the gate away; none can pass the exact test
        gate = 0.25
        dr = 10.0
        rows = [dr - 2 * gate, dr + 2 * gate, dr - gate, dr + gate]
        rows += [math.nextafter(r, d) for r in rows[:2] for d in (0.0, math.inf)]
        truths = [(r, 5.0) for r in rows]
        got = assert_same_as_all_pairs([(1, dr, 5.0)], truths, gate)
        assert [m.truth_index for m in got] == [2]

    def test_negative_coordinates(self, rng):
        for _ in range(10):
            truths = points(rng, 40, -30, -5)
            dets = [(i + 1, r, c) for i, (r, c) in enumerate(points(rng, 40, -31, -4))]
            assert_same_as_all_pairs(dets, truths, 3.0)

    def test_large_coordinates_small_gate(self, rng):
        # at 1e15 a float step is 0.125, far above the gate
        base = 1e15
        truths = [(base + 0.125 * int(k), base + 0.125 * int(j))
                  for k, j in rng.integers(-4, 5, size=(30, 2))]
        dets = [(i + 1, base + 0.125 * int(k), base + 0.125 * int(j))
                for i, (k, j) in enumerate(rng.integers(-4, 5, size=(30, 2)))]
        dets.append((99, math.nextafter(base, math.inf), base))
        truths.append((base, base))
        for gate in (1e-3, 0.125, 0.2):
            assert_same_as_all_pairs(dets, truths, gate)
        assert len(match_centroids(dets, truths, 1e-3)) > 0

    def test_non_finite_coordinates(self, rng):
        bad = [math.nan, math.inf, -math.inf]
        truths = points(rng, 10, 0, 10)
        truths += [(v, 5.0) for v in bad] + [(5.0, v) for v in bad] + [(v, v) for v in bad]
        dets = [(i + 1, r, c) for i, (r, c) in enumerate(points(rng, 10, 0, 10))]
        dets += [(100 + i, v, 5.0) for i, v in enumerate(bad)]
        dets += [(200 + i, 5.0, v) for i, v in enumerate(bad)]
        dets += [(300 + i, v, v) for i, v in enumerate(bad)]
        for gate in (1.0, 4.0, 1e300):
            got = assert_same_as_all_pairs(dets, truths, gate)
            assert all(m.detection_id < 100 and m.truth_index < 10 for m in got)

    def test_nan_truths_interleaved(self, rng):
        # NaN rows mixed into a dense field must not upset the row order
        for _ in range(10):
            truths = points(rng, 60, 0, 20)
            for i in rng.choice(len(truths), size=8, replace=False):
                truths[i] = (math.nan, truths[i][1])
            dets = [(i + 1, r, c) for i, (r, c) in enumerate(points(rng, 60, 0, 20))]
            assert_same_as_all_pairs(dets, truths, 2.0)

    def test_empty_lists(self):
        assert_same_as_all_pairs([], [], 3.0)
        assert_same_as_all_pairs([], [(1.0, 1.0)], 3.0)
        assert_same_as_all_pairs([(1, 1.0, 1.0)], [], 3.0)


class TestRates:
    def test_percentage_arithmetic_exact(self):
        # 854 false of 10000 detections and 82 missed of 10000 platforms:
        # rates at realistic operating magnitudes come out exact
        matches = [MatchPair(i, i, 0.0) for i in range(9146)]
        report = compute_rates(matches, 10000, 9146 + 82)
        assert report.tfa_percent == pytest.approx(8.54, abs=1e-12)
        report2 = compute_rates([MatchPair(i, i, 0.0) for i in range(9918)], 9918, 10000)
        assert report2.tfr_percent == pytest.approx(0.82, abs=1e-12)

    def test_zero_false_zero_missed(self):
        matches = [MatchPair(1, 0, 0.5)]
        report = compute_rates(matches, 1, 1)
        assert report.tfa_percent == 0.0 and report.tfr_percent == 0.0
        assert not report.no_detections and not report.no_platforms

    def test_formula_arithmetic(self):
        matches = [MatchPair(i, i, 0.0) for i in range(8)]
        report = compute_rates(matches, 10, 20)
        assert report.tfa_percent == 20.0
        assert report.tfr_percent == 60.0
        report = compute_rates([MatchPair(i, i, 0.0) for i in range(19)], 19 + 1, 20)
        assert report.tfr_percent == 5.0

    def test_zero_denominators_flagged(self):
        report = compute_rates([], 0, 0)
        assert report.tfa_percent == 0.0 and report.tfr_percent == 0.0
        assert report.no_detections and report.no_platforms

    def test_count_identities(self, rng):
        for _ in range(50):
            n = int(rng.integers(0, 10))
            extra_d = int(rng.integers(0, 5))
            extra_t = int(rng.integers(0, 5))
            matches = [MatchPair(i, i, float(rng.uniform(0, 3))) for i in range(n)]
            r = compute_rates(matches, n + extra_d, n + extra_t)
            assert r.total_detections == r.true_positives + r.false_detections
            assert r.total_platforms == r.true_positives + r.missed
            assert 0 <= r.tfa_percent <= 100 and 0 <= r.tfr_percent <= 100

    def test_inconsistent_counts_rejected(self):
        with pytest.raises(EvaluationError, match="inconsistent"):
            compute_rates([MatchPair(1, 0, 0.0), MatchPair(2, 1, 0.0)], 1, 5)
        with pytest.raises(EvaluationError, match="inconsistent"):
            compute_rates([MatchPair(1, 0, 0.0), MatchPair(1, 1, 0.0)], 5, 5)

    def test_rates_invariant_under_id_relabeling(self):
        m1 = [MatchPair(1, 0, 0.1), MatchPair(2, 1, 0.2)]
        m2 = [MatchPair(9, 4, 0.1), MatchPair(7, 3, 0.2)]
        r1 = compute_rates(m1, 4, 5)
        r2 = compute_rates(m2, 4, 5)
        assert (r1.tfa_percent, r1.tfr_percent) == (r2.tfa_percent, r2.tfr_percent)

    def test_adding_matched_pair_improves_rates(self):
        base = compute_rates([MatchPair(1, 0, 0.0)], 3, 4)
        more = compute_rates([MatchPair(1, 0, 0.0), MatchPair(2, 1, 0.0)], 3, 4)
        assert more.tfa_percent < base.tfa_percent
        assert more.tfr_percent < base.tfr_percent

    def test_adding_unmatched_detection_raises_tfa(self):
        base = compute_rates([MatchPair(1, 0, 0.0)], 2, 4)
        more = compute_rates([MatchPair(1, 0, 0.0)], 3, 4)
        assert more.tfa_percent > base.tfa_percent


def census_of(centroids):
    records = tuple(CensusRecord(id=i, centroid_px=c, area_px=4, bbox=(0, 0, 1, 1))
                    for i, c in enumerate(centroids, start=1))
    return Census(records=records, count=len(records), source="", config_digest="")


class TestEvaluateCensus:
    TRUTHS = [(10.0, 10.0), (50.0, 50.0)]

    def test_generator_truths_read_once(self):
        census = census_of([(10.5, 10.0)])
        report = evaluate_census(census, (t for t in self.TRUTHS))
        assert report.total_platforms == 2 and report.true_positives == 1
        assert report.tfr_percent == 50.0 and report.tfa_percent == 0.0

    def test_generator_truths_without_detections(self):
        report = evaluate_census(census_of([]), (t for t in self.TRUTHS))
        assert report.total_platforms == 2 and report.tfr_percent == 100.0
        assert report.no_detections and not report.no_platforms

    def test_generator_matches_list(self):
        census = census_of([(10.5, 10.0), (49.0, 51.0), (90.0, 90.0)])
        assert evaluate_census(census, iter(self.TRUTHS)) == evaluate_census(census, self.TRUTHS)


class TestReportJson:
    @pytest.mark.parametrize("totals", [(0, 0), (0, 3), (3, 0), (7, 5)])
    def test_no_matches_bytes_equal_json_dumps(self, totals):
        report = compute_rates([], *totals)
        assert report_to_json(report) == ref_report_to_json(report)

    def test_flags_and_ratios_bytes_equal_json_dumps(self):
        # 1/3 and 2/3 of the counts are not round; a distance of exactly 0.0
        report = compute_rates([MatchPair(4, 2, 0.0)], 3, 3)
        assert report.tfa_percent == 100.0 * 2 / 3
        assert report_to_json(report) == ref_report_to_json(report)
        report = compute_rates([MatchPair(1, 0, 1.4142135623730951)], 7, 1)
        assert report_to_json(report) == ref_report_to_json(report)

    def test_many_matches_bytes_equal_json_dumps(self, rng):
        n = 2000
        matches = [MatchPair(i + 1, n - 1 - i, float(rng.uniform(0, 3))) for i in range(n)]
        matches[7] = MatchPair(8, n - 8, 0.0)
        matches[9] = MatchPair(10, n - 10, 3.0)
        report = compute_rates(matches, n + 37, n + 11)
        text = report_to_json(report)
        assert text == ref_report_to_json(report)
        assert text.count('"detection_id"') == n

    def test_census_report_bytes_equal_json_dumps(self, rng):
        truths = [tuple(map(float, rng.uniform(0, 200, 2))) for _ in range(300)]
        dets = [(r + rng.normal(0, 1), c + rng.normal(0, 1)) for r, c in truths[:250]]
        report = evaluate_census(census_of(dets), truths)
        assert report.true_positives > 0
        assert report_to_json(report) == ref_report_to_json(report)
