"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one `ACCEPT Cn ... PASS/FAIL` line (run pytest with -s
to see them on success). Oracles live in tests/oracles.py and are
independent of the library implementations they check.
"""

import time
from pathlib import Path

import numpy as np

from raftcensus import (
    CensusConfig,
    NdwiOtsu,
    SynthParams,
    TrainConfig,
    bottom_hat,
    closing,
    compute_features,
    default_platform_training_set,
    dilate,
    erode,
    evaluate_census,
    evaluate_confusion,
    forward_batch,
    generate_synthetic_scene,
    init_model,
    label_components,
    loss_and_gradient,
    opening,
    otsu_threshold,
    run_census,
    square,
    train,
)
from raftcensus.cli import dispatch
from raftcensus.mlp import MlpModel, _targets, split_data

from oracles import (
    ref_bottom_hat,
    ref_close,
    ref_convex_area,
    ref_dilate,
    ref_erode,
    ref_euler,
    ref_open,
    ref_otsu,
)


def _report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPT {criterion}: {detail} -> {'PASS' if ok else 'FAIL'}")
    return ok


def test_criterion_1_otsu_oracle_equivalence():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    mismatches = 0
    for i in range(1000):
        kind = i % 4
        if kind == 0:
            h = rng.integers(0, 1000, size=256)
        elif kind == 1:
            h = np.zeros(256, dtype=np.int64)
            bins = rng.choice(256, size=int(rng.integers(2, 12)), replace=False)
            h[bins] = rng.integers(1, 5000, size=len(bins))
        elif kind == 2:
            h = rng.poisson(4, size=256).astype(np.int64)
            if (h > 0).sum() < 2:
                h[10] = 3
                h[200] = 3
        else:
            h = np.zeros(256, dtype=np.int64)
            h[int(rng.integers(0, 128))] = int(rng.integers(1, 100000))
            h[int(rng.integers(128, 256))] = int(rng.integers(1, 100000))
        if otsu_threshold(h) != ref_otsu(h):
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 5.0
    assert _report(
        "C1",
        ok,
        f"otsu == exhaustive maximizer on 1000 histograms "
        f"({mismatches} mismatches, {elapsed:.2f}s < 5s)",
    )


def test_criterion_2_morphology_oracle_equivalence():
    rng = np.random.default_rng(202)
    ses = {"square(3)": square(3), "square(5)": square(5), "square(7)": square(7)}
    mismatches = 0
    idem_failures = 0
    for _ in range(500):
        h, w = rng.integers(4, 33, size=2)
        m = rng.random((h, w)) < rng.uniform(0.1, 0.9)
        for se in ses.values():
            offs = se.offsets
            e_ref = ref_erode(m, offs)
            d_ref = ref_dilate(m, offs)
            o_ref = ref_open(m, offs)
            c_ref = ref_close(m, offs)
            pairs = [
                (erode(m, se), e_ref),
                (dilate(m, se), d_ref),
                (opening(m, se), o_ref),
                (closing(m, se), c_ref),
                (bottom_hat(m, se), ref_bottom_hat(m, offs)),
            ]
            if not all(np.array_equal(a, b) for a, b in pairs):
                mismatches += 1
            if not np.array_equal(opening(o_ref, se), o_ref) or not np.array_equal(
                closing(c_ref, se), c_ref
            ):
                idem_failures += 1
    ok = mismatches == 0 and idem_failures == 0
    assert _report(
        "C2",
        ok,
        f"erode/dilate/open/close/bottom_hat == naive references on 500 masks "
        f"x 3 elements ({mismatches} mismatches, {idem_failures} idempotence failures)",
    )


def test_criterion_3_gradient_correctness():
    h = 1e-5
    worst = 0.0
    for seed, layers in enumerate([(10, 2, 1)] * 5 + [(10, 8, 3)] * 5):
        rng = np.random.default_rng(5000 + seed)
        m = init_model(layers, seed=seed)
        x = rng.uniform(0.0, 1.2, size=(8, layers[0]))
        labels = rng.integers(0, max(layers[2], 2), size=8)
        t = _targets(labels, layers[2])
        _, grads = loss_and_gradient(m, x, t)
        for li in range(2):
            for which in (0, 1):
                g = grads[li][which]
                arr = (m.weights if which == 0 else m.biases)[li]
                it = np.nditer(arr, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index

                    def loss_at(delta):
                        ws = [w.copy() for w in m.weights]
                        bs = [b.copy() for b in m.biases]
                        (ws if which == 0 else bs)[li][idx] += delta
                        mm = MlpModel(m.layer_sizes, tuple(ws), tuple(bs))
                        return loss_and_gradient(mm, x, t)[0]

                    fd = (loss_at(h) - loss_at(-h)) / (2 * h)
                    rel = abs(g[idx] - fd) / max(abs(g[idx]), abs(fd), 1e-6)
                    worst = max(worst, rel)
    ok = worst < 1e-4
    assert _report(
        "C3",
        ok,
        f"analytic gradients vs central differences on 10 models, "
        f"worst relative error {worst:.2e} < 1e-4",
    )


def test_criterion_4_training_contract(platform_model):
    xor_x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    xor_y = np.array([0, 1, 1, 0])
    converged = 0
    for seed in range(20):
        cfg = TrainConfig(max_epochs=5000, target_loss=0.005, learning_rate=2.0,
                          momentum=0.9, seed=seed)
        model, _ = train(init_model((2, 2, 1), seed=seed), xor_x, xor_y, cfg)
        y = forward_batch(model, xor_x)[:, 0]
        if float(np.mean((y - xor_y) ** 2)) < 0.01:
            converged += 1
    xor_ok = converged >= 19  # 95% of 20 seeds

    data = default_platform_training_set(seed=1234)
    x_test, y_test = split_data(data.features, data.labels, TrainConfig(seed=1234))[2]
    cm = evaluate_confusion(platform_model, x_test, y_test)
    platform_ok = cm.error_rate < 0.02
    ok = xor_ok and platform_ok
    assert _report(
        "C4",
        ok,
        f"XOR converged on {converged}/20 seeds (need >= 19); platform net "
        f"held-out error {100 * cm.error_rate:.3f}% < 2% "
        f"on {len(data.features)}-sample set",
    )


def test_criterion_5_blob_feature_oracles():
    rng = np.random.default_rng(303)
    checked = 0
    euler_bad = solidity_bad = eqdiam_bad = 0
    while checked < 300:
        size = int(rng.integers(10, 28))
        m = np.zeros((size, size), dtype=bool)
        r, c = size // 2, size // 2
        for _ in range(int(rng.integers(5, 70))):
            m[r, c] = True
            r = int(np.clip(r + rng.integers(-1, 2), 1, size - 2))
            c = int(np.clip(c + rng.integers(-1, 2), 1, size - 2))
        if rng.random() < 0.7:
            m = dilate(m, square(3))
        m &= ~(rng.random(m.shape) < rng.uniform(0, 0.15))
        for blob in label_components(m):
            b = compute_features(blob)
            if b.euler_number != ref_euler(b.pixels, b.bbox):
                euler_bad += 1
            if b.convex_area != ref_convex_area(b.pixels, b.bbox):
                solidity_bad += 1
            if abs(b.equivalent_diameter - np.sqrt(4.0 * b.area / np.pi)) > 1e-12:
                eqdiam_bad += 1
            checked += 1
            if checked >= 300:
                break
    ok = euler_bad == solidity_bad == eqdiam_bad == 0
    assert _report(
        "C5",
        ok,
        f"euler/solidity/equivalent-diameter oracles on {checked} blobs "
        f"({euler_bad}/{solidity_bad}/{eqdiam_bad} mismatches)",
    )


def test_criterion_6_end_to_end_synthetic_census(platform_model):
    cfg = CensusConfig(water_method=NdwiOtsu(), platform_model=platform_model)
    start = time.perf_counter()
    missed = false_det = detections = platforms = 0
    for seed in range(20):
        stack, truth = generate_synthetic_scene(
            SynthParams(width=512, height=512, raft_count=10, seed=seed)
        )
        census = run_census(stack, cfg)
        report = evaluate_census(census, truth.raft_centroids)
        missed += report.missed
        false_det += report.false_detections
        detections += report.total_detections
        platforms += report.total_platforms
    clean_controls = 0
    for seed in range(20):
        stack, _ = generate_synthetic_scene(
            SynthParams(width=512, height=512, raft_count=0, seed=seed)
        )
        if run_census(stack, cfg).count == 0:
            clean_controls += 1
    elapsed = time.perf_counter() - start
    tfr = 100.0 * missed / platforms
    tfa = 0.0 if detections == 0 else 100.0 * false_det / detections
    ok = tfr <= 2.0 and tfa <= 9.0 and clean_controls >= 19 and elapsed < 60.0
    assert _report(
        "C6",
        ok,
        f"20 scenes: TFR {tfr:.2f}% <= 2%, TFA {tfa:.2f}% <= 9%; "
        f"controls clean on {clean_controls}/20 (need >= 19); "
        f"{elapsed:.1f}s < 60s",
    )


def test_criterion_7_cli_chain_determinism(tmp_path):
    def chain(root: Path) -> dict[str, bytes]:
        root.mkdir()
        scene = root / "scene"
        assert dispatch(["synth", "--out", str(scene), "--width", "256",
                         "--height", "256", "--rafts", "8", "--seed", "2024"]) == 0
        model = root / "platform.mlp"
        assert dispatch(["train-platform", "--synthetic-default", "--seed", "2024",
                         "--out", str(model)]) == 0
        census = root / "census.csv"
        assert dispatch(["census", "--manifest", str(scene / "manifest.json"),
                         "--platform-model", str(model), "--out", str(census)]) == 0
        report = root / "report.json"
        assert dispatch(["eval", "--census", str(census),
                         "--truth", str(scene / "truth.json"),
                         "--out", str(report)]) == 0
        return {
            "census.csv": census.read_bytes(),
            "platform.mlp": model.read_bytes(),
            "report.json": report.read_bytes(),
        }

    first = chain(tmp_path / "run1")
    second = chain(tmp_path / "run2")
    same = [name for name in first if first[name] == second[name]]
    ok = len(same) == 3
    assert _report(
        "C7",
        ok,
        f"synth/train/census/eval twice: byte-identical {sorted(same)} "
        f"(need all of census.csv, platform.mlp, report.json)",
    )


def test_criterion_8_census_performance(platform_model):
    stack, truth = generate_synthetic_scene(
        SynthParams(width=1024, height=1024, raft_count=10, seed=888)
    )
    cfg = CensusConfig(water_method=NdwiOtsu(), platform_model=platform_model)
    start = time.perf_counter()
    census = run_census(stack, cfg)
    elapsed = time.perf_counter() - start
    ok = elapsed < 10.0 and census.count == 10
    assert _report(
        "C8",
        ok,
        f"1024x1024 census in {elapsed:.2f}s < 10s single-threaded "
        f"({census.count} platforms found)",
    )
