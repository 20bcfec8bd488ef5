"""What the reward means, on the 48x64 toy scene with the camera translating
by tx in x.

Each known failure is asserted as the property that should hold and marked
xfail(strict=True) with today's value in its reason, so the change that
fixes it must also flip its mark.
"""

import dataclasses

import numpy as np
import pytest

from georeward import PoseSE3, score_pair
from georeward.synth import PerturbationSpec, inject_perturbation, render_pair, toy_scene

# the clean speed grid, 0 to 0.2 in steps of 0.002
SPEEDS = tuple(0.002 * i for i in range(101))
DECODED_TX = 0.074  # the pretrained policy's mean decoded camera speed


def _pair(tx):
    path = (PoseSE3.identity(), PoseSE3(np.eye(3), np.array([tx, 0.0, 0.0])))
    return render_pair(dataclasses.replace(toy_scene(), camera_path=path), 0)


def _cost(pair, perturb, term):
    """How much `perturb` lowers `term` of the pair's score."""
    return getattr(score_pair(pair), term) - getattr(score_pair(inject_perturbation(pair, perturb, 0)), term)


def _wobble(amp):
    return PerturbationSpec(wobble_px=amp, corrupt_flow=True)


def _low_contrast(pair, k=0.1):
    """Both frames pulled toward their per-channel mean, keeping k of the contrast."""

    def pull(img):
        mean = img.mean(axis=(0, 1))
        return mean + k * (img - mean)

    return dataclasses.replace(pair, image_a=pull(pair.image_a), image_b=pull(pair.image_b))


def _fails_today(reason):
    """A known failure: the assertion must fail, and a fix must flip the mark."""
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason)


@pytest.fixture(scope="module")
def clean_grid():
    return [score_pair(_pair(tx)) for tx in SPEEDS]


@pytest.mark.parametrize("tx", [0.01, DECODED_TX, 0.19])
def test_flow_wobble_lowers_r_geo_strictly_at_every_speed(tx):
    pair = _pair(tx)
    scores = [score_pair(inject_perturbation(pair, _wobble(amp), 0)).r_geo for amp in (0.0, 0.25, 0.5, 1.0, 2.0)]
    assert all(b < a for a, b in zip(scores, scores[1:])), scores


@_fails_today("depth-splat comb: 36 of 101 clean speeds miss, the worst at -0.00172")
def test_clean_pairs_score_the_geometric_optimum_at_every_speed(clean_grid):
    missed = [(tx, s.r_geo) for tx, s in zip(SPEEDS, clean_grid) if abs(s.r_geo) > 1e-9]
    assert not missed


@_fails_today("camera-speed bias: a 1 px wobble costs 0.0889 at tx 0.01, 0.0116 at 0.19 (7.68x)")
def test_a_flow_wobble_costs_the_same_at_any_camera_speed():
    slow, fast = (_cost(_pair(tx), _wobble(1.0), "r_geo") for tx in (0.01, 0.19))
    assert max(slow, fast) <= 1.25 * min(slow, fast), (slow, fast)


@_fails_today("feature floor: worst clean r_dino -9.19e-4, 0.5 px of drift costs 3.78e-5")
def test_the_clean_feature_floor_is_small_next_to_half_a_pixel_of_drift(clean_grid):
    floor = max(abs(s.r_dino) for s in clean_grid)
    drift = _cost(_pair(DECODED_TX), PerturbationSpec(texture_drift_px=0.5), "r_dino")
    assert 5.0 * floor <= drift, (floor, drift)


@_fails_today("contrast collapse: at 10% contrast drift costs -2.1e-6 (9.3e-4 at full), morph 1.5e-5 (2.58e-3)")
def test_low_contrast_keeps_half_the_appearance_penalty():
    pair = _pair(DECODED_TX)
    for perturb in (PerturbationSpec(texture_drift_px=1.9), PerturbationSpec(object_morph=1.25)):
        full = _cost(pair, perturb, "r_dino")
        bad = inject_perturbation(pair, perturb, 0)
        low = score_pair(_low_contrast(pair)).r_dino - score_pair(_low_contrast(bad)).r_dino
        assert low >= 0.5 * full, (perturb, low, full)
