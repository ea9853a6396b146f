"""Acceptance tests for the paper's qualitative claims, on the synthetic presets.

Random Split Fallacy: splitting one session's beats into enrollment and probe
(single_session) looks near perfect, while enrolling on one session and
probing another (single_cross_session) does not. Pinned here for the
morphology embedder at two dataset seeds, because the dataset seed moves
these numbers more than the evaluation seed does. Bounds come from
measurement on fallacy30 over evaluation seeds 0-4:

    dataset seed   single_session EER   single_cross_session EER closed / open
    0              0.000                0.195 / 0.211
    1              0.000                0.195 / 0.156

Open cross-session EER is not pinned: on aging4 at dataset seed 1 it reads
0.139. The same claim for the MLP embedder is not pinned yet.
"""

import pytest

from ecgbench import regimes
from ecgbench.core import validate_config

EVAL_SEEDS = [0, 1, 2, 3, 4]


@pytest.fixture(scope="module", params=[0, 1], ids=["dataset-seed-0", "dataset-seed-1"])
def fallacy30_morphology(request):
    """Mean EER per cell of the fallacy30 morphology run at one dataset seed."""
    cfg = validate_config({
        "dataset": {"kind": "synthetic", "preset": "fallacy30", "seed": request.param},
        "embedder": {"kind": "morphology"},
        "evaluation": {"metric": "cosine", "template_fusion": "mean"},
        "regime": [{"names": ["single_session", "single_cross_session"],
                    "settings": ["closed", "open"]}],
        "seeds": EVAL_SEEDS,
    })
    index, recordings = regimes.load_dataset_from_config(cfg.dataset)
    store = regimes.SegmentStore(cfg, index, recordings)
    report = regimes.aggregate_runs(
        [regimes.run_evaluation(cfg, seed, store=store) for seed in cfg.seeds])
    return {key: cell["eer"]["mean"] for key, cell in report.cells.items()}


@pytest.mark.acceptance
def test_random_split_fallacy_morphology(fallacy30_morphology):
    eer = fallacy30_morphology
    assert eer["single_session|closed"] <= 0.01
    assert eer["single_session|open"] <= 0.01
    assert eer["single_cross_session|closed"] >= 0.15
