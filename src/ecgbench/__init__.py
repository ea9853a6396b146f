"""ecgbench: benchmarking toolkit for ECG-based biometric identification and verification.

The pipeline is split into small, independently testable modules:

- ``core``       shared domain types, run configuration, validation
- ``ingest``     manifest + raw-signal loading (f32le, csv, minimal WFDB 212/16)
- ``synth``      parametric synthetic ECG generator with ground-truth R peaks
- ``dsp``        filtering, Fourier resampling, normalization, preprocessing
- ``rpeak``      Pan-Tompkins R-peak detector
- ``segment``    beat-based and blind sliding-window segmentation into (n, 2) spans
- ``embed``      morphology embedder and a reference MLP with hand-written backprop
- ``biometric``  templates, probe fusion, similarity scoring, pair generation
- ``metrics``    EER / AUC / d-prime / TAR@FAR / Rank-k
- ``regimes``    evaluation regimes, split plans, run orchestration
- ``cli``        command-line entry point (synth / run / report / validate)
"""

__version__ = "0.1.0"
