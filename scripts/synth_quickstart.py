#!/usr/bin/env python3
"""End-to-end quickstart on a synthetic scene.

Generates a striped hyperspectral scene, trains a minibatch GCN and a
concatenation-fusion model on it, prints both test reports, and writes
classification maps. Everything fits in a couple of minutes on a laptop.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from mgk.cli import class_map_rgb, write_legend, write_ppm
from mgk.data import synth_scene
from mgk.metrics import overall_accuracy, report_text
from mgk.pipeline import (dataset_from_parts, evaluate_part,
                          infer_model_config, predict_pixels, train_model)

import numpy as np


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="quickstart_out")
    ap.add_argument("--size", type=int, default=32)
    ap.add_argument("--bands", type=int, default=16)
    ap.add_argument("--classes", type=int, default=3)
    ap.add_argument("--epochs", type=int, default=50)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    cube, grid, split = synth_scene(
        classes=args.classes, size=args.size, bands=args.bands,
        noise_sigma=0.02, seed=args.seed,
    )
    ds = dataset_from_parts(cube, grid, split)
    os.makedirs(args.out_dir, exist_ok=True)

    for arch in ("minigcn", "funet-c"):
        cfg = infer_model_config(
            ds, arch, gcn_hidden=32, cnn_channels=(8, 16, 32),
            fusion_fc=32, patch_size=7,
        )
        result = train_model(
            ds, cfg, epochs=args.epochs, batch=32, base_lr=0.01,
            l2=0.001, bn_momentum=0.9, seed=args.seed,
        )
        cm = evaluate_part(result.model, ds, "test", batch=32)
        print(f"== {arch}: test OA {overall_accuracy(cm):.2f} ==")
        print(report_text(cm))

        all_ids = np.arange(cube.height * cube.width)
        preds = predict_pixels(result.model, ds.cube, all_ids, batch=32)
        pred_map = (preds + 1).reshape(cube.height, cube.width)
        map_path = os.path.join(args.out_dir, f"map_{arch}.ppm")
        write_ppm(map_path, class_map_rgb(pred_map))
        print(f"wrote {map_path}")

    truth_path = os.path.join(args.out_dir, "truth.ppm")
    write_ppm(truth_path, class_map_rgb(grid.labels))
    write_legend(os.path.join(args.out_dir, "legend.txt"), args.classes)
    print(f"wrote {truth_path}")


if __name__ == "__main__":
    main()
