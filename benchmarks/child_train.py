"""Set-up step of forecast-clustered, run in its own process so that the
workload's peak RSS is not the training tape's:

    python3 benchmarks/child_train.py CSV CHECKPOINT BATCHES

Trains the scenario-1 model briefly with a fixed seed on the first 80%
of the series (the parent's train and val splits; its test split is never
seen) and saves it as a ``LEAPTS1`` checkpoint. A ``gc.collect()`` after
every Adam step keeps the process small: each batch's graph is a
reference cycle (see CHANGES.md), and left to the collector's thresholds
these 120-row batches reach about 1 GB.
"""

from __future__ import annotations

import gc
import json
import sys

import leapts.training as training
from leapts.data import Dataset, load_csv
from leapts.model import LeapTS, ModelConfig

CONFIG = dict(look_back=96, horizon=96, n_variates=30, hidden_dim=16, enc_hidden=(32,),
              n_clusters=3, seed=0)
TRAIN = dict(lr=3e-3, batch_size=4, max_epochs=1, seed=0)
SEEN_SHARE = 0.8
SPLITS = (0.75, 0.125, 0.125)


def main(argv) -> int:
    csv_path, ckpt_path, batches = argv[0], argv[1], int(argv[2])
    ds = load_csv(csv_path)
    seen = Dataset(values=ds.values[: int(SEEN_SHARE * ds.length)], split_fractions=SPLITS)
    adam_step = training.adam_step

    def adam_then_collect(*args, **kwargs):
        out = adam_step(*args, **kwargs)
        gc.collect()
        return out

    training.adam_step = adam_then_collect
    model, report = training.train(
        LeapTS(ModelConfig(**CONFIG)), seen,
        training.TrainConfig(max_batches_per_epoch=batches, **TRAIN),
    )
    model.save(ckpt_path)
    print(json.dumps({"diverged": report.diverged, "val_loss": report.best_val_loss,
                      "clusters": model.cluster_of_variate.tolist()}))
    return 3 if report.diverged else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
