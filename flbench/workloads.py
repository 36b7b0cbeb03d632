"""The four benchmark workloads: what each builds and why it was chosen.

Every workload uses the femnist-like synthetic federation, FAB top-k,
batch 16, learning rate 0.05 and communication time 10.  The workload
seed seeds the data, the model initialisation, the trainer and the
scenario, so one seed pins every input.  The program under test only
ever receives the generated inputs.

A workload is driven one *episode* at a time: :func:`build` makes a
fresh federation, model, trainer (and worker pool), the driver plays a
fixed number of rounds through :attr:`Episode.step`, then closes it.
Each episode is a closed loop of one driver and one trainer: a round is
issued only after the previous one returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.data.partition import partition_by_writer
from repro.data.synthetic import make_femnist_like
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_federation, build_model, build_scenario
from repro.fl.async_engine import AsyncFLTrainer
from repro.fl.trainer import FLTrainer
from repro.nn.models import make_cnn, make_mlp
from repro.online.adaptive_trainer import AdaptiveKTrainer
from repro.online.algorithm3 import AdaptiveSignOGD
from repro.online.interval import SearchInterval
from repro.online.policy import SignPolicy
from repro.parallel.sharded import ShardedBackend
from repro.scenarios import ScenarioConfig
from repro.simulation.heterogeneous import HeterogeneousTimingModel
from repro.simulation.timing import TimingModel
from repro.sparsify.fab_topk import FABTopK

LEARNING_RATE = 0.05
BATCH_SIZE = 16
COMM_TIME = 10.0
EVAL_EVERY = 10


@dataclass
class Episode:
    """One freshly built trainer plus the zero-argument round call."""

    trainer: object
    step: Callable[[], object]
    #: the deployment scenario, when the workload has one
    scenario: object = None

    def close(self) -> None:
        self.trainer.close()


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: rounds per episode, the warm-up round included; a multiple of
    #: EVAL_EVERY so the last round is evaluated
    rounds: int
    #: eval loss whose first crossing defines sim_time_to_target_loss
    target_loss: float
    #: episodes whose mean gives the quality metrics: the fixed
    #: reference seeds 0..panel-2 plus one seed made from the run's seed
    panel: int
    #: worker processes the workload must run on (0 = in process)
    workers: int
    build: Callable[..., Episode]


def fixed_k(dimension: int, clients: int) -> int:
    """Fig. 4's sparsity regime, k = 0.4·D/N."""
    return max(2, int(0.4 * dimension / clients))


def _femnist(num_writers: int, seed: int, flatten: bool = True):
    ds = make_femnist_like(
        num_writers=num_writers, samples_per_writer=25, num_classes=16,
        image_size=10 if flatten else 8, classes_per_writer=5,
        flatten=flatten, seed=seed,
    )
    return partition_by_writer(ds, seed=seed)


def build_adaptive_mlp96(seed: int) -> Episode:
    federation = _femnist(96, seed)
    model = make_mlp(100, 16, hidden=(16,), seed=seed)
    dimension = model.dimension
    interval = SearchInterval(max(2.0, 0.002 * dimension), float(dimension))
    trainer = AdaptiveKTrainer(
        model, federation, FABTopK(), SignPolicy(AdaptiveSignOGD(interval)),
        TimingModel(dimension=dimension, comm_time=COMM_TIME),
        learning_rate=LEARNING_RATE, batch_size=BATCH_SIZE,
        eval_every=EVAL_EVERY, backend="vectorized", seed=seed,
    )
    return Episode(trainer, trainer.step)


def build_cnn24(seed: int, backend=None) -> Episode:
    """``backend=None`` is the measured 2-worker pool; the traced pass
    passes ``"vectorized"`` for the single-process baseline."""
    federation = _femnist(24, seed, flatten=False)
    model = make_cnn(image_size=8, channels=1, num_classes=16,
                     conv_channels=(4, 8), dense_width=16, seed=seed)
    trainer = FLTrainer(
        model, federation, FABTopK(),
        timing=TimingModel(dimension=model.dimension, comm_time=COMM_TIME),
        learning_rate=LEARNING_RATE, batch_size=BATCH_SIZE,
        eval_every=EVAL_EVERY, seed=seed,
        backend=backend if backend is not None else ShardedBackend(jobs=2),
    )
    k = fixed_k(model.dimension, 24)
    return Episode(trainer, lambda: trainer.step(k))


CHURN_COHORT = 32


def build_churn_population(seed: int) -> Episode:
    scenario = ScenarioConfig(
        availability="markov", p_drop=0.15, p_recover=0.6,
        participants=CHURN_COHORT, over_selection=0.25,
        deadline=2.5, deadline_policy="adaptive",
        deadline_min=2.0, deadline_max=9.0,
        slow_fraction=0.25, slow_factor=4.0,
        adversary="scale", adversary_fraction=0.1,
        aggregator="trimmed_mean", seed=seed,
    )
    config = ExperimentConfig(
        population=100_000, samples_per_client=25, image_size=10,
        num_classes=16, classes_per_writer=5, hidden=(16,),
        learning_rate=LEARNING_RATE, batch_size=BATCH_SIZE,
        comm_time=COMM_TIME, eval_every=EVAL_EVERY,
        scenario=scenario.to_dict(), seed=seed,
    )
    federation = build_federation(config)
    model = build_model(config)
    timing, deployment = build_scenario(config, [], model.dimension)
    trainer = FLTrainer(
        model, federation, FABTopK(), timing=timing,
        learning_rate=LEARNING_RATE, batch_size=BATCH_SIZE,
        eval_every=EVAL_EVERY, backend="vectorized", scenario=deployment,
        seed=seed,
    )
    k = fixed_k(model.dimension, CHURN_COHORT)
    return Episode(trainer, lambda: trainer.step(k), deployment)


ASYNC_CLIENTS = 48


def build_async_stragglers(seed: int) -> Episode:
    federation = _femnist(ASYNC_CLIENTS, seed)
    model = make_mlp(100, 16, hidden=(16,), seed=seed)
    profiles = ScenarioConfig(
        availability="always", slow_fraction=0.25, slow_factor=4.0,
        seed=seed,
    ).build_profiles([c.client_id for c in federation.clients])
    timing = HeterogeneousTimingModel(
        model.dimension, comm_time=COMM_TIME, profiles=profiles
    )
    trainer = AsyncFLTrainer(
        model, federation, FABTopK(), timing=timing,
        learning_rate=LEARNING_RATE, batch_size=BATCH_SIZE,
        eval_every=EVAL_EVERY, backend="vectorized", profiles=profiles,
        discount="adaptive", commit_count=ASYNC_CLIENTS // 2, seed=seed,
    )
    k = fixed_k(model.dimension, ASYNC_CLIENTS)
    return Episode(trainer, lambda: trainer.step(k))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fab-adaptive-mlp96",
            "the paper's algorithm: 96 clients, online k via sign probes, "
            "per-client loops and FAB selection over 96 uploads",
            rounds=100, target_loss=1.0, panel=6, workers=0,
            build=build_adaptive_mlp96,
        ),
        Workload(
            "fab-cnn24-sharded2",
            "conv forward/backward on a 2-worker pool; bypasses client "
            "loops, scenarios and the online-k probe",
            rounds=60, target_loss=2.75, panel=14, workers=2,
            build=build_cnn24,
        ),
        Workload(
            "churn-population100k",
            "100k virtual users: cohort sampling, shard regeneration, "
            "adaptive deadline probes and trimmed-mean aggregation",
            rounds=100, target_loss=2.6, panel=7, workers=0,
            build=build_churn_population,
        ),
        Workload(
            "async-stragglers48",
            "async commits of 24 of 48 clients under 4x stragglers with "
            "the learned staleness exponent probe",
            rounds=160, target_loss=1.8, panel=24, workers=0,
            build=build_async_stragglers,
        ),
    )
}
