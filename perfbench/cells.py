"""Seeded inputs of every workload.

The seed picks each cell's batch size and, within a cost class, its
optimizer.  Optimizers in one class make the same number of memory events
(``adam``/``adamw`` keep two state tensors per parameter,
``adagrad``/``rmsprop`` one), so another seed gives other inputs and other
peaks while the work per cell stays comparable from seed to seed: the
run-to-run spread then measures the program, not the draw.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Optional

from repro.allocator.constants import DEFAULT_CONFIG, AllocatorConfig
from repro.units import MiB
from repro.workload import (
    A100_40GB,
    RTX_3060,
    RTX_4060,
    DeviceSpec,
    WorkloadConfig,
)

DEFAULT_SEED = 0

TWO_STATE = ("adam", "adamw")
ONE_STATE = ("adagrad", "rmsprop")

#: cold-zoo models: (name, optimizer class, batch sizes).  About half CNN,
#: half transformer; the classes alternate so each family has both.  The
#: count is odd so that a pass's median cell is one cell, not the midpoint
#: between two models of different cost.
COLD_CNNS = (
    ("VGG16", TWO_STATE, (16, 32, 64)),
    ("MobileNetV3Small", ONE_STATE, (16, 32, 64)),
    ("MnasNet", TWO_STATE, (16, 32, 64)),
    ("VGG19", ONE_STATE, (16, 32, 64)),
    ("ConvNeXtTiny", TWO_STATE, (16, 32, 64)),
    ("MobileNetV2", ONE_STATE, (16, 32, 64)),
)
COLD_TRANSFORMERS = (
    ("distilgpt2", TWO_STATE, (4, 8, 16)),
    ("gpt2", ONE_STATE, (4, 8, 16)),
    ("t5-small", TWO_STATE, (4, 8, 16)),
    ("opt-125m", ONE_STATE, (4, 8, 16)),
    ("Cerebras-GPT-111M", TWO_STATE, (4, 8, 16)),
    ("gpt-neo-125M", ONE_STATE, (4, 8, 16)),
    ("pythia-1b", TWO_STATE, (4, 8, 16)),
)
COLD_DEVICES = (RTX_3060, RTX_4060)

#: sweep-delta workloads.  The batch-size bands are chosen so each
#: workload goes over capacity on the same cells whatever batch the seed
#: picks: each transformer only without splitting on the RTX 4060, the
#: CNNs never.  That keeps 4 of 90 cells per pass on the bounded-replay
#: fallback and over half of them on the closed-form query, so the median
#: cell is a query for every seed.
SWEEP_WORKLOADS = (
    ("gpt2", TWO_STATE, (12, 16, 24)),
    ("t5-small", TWO_STATE, (16, 24, 32)),
    ("opt-125m", ONE_STATE, (16, 24, 32)),
    ("distilgpt2", TWO_STATE, (24, 32)),
    ("VGG16", ONE_STATE, (32, 64, 128)),
    ("MobileNetV2", TWO_STATE, (32, 64, 128)),
)
SWEEP_DEVICES = (RTX_3060, RTX_4060, A100_40GB)


@dataclass(frozen=True)
class AllocatorVariant:
    """One allocator setting of the ablation grid."""

    name: str
    config: AllocatorConfig = DEFAULT_CONFIG
    two_level: bool = True


SWEEP_VARIANTS = (
    AllocatorVariant("default"),
    AllocatorVariant("no-split", replace(DEFAULT_CONFIG, allow_split=False)),
    AllocatorVariant("one-level", two_level=False),
    AllocatorVariant(
        "no-cache", replace(DEFAULT_CONFIG, cache_segments=False)
    ),
    AllocatorVariant(
        "max-split-64m", replace(DEFAULT_CONFIG, max_split_size=64 * MiB)
    ),
)

#: warm catalog: cheap models, so warming 8 workloads x 2 devices in setup
#: stays well under a second.
WARM_MODELS = (
    ("VGG16", TWO_STATE + ONE_STATE, (8, 16, 32, 64)),
    ("VGG19", TWO_STATE + ONE_STATE, (8, 16, 32, 64)),
    ("distilgpt2", TWO_STATE + ONE_STATE, (2, 4, 8, 16)),
)
WARM_WORKLOADS = 8
WARM_DEVICES = (RTX_3060, RTX_4060)
ZIPF_EXPONENT = 1.1


@dataclass(frozen=True)
class Cell:
    """One estimate: a workload on a device, optionally with a variant."""

    workload: WorkloadConfig
    device: DeviceSpec
    variant: Optional[AllocatorVariant] = None

    @property
    def label(self) -> str:
        parts = [self.workload.label(), self.device.name]
        if self.variant is not None:
            parts.append(self.variant.name)
        return "|".join(parts)


def _pick(rng: random.Random, name: str, optimizers, batches) -> WorkloadConfig:
    return WorkloadConfig(
        model=name,
        optimizer=rng.choice(optimizers),
        batch_size=rng.choice(batches),
    )


def cold_cells(seed: int) -> list[Cell]:
    """13 distinct zoo cells in a seeded order, one per model."""
    rng = random.Random(f"cold-zoo:{seed}")
    cells = [
        Cell(_pick(rng, name, optimizers, batches), rng.choice(COLD_DEVICES))
        for name, optimizers, batches in COLD_CNNS + COLD_TRANSFORMERS
    ]
    rng.shuffle(cells)
    return cells


def sweep_workloads(seed: int) -> list[WorkloadConfig]:
    rng = random.Random(f"sweep-delta:{seed}")
    return [
        _pick(rng, name, optimizers, batches)
        for name, optimizers, batches in SWEEP_WORKLOADS
    ]


def sweep_cells(seed: int) -> list[Cell]:
    """The ablation grid: workloads x allocator variants x devices."""
    return [
        Cell(workload, device, variant)
        for workload in sweep_workloads(seed)
        for variant in SWEEP_VARIANTS
        for device in SWEEP_DEVICES
    ]


def warm_catalog(seed: int) -> list[Cell]:
    """8 distinct workloads x 2 devices, in a seeded popularity order."""
    rng = random.Random(f"warm-catalog:{seed}")
    workloads: list[WorkloadConfig] = []
    while len(workloads) < WARM_WORKLOADS:
        name, optimizers, batches = rng.choice(WARM_MODELS)
        workload = _pick(rng, name, optimizers, batches)
        if workload not in workloads:
            workloads.append(workload)
    catalog = [Cell(w, d) for w in workloads for d in WARM_DEVICES]
    rng.shuffle(catalog)
    return catalog


def zipf_requests(seed: int, catalog_size: int, count: int) -> list[int]:
    """``count`` catalog indices, zipf-distributed over popularity rank."""
    rng = random.Random(f"warm-requests:{seed}")
    weights = [1.0 / rank**ZIPF_EXPONENT for rank in range(1, catalog_size + 1)]
    return rng.choices(range(catalog_size), weights=weights, k=count)
