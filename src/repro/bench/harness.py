"""Experiment registry and the sequential-oracle memo.

The paper evaluates nine applications, three of them with two input sets,
giving twelve configurations (Figures 1-12 plus Tables 1 and 2).  Each
:class:`Experiment` carries both a ``bench`` parameter preset (scaled to
run the whole grid in minutes of host time) and the ``paper`` preset (the
published problem size).

Runs execute through :func:`repro.api.run` and are shared through its
on-disk result cache; the only thing kept in-process is each
experiment's sequential run (the oracle every parallel run is checked
against), so a figure runs it once, not once per processor count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple

from repro.apps import base
from repro.apps.barnes_hut import BhParams
from repro.apps.ep import EpParams
from repro.apps.fft3d import FftParams
from repro.apps.ilink import IlinkParams
from repro.apps.is_sort import IsParams
from repro.apps.qsort import QsortParams
from repro.apps.sor import SorParams
from repro.apps.tsp import TspParams
from repro.apps.water import WaterParams

__all__ = [
    "EXPERIMENTS",
    "Experiment",
    "PRESETS",
    "clear_cache",
    "experiment",
    "experiment_of_app",
]

#: The processor counts the paper's figures sweep.
NPROCS_SERIES = (1, 2, 3, 4, 5, 6, 7, 8)

#: Problem-size presets every experiment carries (see :func:`params_for`).
PRESETS = ("tiny", "bench", "paper")


@dataclass(frozen=True)
class Experiment:
    """One of the paper's twelve evaluation configurations."""

    exp_id: str
    label: str
    app: str
    figure: int
    bench_params: Any
    paper_params: Any
    #: Short description of the problem size, for Table 1's size column.
    size_note: str
    #: Seconds-scale parameterization for smoke/golden-trace tests.
    tiny_params: Any = None


EXPERIMENTS: Dict[str, Experiment] = {}


def _add(exp: Experiment) -> None:
    EXPERIMENTS[exp.exp_id] = exp


_add(Experiment("fig01", "EP", "ep", 1,
                EpParams.bench(), EpParams.paper(),
                "2^{log2_pairs} Gaussian pairs",
                tiny_params=EpParams.tiny()))
_add(Experiment("fig02", "SOR-Zero", "sor", 2,
                SorParams.bench(), SorParams.paper(),
                "{rows} x 2x{width} doubles, zero interior",
                tiny_params=SorParams.tiny()))
_add(Experiment("fig03", "SOR-NonZero", "sor", 3,
                SorParams.bench(nonzero=True), SorParams.paper(nonzero=True),
                "{rows} x 2x{width} doubles, nonzero",
                tiny_params=SorParams.tiny(nonzero=True)))
_add(Experiment("fig04", "IS-Small", "is", 4,
                IsParams.bench_small(), IsParams.paper_small(),
                "N=2^{log2_keys}, Bmax=2^{log2_bmax}",
                tiny_params=IsParams.tiny()))
_add(Experiment("fig05", "IS-Large", "is", 5,
                IsParams.bench_large(), IsParams.paper_large(),
                "N=2^{log2_keys}, Bmax=2^{log2_bmax}",
                tiny_params=IsParams.tiny(large=True)))
_add(Experiment("fig06", "TSP", "tsp", 6,
                TspParams.bench(), TspParams.paper(),
                "{ncities} cities, threshold {threshold}",
                tiny_params=TspParams.tiny()))
_add(Experiment("fig07", "QSORT", "qsort", 7,
                QsortParams.bench(), QsortParams.paper(),
                "{nkeys} integers, bubble threshold {threshold}",
                tiny_params=QsortParams.tiny()))
_add(Experiment("fig08", "Water-288", "water", 8,
                WaterParams.bench_288(), WaterParams.paper_288(),
                "{nmol} molecules, {steps} steps",
                tiny_params=WaterParams.tiny()))
_add(Experiment("fig09", "Water-1728", "water", 9,
                WaterParams.bench_1728(), WaterParams.paper_1728(),
                "{nmol} molecules, {steps} steps",
                tiny_params=WaterParams(nmol=125, steps=2)))
_add(Experiment("fig10", "Barnes-Hut", "barnes_hut", 10,
                BhParams.bench(), BhParams.paper(),
                "{nbodies} bodies, {steps} steps",
                tiny_params=BhParams.tiny()))
_add(Experiment("fig11", "3D-FFT", "fft3d", 11,
                FftParams.bench(), FftParams.paper(),
                "{n1}x{n2}x{n3} complex, {iterations} iterations",
                tiny_params=FftParams.tiny()))
_add(Experiment("fig12", "ILINK", "ilink", 12,
                IlinkParams.bench(), IlinkParams.paper(),
                "synthetic CLP-like pedigree, {families} families",
                tiny_params=IlinkParams.tiny()))


def experiment(exp_id: str) -> Experiment:
    """Look an experiment id up; the one "unknown experiment" message
    every surface (RunConfig, CLI, serve, sweep) reports."""
    try:
        return EXPERIMENTS[exp_id]
    except KeyError:
        raise ValueError(f"unknown experiment {exp_id!r}; "
                         f"try: {', '.join(EXPERIMENTS)}") from None


def experiment_of_app(app: str) -> str:
    """The first experiment running ``app`` (what ``trace APP`` runs);
    ``ValueError`` with the "unknown app" message otherwise."""
    try:
        base.get_app(app)
    except KeyError as exc:
        raise ValueError(exc.args[0]) from None
    return next(exp.exp_id for exp in EXPERIMENTS.values() if exp.app == app)


def params_for(exp: Experiment, preset: str = "bench") -> Any:
    if preset not in PRESETS:
        raise ValueError(f"unknown preset {preset!r}")
    params = getattr(exp, f"{preset}_params")
    if params is None:
        raise ValueError(f"{exp.exp_id} has no {preset} parameterization")
    return params


def size_string(exp: Experiment, preset: str = "bench") -> str:
    params = params_for(exp, preset)
    try:
        return exp.size_note.format(**vars(params))
    except (KeyError, IndexError):
        return exp.size_note


# ----------------------------------------------------------------------
# Sequential oracle (at most 12 experiments x 3 presets)
# ----------------------------------------------------------------------
_SEQ_CACHE: Dict[Tuple[str, str], base.SeqResult] = {}


def clear_cache() -> None:
    _SEQ_CACHE.clear()


def _seq(exp_id: str, preset: str) -> base.SeqResult:
    key = (exp_id, preset)
    if key not in _SEQ_CACHE:
        exp = EXPERIMENTS[exp_id]
        _SEQ_CACHE[key] = base.run_sequential(exp.app, params_for(exp, preset))
    return _SEQ_CACHE[key]
