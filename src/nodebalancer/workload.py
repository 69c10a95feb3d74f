"""Workload traces: deterministic demand curves applied as pod churn.

A trace gives a raw cpu demand level per tick. Demand is realized as
pods of the cluster's one quantum, so the actual total is the raw level
rounded to the nearest whole quantum (half rounds up). apply_workload
adjusts a cluster's pod set toward that target and always leaves
|actual - target| < quantum.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Union

from .model import Cluster, PodIds, ResourceVector


class ConstantTrace(NamedTuple):
    level: int

    kind = "Constant"

    def level_at(self, tick: int) -> float:
        (level,) = self
        return float(level)


class _StepFields(NamedTuple):
    steps: tuple[tuple[int, int], ...]


class StepTrace(_StepFields):
    """Piecewise-constant demand; steps are (start tick, level), first at 0."""

    __slots__ = ()
    kind = "Step"

    def __new__(cls, steps: tuple[tuple[int, int], ...]):
        if not steps or steps[0][0] != 0:
            raise ValueError("steps must be non-empty and start at tick 0")
        starts = [start for start, _ in steps]
        if starts != sorted(set(starts)):
            raise ValueError("step start ticks must be strictly ascending")
        return tuple.__new__(cls, (steps,))

    _make = classmethod(lambda cls, fields: cls(*fields))  # the one that _replace calls

    def level_at(self, tick: int) -> float:
        (steps,) = self
        level = steps[0][1]
        for start, value in steps:
            if start > tick:
                break
            level = value
        return float(level)


class _SineFields(NamedTuple):
    base: int
    amplitude: int
    period: int
    phase: int = 0


class SineTrace(_SineFields):
    """base + amplitude * sin(2*pi*(tick + phase) / period), clamped at 0."""

    __slots__ = ()
    kind = "Sine"

    def __new__(cls, base: int, amplitude: int, period: int, phase: int = 0):
        if period < 1:
            raise ValueError(f"period must be >= 1, got {period}")
        return tuple.__new__(cls, (base, amplitude, period, phase))

    _make = classmethod(lambda cls, fields: cls(*fields))  # the one that _replace calls

    def level_at(self, tick: int) -> float:
        base, amplitude, period, phase = self
        return base + amplitude * math.sin(2.0 * math.pi * (tick + phase) / period)


class SpikeTrace(NamedTuple):
    """Flat base with a rectangular burst on [start, start + duration)."""

    base: int
    peak: int
    start: int
    duration: int

    kind = "Spike"

    def level_at(self, tick: int) -> float:
        base, peak, start, duration = self
        return float(peak if start <= tick < start + duration else base)


TraceSpec = Union[ConstantTrace, StepTrace, SineTrace, SpikeTrace]


class WorkloadDelta(NamedTuple):
    """Pod churn performed by one apply_workload call; an immutable tuple."""

    created: PodIds
    deleted: PodIds


def _target_pods(trace: TraceSpec, tick: int, quantum: ResourceVector) -> int:
    """The trace's level at a tick, clamped at zero, in whole pods of quantum.

    target_demand and apply_workload both round through here, so the pods
    apply_workload aims at demand exactly target_demand.
    """
    if tick < 0:
        raise ValueError(f"tick must be >= 0, got {tick}")
    raw = max(0.0, trace.level_at(tick))
    return math.floor(raw / quantum.cpu + 0.5)  # nearest, half rounds up


def target_demand(trace: TraceSpec, tick: int, quantum: ResourceVector) -> ResourceVector:
    """The trace's level at a tick, clamped at zero and quantized to pods of quantum."""
    pods = _target_pods(trace, tick, quantum)
    return ResourceVector(pods * quantum.cpu, pods * quantum.memory)


def apply_workload(cluster: Cluster, trace: TraceSpec, tick: int) -> WorkloadDelta:
    """Adjust the cluster's pods toward the trace's target for this tick.

    Pods above the target are deleted newest-first (most recently added);
    pods below it are topped up with new Pending pods, and placement is the
    scheduler's job. The trace's level is rounded to pods of the cluster's
    quantum. New pod ids are unique per cluster and tick, so a second top-up
    at the same tick raises ValueError.
    """
    return WorkloadDelta(*cluster.resize(_target_pods(trace, tick, cluster.quantum), tick))
