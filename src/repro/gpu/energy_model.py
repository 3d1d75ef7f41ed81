"""Analytical time/energy model for one GPU computation.

This module is the hardware substitution for a real profiled GPU (see
DESIGN.md §2).  A computation is described by a :class:`WorkProfile`
(FLOPs + memory bytes); the model maps (work, SM frequency) to a
deterministic duration and energy:

* ``t(f) = flops / (peak_flops * f/f_max) + bytes / mem_bw``
  -- a no-overlap roofline: the compute part scales inversely with the
  clock, the HBM part does not (SM clock does not move HBM bandwidth).
* ``e(f) = P(f) * t(f)`` with the super-linear power model of
  :mod:`repro.gpu.power`.

These two facts give exactly the convex Pareto tradeoff with an interior
minimum-energy frequency that the paper measures on A100/A40 (Figure 11).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..exceptions import ConfigurationError
from ..keys import key_part
from .power import PowerModel
from .specs import GPUSpec


@key_part
@dataclass(frozen=True)
class WorkProfile:
    """Hardware-independent description of one computation's work.

    Attributes:
        flops: Floating-point operations executed.
        mem_bytes: HBM traffic in bytes.
        utilization: Power-utilization scale in (0, 1]; lets lighter kernels
            (e.g., embedding lookups) draw less dynamic power than dense
            GEMMs at the same clock.
        compute_efficiency: Fraction of peak FLOP/s this kernel mix actually
            achieves (0, 1].  Wide vocabulary GEMMs run near peak while
            Transformer blocks interleave mem-bound layernorm/softmax and
            land near half peak -- the effect that shapes the imbalance
            ratios of Table 1.
    """

    flops: float
    mem_bytes: float
    utilization: float = 1.0
    compute_efficiency: float = 1.0

    def __post_init__(self) -> None:
        if self.flops < 0 or self.mem_bytes < 0:
            raise ConfigurationError("work must be non-negative")
        if self.flops == 0 and self.mem_bytes == 0:
            raise ConfigurationError("work must be non-empty")
        if not 0.0 < self.utilization <= 1.0:
            raise ConfigurationError("utilization must be in (0, 1]")
        if not 0.0 < self.compute_efficiency <= 1.0:
            raise ConfigurationError("compute efficiency must be in (0, 1]")

    @property
    def effective_flops(self) -> float:
        """FLOPs inflated by the kernel mix's efficiency loss."""
        return self.flops / self.compute_efficiency

    def scaled(self, factor: float) -> "WorkProfile":
        """A copy with FLOPs and bytes scaled by ``factor``."""
        if factor <= 0:
            raise ConfigurationError("scale factor must be positive")
        return WorkProfile(
            self.flops * factor,
            self.mem_bytes * factor,
            self.utilization,
            self.compute_efficiency,
        )

    def __add__(self, other: "WorkProfile") -> "WorkProfile":
        """Sum of two work profiles.

        Utilization is work-weighted; the combined efficiency preserves
        total *effective* FLOPs so that durations add exactly.
        """
        total_flops = self.flops + other.flops
        total_bytes = self.mem_bytes + other.mem_bytes
        w_self = self.flops + self.mem_bytes
        w_other = other.flops + other.mem_bytes
        util = (self.utilization * w_self + other.utilization * w_other) / (
            w_self + w_other
        )
        total_effective = self.effective_flops + other.effective_flops
        eff = total_flops / total_effective if total_effective > 0 else 1.0
        return WorkProfile(total_flops, total_bytes, util, min(1.0, eff))


class ComputationEnergyModel:
    """Maps (work, frequency) to deterministic duration / power / energy."""

    def __init__(self, spec: GPUSpec, power_model: Optional[PowerModel] = None):
        self.spec = spec
        self.power_model = power_model if power_model is not None else PowerModel(spec)

    def duration(self, work: WorkProfile, freq_mhz: int) -> float:
        """Execution time in seconds at a locked SM clock."""
        freq_mhz = self.spec.freq.clamp(freq_mhz)
        t_compute = work.effective_flops / self.spec.peak_flops_at(freq_mhz)
        t_memory = work.mem_bytes / (self.spec.mem_bandwidth_gbps * 1e9)
        return t_compute + t_memory

    def power(self, work: WorkProfile, freq_mhz: int) -> float:
        """Average board power (watts) while running this computation."""
        return self.power_model.compute_power(freq_mhz, work.utilization)

    def energy(self, work: WorkProfile, freq_mhz: int) -> float:
        """Energy in joules: power x duration."""
        return self.power(work, freq_mhz) * self.duration(work, freq_mhz)

    def time_energy(self, work: WorkProfile, freq_mhz: int) -> Tuple[float, float]:
        """(duration_s, energy_j) at a locked clock -- the profiler's view."""
        t = self.duration(work, freq_mhz)
        return t, self.power(work, freq_mhz) * t

    def min_energy_frequency(self, work: WorkProfile) -> int:
        """The clock minimizing raw energy for this computation.

        This is typically *not* the lowest clock (paper footnote 4): below
        some point, latency inflation outpaces power reduction.
        """
        best_freq = self.spec.max_freq
        best_energy = float("inf")
        for f in self.spec.freq:
            e = self.energy(work, f)
            if e < best_energy:
                best_energy = e
                best_freq = f
        return best_freq

    def min_effective_energy_frequency(
        self, work: WorkProfile, blocking_w: Optional[float] = None
    ) -> int:
        """Clock minimizing *effective* energy ``e(f) - P_blocking * t(f)``.

        Eq. 4 of the paper: slowing a computation also displaces time the
        GPU would otherwise spend blocking at ``P_blocking``, so the planner
        optimizes energy net of that baseline draw.
        """
        p_block = self.spec.blocking_w if blocking_w is None else blocking_w
        best_freq = self.spec.max_freq
        best = float("inf")
        for f in self.spec.freq:
            t, e = self.time_energy(work, f)
            eff = e - p_block * t
            if eff < best:
                best = eff
                best_freq = f
        return best_freq
