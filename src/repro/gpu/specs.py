"""GPU device specifications.

Each :class:`GPUSpec` captures the handful of device parameters the
analytical time/power model needs: the lockable SM-frequency ladder, board
power envelope, peak compute throughput and memory bandwidth.

The registry mirrors the devices used in the paper: A100 PCIe (testbed in
§6.1), A100 SXM (large-scale emulation, §6.3), A40 (testbed), plus H100 and
V100 for the "newer GPUs save more" discussion in §6.2.1.  Frequency ranges
match the paper exactly: A100 210-1410 MHz, A40 210-1740 MHz, H100 SXM up to
1980 MHz, all in 15 MHz steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple, Union

from ..exceptions import ConfigurationError
from ..keys import key_part
from .frequency import FrequencyTable


@key_part
@dataclass(frozen=True)
class GPUSpec:
    """Static description of one GPU model.

    The DVFS behaviour is calibrated against the paper's Figure 11: on real
    A100/A40 GPUs, locking the SM clock ~45% below max inflates GEMM latency
    by only ~25% (throughput scales sub-linearly, ``perf ~ f^alpha`` with
    alpha < 0.5, due to memory/L2/issue limits), while board power falls
    steeply toward a voltage floor.  This yields a per-computation Pareto
    curve whose minimum-energy point sits at ~1.25x time / ~0.65x energy --
    matching the measured tradeoffs the Perseus planner exploits.

    Attributes:
        name: Human-readable device name (registry key).
        freq: Supported SM frequency ladder.
        tdp_w: Board power at full utilization and maximum clock (watts).
        idle_w: Static power with no work issued (NVML idle baseline).
        blocking_w: Power while busy-looping inside a NCCL kernel waiting on
            communication -- the paper's ``P_blocking`` (§4.1).
        active_floor_w: Power under full load as the clock approaches the
            voltage floor (``P(f) = floor + (tdp - floor) * (f/f_max)^gamma``).
        peak_tflops: Dense half-precision throughput at the maximum SM clock.
        mem_bandwidth_gbps: HBM bandwidth in GB/s (SM-clock independent).
        power_exponent: ``gamma`` of the dynamic-power curve (steep: the
            top clock bins pay a large voltage premium).
        perf_exponent: ``alpha`` of the throughput curve
            ``perf(f) = peak * (f/f_max)^alpha``.
    """

    name: str
    freq: FrequencyTable
    tdp_w: float
    idle_w: float
    blocking_w: float
    active_floor_w: float
    peak_tflops: float
    mem_bandwidth_gbps: float
    power_exponent: float = 4.0
    perf_exponent: float = 0.37

    def __post_init__(self) -> None:
        if self.tdp_w <= self.idle_w:
            raise ConfigurationError("TDP must exceed idle power")
        if not (self.idle_w <= self.blocking_w <= self.tdp_w):
            raise ConfigurationError("blocking power must lie in [idle, TDP]")
        if not (self.idle_w <= self.active_floor_w < self.tdp_w):
            raise ConfigurationError("active floor must lie in [idle, TDP)")
        if self.peak_tflops <= 0 or self.mem_bandwidth_gbps <= 0:
            raise ConfigurationError("throughput figures must be positive")
        if self.power_exponent <= self.perf_exponent:
            raise ConfigurationError(
                "power must fall faster than performance for an interior "
                "minimum-energy clock to exist"
            )
        if not 0.0 < self.perf_exponent <= 1.0:
            raise ConfigurationError("perf exponent must be in (0, 1]")

    @property
    def max_freq(self) -> int:
        return self.freq.max

    @property
    def min_freq(self) -> int:
        return self.freq.min

    def peak_flops_at(self, freq_mhz: int) -> float:
        """Achievable FLOP/s at a given SM clock (sub-linear in frequency)."""
        x = freq_mhz / self.max_freq
        return self.peak_tflops * 1e12 * x**self.perf_exponent


# The A100's narrower clock range (210-1410 MHz) gives it less headroom
# than the A40 (210-1740 MHz) -- the reason A40 shows deeper savings in
# §6.2.1 -- and its calibration targets a min-energy point near ~1.18x time
# / ~0.78x energy per computation, which reproduces the ~16% average
# upper-bound savings of Section 2.4 on this GPU.
A100_PCIE = GPUSpec(
    name="A100-PCIe-80G",
    freq=FrequencyTable.from_range(210, 1410, 15),
    tdp_w=300.0,
    idle_w=62.0,
    blocking_w=95.0,
    active_floor_w=180.0,
    peak_tflops=312.0,
    mem_bandwidth_gbps=1935.0,
    power_exponent=3.2,
    perf_exponent=0.28,
)

A100_SXM = GPUSpec(
    name="A100-SXM-80G",
    freq=FrequencyTable.from_range(210, 1410, 15),
    tdp_w=400.0,
    idle_w=75.0,
    blocking_w=105.0,
    active_floor_w=240.0,
    peak_tflops=312.0,
    mem_bandwidth_gbps=2039.0,
    power_exponent=3.2,
    perf_exponent=0.28,
)

# A40: wider clock range and a steeper effective tradeoff -- min-energy
# point near ~1.25x time / ~0.70x energy, reproducing the ~27% average
# upper-bound savings of Section 2.4 and the larger headline numbers the
# paper reports on this GPU.
A40 = GPUSpec(
    name="A40-48G",
    freq=FrequencyTable.from_range(210, 1740, 15),
    tdp_w=300.0,
    idle_w=48.0,
    blocking_w=70.0,
    active_floor_w=149.0,
    peak_tflops=149.7,
    mem_bandwidth_gbps=696.0,
    power_exponent=3.0,
    perf_exponent=0.32,
)

H100_SXM = GPUSpec(
    name="H100-SXM-80G",
    freq=FrequencyTable.from_range(210, 1980, 15),
    tdp_w=700.0,
    idle_w=90.0,
    blocking_w=130.0,
    active_floor_w=250.0,
    peak_tflops=989.0,
    mem_bandwidth_gbps=3350.0,
    power_exponent=3.8,
    perf_exponent=0.45,
)

V100_SXM = GPUSpec(
    name="V100-SXM-32G",
    freq=FrequencyTable.from_range(135, 1530, 15),
    tdp_w=300.0,
    idle_w=55.0,
    blocking_w=80.0,
    active_floor_w=135.0,
    peak_tflops=125.0,
    mem_bandwidth_gbps=900.0,
    power_exponent=3.5,
    perf_exponent=0.35,
)

_REGISTRY: Dict[str, GPUSpec] = {
    spec.name.lower(): spec
    for spec in (A100_PCIE, A100_SXM, A40, H100_SXM, V100_SXM)
}
_ALIASES: Dict[str, GPUSpec] = {
    "a100": A100_PCIE,
    "a100-pcie": A100_PCIE,
    "a100-sxm": A100_SXM,
    "a40": A40,
    "h100": H100_SXM,
    "v100": V100_SXM,
}


def get_gpu(name: str) -> GPUSpec:
    """Look up a GPU spec by name or alias (case-insensitive)."""
    key = name.lower()
    if key in _REGISTRY:
        return _REGISTRY[key]
    if key in _ALIASES:
        return _ALIASES[key]
    raise ConfigurationError(
        f"unknown GPU {name!r}; known: {sorted(_REGISTRY) + sorted(_ALIASES)}"
    )


def list_gpus() -> list:
    """All registered canonical GPU names."""
    return sorted(_REGISTRY)


#: Anything naming one GPU (registry name/alias or an explicit spec) or a
#: per-stage sequence thereof -- the type every planning entry point takes.
GPULike = Union[str, GPUSpec, Sequence[Union[str, GPUSpec]]]


def resolve_gpus(gpu: GPULike, num_stages: int) -> Tuple[GPUSpec, ...]:
    """Per-stage GPU specs from a name, a spec, or a per-stage sequence.

    A single name/spec is broadcast to every stage; a sequence must name
    exactly one GPU per stage (mixed clusters assign hardware positionally).
    """
    if isinstance(gpu, (str, GPUSpec)):
        gpu = (gpu,) * num_stages
    resolved = tuple(
        g if isinstance(g, GPUSpec) else get_gpu(g) for g in gpu
    )
    if len(resolved) != num_stages:
        raise ConfigurationError(
            f"need one GPU per stage: got {len(resolved)} for "
            f"{num_stages} stages"
        )
    return resolved


def is_homogeneous(gpus: Sequence[GPUSpec]) -> bool:
    """Whether every stage runs the same device (aliases compare equal)."""
    return all(g == gpus[0] for g in gpus)
