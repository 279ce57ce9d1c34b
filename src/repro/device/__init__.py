"""Simulated CUDA devices: specs, runtime, bandwidth model, autotuner."""

from .autotune import MIN_BLOCK, SLOWDOWN_THRESHOLD, Autotuner, Phase, TunerState
from .gpu import Device, DeviceStats
from .memmodel import (
    KernelCost,
    LaunchError,
    blocks_per_sm,
    kernel_cost,
    resident_threads,
    sustained_bandwidth,
    transfer_time,
)
from .specs import K20M_ECC_ON, K20X_ECC_OFF, K20X_ECC_ON, DeviceSpec

__all__ = [
    "Autotuner",
    "Device",
    "DeviceSpec",
    "DeviceStats",
    "K20M_ECC_ON",
    "K20X_ECC_OFF",
    "K20X_ECC_ON",
    "KernelCost",
    "LaunchError",
    "MIN_BLOCK",
    "Phase",
    "SLOWDOWN_THRESHOLD",
    "TunerState",
    "blocks_per_sm",
    "kernel_cost",
    "resident_threads",
    "sustained_bandwidth",
    "transfer_time",
]
