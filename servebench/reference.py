"""Correctness references computed apart from the program.

Everything here is plain numpy over the weights a quantized DAG
carries; none of it calls into ``repro``.
"""

from __future__ import annotations

import numpy as np

#: Level scale of the 8-bit datapath (activations and weights on 0..255).
LEVELS = 255.0
#: Relative tolerance for comparing a joule total the program summed
#: with the same total summed here in another order.
LEDGER_RTOL = 1e-9
#: Two reference outputs closer than this (relative to the larger
#: magnitude) count as a tie: float summation order may pick either.
TIE_RTOL = 1e-9


def dense_layers(dag) -> list[tuple]:
    """``(weights, bias, nonlinearity, requant_divisor)`` per task."""
    layers = []
    for task in dag.tasks:
        if task.kind != "dense":
            raise ValueError(f"reference handles dense tasks, not {task.kind!r}")
        layers.append(
            (
                np.asarray(task.weights_levels, dtype=np.float64),
                None if task.bias_levels is None
                else np.asarray(task.bias_levels, dtype=np.float64),
                task.nonlinearity,
                float(task.requant_divisor),
            )
        )
    return layers


def forward(layers, x_levels: np.ndarray) -> np.ndarray:
    """Final-layer outputs of a quantized dense stack, exact arithmetic.

    Each layer computes ``x @ W.T / 255`` (plus bias), applies ReLU when
    the task asks for it, then requantizes onto the next layer's input
    scale and clips to 0..255 (every layer but the last).
    """
    h = np.atleast_2d(np.asarray(x_levels, dtype=np.float64))
    last = len(layers) - 1
    for index, (weights, bias, nonlinearity, divisor) in enumerate(layers):
        h = h @ weights.T / LEVELS
        if bias is not None:
            h = h + bias
        if nonlinearity == "relu":
            h = np.maximum(h, 0.0)
        elif nonlinearity not in (None, "none", "identity"):
            raise ValueError(f"reference has no {nonlinearity!r}")
        if index < last and divisor != 1.0:
            h = np.clip(h / divisor, 0.0, LEVELS)
    return h


def top1_and_ties(outputs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Argmax per row, and whether the top two outputs tie."""
    order = np.sort(outputs, axis=1)
    top, second = order[:, -1], order[:, -2]
    scale = np.maximum(np.abs(top), 1.0)
    return np.argmax(outputs, axis=1), (top - second) <= TIE_RTOL * scale


def three_source_joules(
    compute_s, datapath_s, queuing_s, power_w, datapath_power_w, dram_power_w
) -> float:
    """The paper's per-request energy, summed: t_c, t_d, t_q priced at
    accelerator, datapath and host-DRAM power."""
    return float(
        np.sum(compute_s) * power_w
        + np.sum(datapath_s) * datapath_power_w
        + np.sum(queuing_s) * dram_power_w
    )


def ledger_matches(ledger_j: float, formula_j: float) -> bool:
    return abs(ledger_j - formula_j) <= LEDGER_RTOL * max(abs(formula_j), 1e-30)
