"""Ensemble truth-table measurement with unpaired-atom background removal.

A randomly loaded lattice contains well pairs where both wells hold an atom
(these feel the gate) and single-occupied wells whose atom rides along
unaffected but still fluoresces at readout. Site-resolved detection cannot
tell a missing atom from a dark logical-0 one, so every occupied site is
binned into the four two-qubit populations with absent partners read as 0.
The measured populations are then a paired/unpaired mixture; a second run
with the pairing broken measures the unpaired response alone, and a linear
estimator recovers the gate-only row. The double-gate stage (gate, flush of
logical-0 targets, gate again) is kept as a diagnostic of pair survival.

Every stage reads only three counts of the fill: paired sites and sites with
only a control or only a target atom. With independent wells these counts
are one multinomial draw over the four kinds of site, so the fill is drawn
as that, with no occupancy array and no per-well stream.

All sampling is multinomial counting noise. Only the fill and the two gate
stages draw, each from a generator seeded from (fill seed, stage index,
input index), so stages are independently reproducible and safe to run in
parallel; unpaired_only draws nothing. A readout's cost is fixed per call:
three seedings and at most five multinomial calls, with the counts kept as
Python ints and the subtraction done in Python floats until a record is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .atomics import _require, _require_int
from .gate import IDEAL_CNOT_OUTPUT, STATE_LABELS, TruthTable

__all__ = [
    "STAGES",
    "LatticeFill",
    "MeasurementStage",
    "CorrectedRow",
    "NonIdentifiableError",
    "simulate_fill",
    "run_stage",
    "background_subtract",
    "apparent_fidelity",
]

STAGES = ("paired_and_unpaired", "unpaired_only", "double_gate_with_flush")


class NonIdentifiableError(RuntimeError):
    """The stage set cannot separate gate signal from background."""


@dataclass(frozen=True)
class LatticeFill:
    """Site counts of a loaded lattice of n_sites well pairs, each a control
    and a target well: pairs with both wells occupied, and sites whose only
    atom sits in the control or in the target well."""

    n_sites: int
    n_paired: int
    n_control_only: int
    n_target_only: int
    seed: int

    def __post_init__(self) -> None:
        if min(self.n_paired, self.n_control_only, self.n_target_only) < 0:
            raise ValueError("site counts must be nonnegative")
        if self.n_paired + self.n_control_only + self.n_target_only > self.n_sites:
            raise ValueError("site counts must add up to at most n_sites")


def simulate_fill(n_sites: int, p: float, seed: int) -> LatticeFill:
    """Independent Bernoulli occupancy per well, reproducible from seed.

    Each site's control and target well are occupied independently with
    probability p, so the site is paired, control-only, target-only or empty
    with probabilities p^2, p(1 - p), (1 - p)p and (1 - p)^2, and the three
    counts the stages read are exactly a multinomial draw over those four.
    One default_rng(seed).multinomial call draws them, in time and memory
    independent of n_sites.
    """
    # the unpaired-only stage bins up to 2 * n_sites atoms in int64 counts
    _require_int(1, 2**62, n_sites=n_sites)
    _require_int(0, seed=seed)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"fill probability p must lie in [0, 1], got {p!r}")
    q = 1.0 - p
    n_paired, n_control_only, n_target_only, _ = np.random.default_rng(seed).multinomial(
        n_sites, [p * p, p * q, q * p, q * q]).tolist()
    return LatticeFill(n_sites, n_paired, n_control_only, n_target_only, seed)


@dataclass(frozen=True)
class MeasurementStage:
    """Binned readout of one stage: site counts over the four two-qubit
    populations plus pairs lost to scattering, with the paired/single
    composition that produced them."""

    stage: str
    input_label: str
    counts: np.ndarray
    leaked: int
    n_paired: int
    n_single: int

    def __post_init__(self) -> None:
        if self.stage not in STAGES:
            raise ValueError(f"stage must be one of {STAGES}")
        if self.input_label not in STATE_LABELS:
            raise ValueError(f"input_label must be one of {STATE_LABELS}")
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.shape != (4,):
            raise ValueError("counts must be a length-4 vector")
        object.__setattr__(self, "counts", counts)
        listed = counts.tolist()
        if min(listed) < 0 or self.leaked < 0 or self.n_paired < 0 or self.n_single < 0:
            raise ValueError("counts must be nonnegative")
        if sum(listed) + self.leaked != self.n_paired + self.n_single:
            raise ValueError("bin counts must add up to the number of measured sites")

    @property
    def n_measured(self) -> int:
        """Entries binned: paired sites count once, single atoms once each."""
        return self.n_paired + self.n_single

    @property
    def fractions(self) -> np.ndarray:
        """(p00, p01, p10, p11, leaked) as fractions of measured entries."""
        return np.array(self._listed_fractions())

    def _listed_fractions(self) -> list[float]:
        # a count and n are both made floats before they divide, as numpy
        # divides an int64 array; above 2**53 that sets the bits
        n = float(self.n_measured)
        if n == 0.0:
            return [0.0] * 5
        return [float(c) / n for c in (*self.counts.tolist(), self.leaked)]


def _row_pvec(table: TruthTable, label: str) -> np.ndarray:
    i = STATE_LABELS.index(label)
    pvec = np.concatenate((table.row(label), table.leakage[i:i + 1]))
    # guard the 1e-9 norm slack so multinomial sees an exact distribution
    return pvec / pvec.sum()


def _bin_index(control: str, target: str) -> int:
    return STATE_LABELS.index(control + target)


def run_stage(
    fill: LatticeFill,
    table: TruthTable | None,
    input_label: str,
    stage: str,
) -> MeasurementStage:
    """Simulate one readout of the filled lattice.

    Paired sites are drawn from the truth-table row for the prepared input;
    single atoms pass through unchanged and read as their prepared logical
    state with the absent partner read as 0. unpaired_only breaks every
    pair and reads all atoms individually (table unused); the double-gate
    stage pulses, flushes logical-0 targets, and pulses again, with the
    second pulse applied to pairs that kept their target.
    """
    if stage not in STAGES:
        raise ValueError(f"stage must be one of {STAGES}")
    if input_label not in STATE_LABELS:
        raise ValueError(f"input_label must be one of {STATE_LABELS}")
    if table is None and stage != "unpaired_only":
        raise ValueError(f"stage {stage!r} involves the gate and needs a truth table")

    control_bit, target_bit = input_label
    counts = [0, 0, 0, 0]

    if stage == "unpaired_only":
        n_control = fill.n_paired + fill.n_control_only
        n_target = fill.n_paired + fill.n_target_only
        counts[_bin_index(control_bit, "0")] += n_control
        counts[_bin_index("0", target_bit)] += n_target
        return MeasurementStage(stage, input_label, counts, 0, 0, n_control + n_target)

    counts[_bin_index(control_bit, "0")] += fill.n_control_only
    counts[_bin_index("0", target_bit)] += fill.n_target_only
    n_single = fill.n_control_only + fill.n_target_only

    rng = np.random.default_rng([fill.seed, STAGES.index(stage), STATE_LABELS.index(input_label)])
    *drawn, leaked = rng.multinomial(fill.n_paired, _row_pvec(table, input_label)).tolist()
    if stage == "paired_and_unpaired":
        counts = [a + b for a, b in zip(counts, drawn)]
    else:
        for j, (out_label, n_out) in enumerate(zip(STATE_LABELS, drawn)):
            if out_label[1] == "0":
                # flush removes the logical-0 target; the control reads alone
                counts[j] += n_out
            elif n_out:
                *second, lost = rng.multinomial(n_out, _row_pvec(table, out_label)).tolist()
                counts = [a + b for a, b in zip(counts, second)]
                leaked += lost
    return MeasurementStage(stage, input_label, counts, leaked, fill.n_paired, n_single)


@dataclass(frozen=True)
class CorrectedRow:
    """Background-subtracted truth-table row with one-sigma errors.

    probabilities + leaked sum to 1 by construction of the linear
    estimator; paired_fraction is the exactly known mixture weight from
    the stage composition.
    """

    probabilities: np.ndarray
    leaked: float
    errors: np.ndarray
    leaked_error: float
    paired_fraction: float

    def __post_init__(self) -> None:
        _require("finite", leaked=self.leaked)
        _require("nonnegative", leaked_error=self.leaked_error, paired_fraction=self.paired_fraction)


def _multinomial_se(fractions: list[float], n: int) -> list[float]:
    return [math.sqrt(max(x * (1.0 - x), 0.0) / n) for x in fractions]


def background_subtract(stages: list[MeasurementStage]) -> CorrectedRow:
    """Remove the unpaired-atom background from a measured stage set.

    The mixed stage measures m = alpha * g + (1 - alpha) * u per site,
    with alpha the exactly counted paired fraction; the unpaired-only
    stage measures u; solving for g is a single linear step with
    multinomial errors propagated through it. A double-gate stage may be
    present and is ignored here. With no unpaired atoms in the
    unpaired-only stage there is nothing to subtract and the mixed-stage
    fractions are returned as-is.
    """
    mixed = [s for s in stages if s.stage == "paired_and_unpaired"]
    background = [s for s in stages if s.stage == "unpaired_only"]
    if len(mixed) != 1:
        raise ValueError("need exactly one paired_and_unpaired stage")
    if len(background) > 1:
        raise ValueError("need at most one unpaired_only stage")
    m_stage = mixed[0]
    labels = {s.input_label for s in stages}
    if len(labels) != 1:
        raise ValueError(f"stages mix prepared inputs {sorted(labels)}")

    if m_stage.n_paired == 0:
        raise NonIdentifiableError(
            "no paired sites in the mixed stage: the gate row does not appear "
            "in the measurement at all"
        )
    alpha = m_stage.n_paired / m_stage.n_measured
    m = m_stage._listed_fractions()
    m_err = _multinomial_se(m, m_stage.n_measured)

    u_stage = background[0] if background else None
    if u_stage is None or u_stage.n_measured == 0:
        corrected, err = m, m_err
    else:
        u = u_stage._listed_fractions()
        u_err = _multinomial_se(u, u_stage.n_measured)
        b = 1.0 - alpha
        corrected = [(x - b * y) / alpha for x, y in zip(m, u)]
        # x * x is numpy's x**2; tests hold every bit to the array form
        err = [math.sqrt(x * x + (b * y) * (b * y)) / alpha for x, y in zip(m_err, u_err)]

    return CorrectedRow(
        probabilities=np.array(corrected[:4]),
        leaked=corrected[4],
        errors=np.array(err[:4]),
        leaked_error=err[4],
        paired_fraction=alpha,
    )


def apparent_fidelity(stage: MeasurementStage) -> float:
    """Fraction of measured sites on the ideal output bin, background included."""
    ideal = IDEAL_CNOT_OUTPUT[stage.input_label]
    return float(stage.fractions[STATE_LABELS.index(ideal)])
