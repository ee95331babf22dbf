import dataclasses
import math
import tracemalloc
from itertools import product

import numpy as np
import pytest

import oracles
from latticegate.ensemble import (
    STAGES,
    LatticeFill,
    MeasurementStage,
    NonIdentifiableError,
    apparent_fidelity,
    background_subtract,
    run_stage,
    simulate_fill,
)
from latticegate.gate import STATE_LABELS, TruthTable


def _ideal_table() -> TruthTable:
    """Noiseless control-conditioned flip: multinomial draws from its rows
    are deterministic, so site bookkeeping can be asserted exactly."""
    populations = np.zeros((4, 4))
    for i, label in enumerate(STATE_LABELS):
        flipped = {"00": "00", "01": "01", "10": "11", "11": "10"}[label]
        populations[i, STATE_LABELS.index(flipped)] = 1.0
    return TruthTable(populations, np.zeros(4))


def _site_counts(rows) -> tuple[int, int, int]:
    """(paired, control-only, target-only) sites of (control, target) rows,
    classified one site at a time."""
    kinds = [(bool(control), bool(target)) for control, target in rows]
    return kinds.count((True, True)), kinds.count((True, False)), kinds.count((False, True))


def _fill_from_rows(rows) -> LatticeFill:
    return LatticeFill(len(rows), *_site_counts(rows), seed=77)


def _counts(fill: LatticeFill) -> tuple[int, int, int]:
    return fill.n_paired, fill.n_control_only, fill.n_target_only


# --- lattice filling --------------------------------------------------------------

def test_fill_is_reproducible():
    a = simulate_fill(5000, 0.6, seed=42)
    b = simulate_fill(5000, 0.6, seed=42)
    c = simulate_fill(5000, 0.6, seed=43)
    assert _counts(a) == _counts(b)
    assert _counts(a) != _counts(c)


def test_fill_statistics():
    n = 100_000
    fill = simulate_fill(n, 0.6, seed=5)
    sigma = math.sqrt(0.6 * 0.4 / (2 * n))
    atoms = 2 * fill.n_paired + fill.n_control_only + fill.n_target_only
    assert atoms / (2 * n) == pytest.approx(0.6, abs=4 * sigma)
    sigma_pair = math.sqrt(0.36 * 0.64 / n)
    assert fill.n_paired / n == pytest.approx(0.36, abs=4 * sigma_pair)


def test_fill_degenerate_probabilities():
    assert _counts(simulate_fill(100, 0.0, seed=1)) == (0, 0, 0)
    full = simulate_fill(100, 1.0, seed=1)
    assert full.n_paired == 100
    assert full.n_control_only == full.n_target_only == 0


def test_fill_counters():
    fill = _fill_from_rows([[1, 1], [1, 0], [0, 1], [0, 0], [1, 1]])
    assert fill.n_paired == 2
    assert fill.n_control_only == 1
    assert fill.n_target_only == 1
    # the counts are all the fill keeps, so they must not move
    with pytest.raises(dataclasses.FrozenInstanceError):
        fill.n_paired = fill.n_paired + 1


def _one_shot_counts(n_sites: int, p: float, seed: int) -> tuple[int, int, int]:
    occupancy = oracles.one_shot_fill(n_sites, p, seed)
    control, target = occupancy[:, 0], occupancy[:, 1]
    return (int(np.sum(control & target)), int(np.sum(control & ~target)),
            int(np.sum(~control & target)))


@pytest.mark.parametrize("p", [0.3, 0.9])
def test_fill_counts_follow_the_per_well_law_over_seeds(p):
    # the multinomial fill and the independent per-well draw agree in the
    # mean and the spread of every count over 400 seeds
    n, seeds = 20_000, range(400)
    draws = {
        "simulate_fill": np.array([_counts(simulate_fill(n, p, seed)) for seed in seeds]),
        "one_shot_fill": np.array([_one_shot_counts(n, p, seed) for seed in seeds]),
    }
    for name, counts in draws.items():
        # paired, control-only and target-only sites
        for i, pi in enumerate([p * p, p * (1 - p), (1 - p) * p]):
            sd = math.sqrt(n * pi * (1 - pi))
            z = (counts[:, i].mean() - n * pi) / (sd / math.sqrt(len(seeds)))
            assert abs(z) < 4, f"{name} count {i}: z = {z:.2f}"
            ratio = counts[:, i].std(ddof=1) / sd
            assert 0.85 < ratio < 1.15, f"{name} count {i}: sd ratio {ratio:.3f}"


def test_fill_peak_memory_does_not_grow_with_the_site_count():
    # one multinomial draw: no array of the site or well count is made
    simulate_fill(1000, 0.6, seed=1)  # first-call allocations stay out
    tracemalloc.start()
    try:
        simulate_fill(10**7, 0.6, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_fill_site_count_stops_below_int64_overflow(reference_table):
    # the unpaired-only stage bins 2 * n_sites atoms in int64 counts
    fill = simulate_fill(2**62 - 1, 1.0, seed=1)
    assert _counts(fill) == (2**62 - 1, 0, 0)
    mixed = run_stage(fill, reference_table, "10", "paired_and_unpaired")
    background = run_stage(fill, None, "10", "unpaired_only")
    double = run_stage(fill, reference_table, "10", "double_gate_with_flush")
    assert mixed.n_measured == double.n_measured == 2**62 - 1
    assert background.n_measured == 2 * (2**62 - 1)
    with pytest.raises(ValueError, match="n_sites"):
        simulate_fill(2**62, 1.0, seed=1)


def test_fill_validation():
    with pytest.raises(ValueError):
        simulate_fill(0, 0.5, seed=1)
    with pytest.raises(ValueError, match="add up"):
        LatticeFill(n_sites=3, n_paired=2, n_control_only=1, n_target_only=1, seed=1)
    with pytest.raises(ValueError, match="nonnegative"):
        LatticeFill(n_sites=3, n_paired=-1, n_control_only=1, n_target_only=1, seed=1)


# --- single-stage semantics ---------------------------------------------------------

def test_mixed_stage_bins_with_ideal_gate():
    fill = _fill_from_rows([[1, 1], [1, 1], [1, 0], [0, 1], [0, 0]])
    stage = run_stage(fill, _ideal_table(), "10", "paired_and_unpaired")
    # two pairs flip to 11; the lone control reads (1, 0); the lone target
    # was prepared in the target bit 0, so it reads (0, 0)
    assert stage.counts.tolist() == [1, 0, 1, 2]
    assert stage.leaked == 0
    assert stage.n_paired == 2 and stage.n_single == 2
    assert stage.n_measured == 4


def test_unpaired_stage_reads_every_atom_alone():
    fill = _fill_from_rows([[1, 1], [1, 1], [1, 0], [0, 1], [0, 0]])
    stage = run_stage(fill, None, "10", "unpaired_only")
    # 3 control atoms read (1, 0); 3 target atoms read (0, 0)
    assert stage.counts.tolist() == [3, 0, 3, 0]
    assert stage.n_paired == 0 and stage.n_single == 6


def test_double_gate_with_flush_ideal_round_trip():
    fill = _fill_from_rows([[1, 1], [1, 1], [1, 0], [0, 1]])
    stage = run_stage(fill, _ideal_table(), "10", "double_gate_with_flush")
    # pairs: 10 -> 11, target survives the flush, second pulse -> 10;
    # singles unchanged
    assert stage.counts.tolist() == [1, 0, 3, 0]
    assert stage.leaked == 0


def test_double_gate_flush_removes_dark_targets():
    fill = _fill_from_rows([[1, 1], [1, 1], [1, 1]])
    stage = run_stage(fill, _ideal_table(), "11", "double_gate_with_flush")
    # 11 -> 10 after the first pulse; the flushed pair cannot flip back
    assert stage.counts.tolist() == [0, 0, 3, 0]


def test_stage_rng_is_keyed_per_stage_and_input(reference_table):
    fill = simulate_fill(20_000, 0.6, seed=9)
    one = run_stage(fill, reference_table, "10", "paired_and_unpaired")
    two = run_stage(fill, reference_table, "10", "paired_and_unpaired")
    assert np.array_equal(one.counts, two.counts) and one.leaked == two.leaked
    other_input = run_stage(fill, reference_table, "11", "paired_and_unpaired")
    other_stage = run_stage(fill, reference_table, "10", "double_gate_with_flush")
    assert not np.array_equal(one.counts, other_input.counts)
    assert not np.array_equal(one.counts, other_stage.counts)


def test_stage_validation(reference_table):
    fill = simulate_fill(100, 0.5, seed=1)
    with pytest.raises(ValueError, match="stage"):
        run_stage(fill, reference_table, "10", "gate_only")
    with pytest.raises(ValueError, match="input_label"):
        run_stage(fill, reference_table, "2", "paired_and_unpaired")
    with pytest.raises(ValueError, match="truth table"):
        run_stage(fill, None, "10", "paired_and_unpaired")
    # the no-gate stage never needs the table
    run_stage(fill, None, "10", "unpaired_only")


def test_measurement_stage_record_invariants():
    MeasurementStage("unpaired_only", "10", np.array([2, 0, 3, 0]), 0, 0, 5)
    with pytest.raises(ValueError, match="add up"):
        MeasurementStage("unpaired_only", "10", np.array([2, 0, 3, 0]), 0, 0, 6)
    with pytest.raises(ValueError, match="nonnegative"):
        MeasurementStage("unpaired_only", "10", np.array([-1, 0, 3, 0]), 0, 0, 2)
    with pytest.raises(ValueError, match="stage"):
        MeasurementStage("warmup", "10", np.array([2, 0, 3, 0]), 0, 0, 5)
    with pytest.raises(ValueError, match="input_label"):
        MeasurementStage("unpaired_only", "12", np.array([2, 0, 3, 0]), 0, 0, 5)
    with pytest.raises(ValueError, match="length-4"):
        MeasurementStage("unpaired_only", "10", np.array([2, 0, 3]), 0, 0, 5)
    empty = MeasurementStage("unpaired_only", "10", np.zeros(4, dtype=int), 0, 0, 0)
    assert empty.fractions == (0.0,) * 5


def test_mixed_stage_matches_analytic_mixture(reference_table):
    # measured fractions = alpha * gate row + (1 - alpha) * single-atom row,
    # within multinomial scatter of the paired draw
    fill = simulate_fill(200_000, 0.6, seed=21)
    stage = run_stage(fill, reference_table, "10", "paired_and_unpaired")
    alpha = fill.n_paired / stage.n_measured
    gate_row5 = np.append(reference_table.row("10"),
                          reference_table.leakage[STATE_LABELS.index("10")])
    single_row5 = np.zeros(5)
    single_row5[STATE_LABELS.index("10")] = fill.n_control_only / (stage.n_single or 1)
    single_row5[STATE_LABELS.index("00")] += fill.n_target_only / (stage.n_single or 1)
    expected = alpha * gate_row5 + (1.0 - alpha) * single_row5
    scatter = alpha * np.sqrt(gate_row5 * (1.0 - gate_row5) / fill.n_paired)
    assert np.all(np.abs(stage.fractions - expected) <= 4.0 * scatter + 1e-12)


# --- background subtraction -----------------------------------------------------------

def _stage_pair(table, n_sites, p, seed, input_label="10"):
    fill = simulate_fill(n_sites, p, seed)
    return [
        run_stage(fill, table, input_label, "paired_and_unpaired"),
        run_stage(fill, None, input_label, "unpaired_only"),
    ]


def test_background_subtraction_recovers_gate_row(reference_table):
    stages = _stage_pair(reference_table, 100_000, 0.5, seed=123)
    row = background_subtract(stages)
    truth5 = np.append(reference_table.row("10"),
                       reference_table.leakage[STATE_LABELS.index("10")])
    got5 = np.append(row.probabilities, row.leaked)
    err5 = np.append(row.errors, row.leaked_error)
    z = np.abs(got5 - truth5) / np.where(err5 > 0, err5, 1.0)
    assert np.max(z) < 4.0
    assert row.probabilities.sum() + row.leaked == pytest.approx(1.0, abs=1e-12)
    assert 0.0 < row.paired_fraction < 1.0


def test_full_fill_needs_no_subtraction(reference_table):
    # p = 1: the mixed stage is pure gate signal and the correction must
    # return it bit-identically (alpha is exactly 1)
    stages = _stage_pair(reference_table, 50_000, 1.0, seed=8)
    row = background_subtract(stages)
    mixed = stages[0]
    assert row.paired_fraction == 1.0
    assert np.array_equal(row.probabilities, mixed.fractions[:4])
    assert row.leaked == mixed.fractions[4]


def test_apparent_fidelity_is_diluted_by_background(reference_table):
    stages = _stage_pair(reference_table, 100_000, 0.3, seed=55)
    row = background_subtract(stages)
    apparent = apparent_fidelity(stages[0])
    corrected = row.probabilities[STATE_LABELS.index("11")]
    assert apparent < corrected
    true_value = reference_table.row("10")[STATE_LABELS.index("11")]
    assert corrected == pytest.approx(true_value, abs=4.0 * row.errors[STATE_LABELS.index("11")])


def test_subtraction_not_identifiable_without_pairs(reference_table):
    rows = [[True, False]] * 50 + [[False, True]] * 50
    fill = _fill_from_rows(rows)
    stages = [
        run_stage(fill, reference_table, "10", "paired_and_unpaired"),
        run_stage(fill, None, "10", "unpaired_only"),
    ]
    with pytest.raises(NonIdentifiableError):
        background_subtract(stages)


def test_subtraction_stage_set_validation(reference_table):
    mixed, unpaired = _stage_pair(reference_table, 1000, 0.5, seed=4)
    one_each = "^need exactly one paired_and_unpaired and one unpaired_only stage$"
    for stage_set in ([unpaired], [mixed, mixed, unpaired], [mixed, unpaired, unpaired]):
        with pytest.raises(ValueError, match=one_each):
            background_subtract(stage_set)
    other = _stage_pair(reference_table, 1000, 0.5, seed=4, input_label="11")[1]
    with pytest.raises(ValueError, match="mix prepared inputs"):
        background_subtract([mixed, other])


def test_subtraction_needs_a_background_stage(reference_table):
    # an all-paired fill has no single atom in its mixed stage, yet the row
    # still needs its unpaired_only stage
    mixed = run_stage(simulate_fill(10_000, 1.0, seed=3), reference_table, "10", "paired_and_unpaired")
    with pytest.raises(ValueError, match="^need exactly one paired_and_unpaired and one unpaired_only stage$"):
        background_subtract([mixed])


def test_an_empty_background_stage_is_refused(reference_table):
    # only a stage of another, empty fill measures no atom; subtracting it
    # would divide by zero
    mixed = run_stage(simulate_fill(1000, 0.5, seed=4), reference_table, "10", "paired_and_unpaired")
    empty = run_stage(simulate_fill(1000, 0.0, seed=4), None, "10", "unpaired_only")
    assert empty.n_measured == 0
    with pytest.raises(ValueError, match="^the unpaired_only stage measured no atom$"):
        background_subtract([mixed, empty])


def test_error_bars_shrink_with_site_count(reference_table):
    small = background_subtract(_stage_pair(reference_table, 10_000, 0.5, seed=6))
    large = background_subtract(_stage_pair(reference_table, 1_000_000, 0.5, seed=6))
    both = (small.errors > 0) & (large.errors > 0)
    assert both.any()
    ratio = np.median(large.errors[both] / small.errors[both])
    assert ratio == pytest.approx(0.1, rel=0.3)


# --- bits of the readout -----------------------------------------------------------------

def _hex(values) -> list[str]:
    return [float(x).hex() for x in values]


def _dense_table() -> TruthTable:
    """Every row weights all four outputs and leakage, so the double gate's
    second pulses land in bins its flushed outputs also fill; a gate table
    never moves the control bit and keeps those bins apart."""
    base = np.array([0.4, 0.2, 0.25, 0.1])
    populations = np.array([np.roll(base, i) for i in range(4)])
    return TruthTable(populations, 1.0 - populations.sum(axis=1))


@pytest.mark.parametrize("p", [0.0, 1.0, 0.3, 0.9])
@pytest.mark.parametrize("n_sites", [1, 7, 1000, 10**7, 2**53 + 3, 2**62 - 1])
@pytest.mark.parametrize("dense", [False, True], ids=["gate_table", "dense_table"])
def test_readout_bits_match_the_numpy_reference(reference_table, n_sites, p, dense):
    # every count, fraction, corrected value and error as the numpy-array
    # readout gives them, bit for bit; above 2**53 a count is not an exact
    # double, and a fraction must divide float(count) by float(n) as numpy does
    table = _dense_table() if dense else reference_table
    for label, seed in product(STATE_LABELS, range(10)):
        fill = simulate_fill(n_sites, p, seed)
        stages = [run_stage(fill, None if stage == "unpaired_only" else table, label, stage)
                  for stage in STAGES]
        reference, row5 = oracles.one_shot_readout(table, label, n_sites, p, seed)
        for stage, (counts, leaked, fractions) in zip(stages, reference):
            assert stage.counts.dtype == np.int64
            assert (stage.counts.tolist(), stage.leaked) == (counts.tolist(), leaked)
            assert _hex(stage.fractions) == _hex(fractions)
        if row5 is None:
            with pytest.raises(NonIdentifiableError):
                background_subtract(stages)
            continue
        row = background_subtract(stages)
        probabilities, errors, alpha = row5
        assert _hex([*row.probabilities, row.leaked]) == _hex(probabilities)
        assert _hex([*row.errors, row.leaked_error]) == _hex(errors)
        assert row.paired_fraction.hex() == alpha.hex()
        assert row.probabilities.shape == row.errors.shape == (4,)


def test_stage_names_are_stable():
    assert STAGES == ("paired_and_unpaired", "unpaired_only", "double_gate_with_flush")
