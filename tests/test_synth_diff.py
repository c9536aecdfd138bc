"""Differential check of the block walk against the record-at-a-time walk
it replaced (tests/ref_synth.py): the same .prv text, the same expected
metrics and the same compute matrix, on seeded random scenarios."""

import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from paraslice import synth
from paraslice.synth import (
    PATTERNS,
    compute_matrix,
    expected_metrics,
    generate_with_expected,
    load_scenario,
)

from ref_synth import _compute_rows, reference_generate

# jitter in grid steps: none, narrow, wider than 32 bits, past int64
JITTER_STEPS = (0, 3, 2**33, 10**22)


@st.composite
def compute_docs(draw, rank_count, step):
    kind = draw(st.sampled_from(
        ("uniform", "explicit") if step > 1
        else ("uniform", "explicit", "linear_imbalance")))
    doc = {"kind": kind, "jitter_ns": draw(st.sampled_from(JITTER_STEPS))
           * step}
    if kind == "explicit":
        doc["values_ns"] = [v * step for v in draw(st.lists(
            st.integers(1, 5000), min_size=rank_count,
            max_size=rank_count))]
    else:
        doc["mean_ns"] = draw(st.integers(1000, 5000)) * step
    if kind == "linear_imbalance":
        doc["imbalance_ratio"] = draw(st.sampled_from((1.25, 1.5)))
    return doc


@st.composite
def scenario_docs(draw):
    """Every pattern in either unit; splits from 1 to P; a jittered none
    phase, which leaves the ranks unaligned, before any barrier pattern;
    iteration counts on each side of the walk's block size."""
    P = draw(st.one_of(st.integers(2, 16), st.integers(17, 127),
                       st.integers(128, 300)))
    unit = draw(st.sampled_from(("ns", "us")))
    step = 1000 if unit == "us" else 1
    per = max(1, synth._DRAW_BLOCK // P)
    phases = []
    for _ in range(draw(st.integers(1, 3))):
        pattern = draw(st.sampled_from(PATTERNS))
        if pattern != "none" and draw(st.booleans()):
            phases.append({"pattern": "none", "iterations": 1, "compute": {
                "kind": "uniform", "mean_ns": 1000 * step,
                "jitter_ns": 999 * step}})
        phase = {"pattern": pattern,
                 "iterations": draw(st.sampled_from(
                     (1, 2, max(1, per - 1), per, per + 1))),
                 "compute": draw(compute_docs(P, step))}
        if pattern != "none":
            phase["injected_wait_ns"] = draw(st.sampled_from((0, 1, 50))) \
                * step
        if pattern == "allreduce":
            phase["communicator_split"] = draw(st.one_of(
                st.sampled_from((1, P)), st.integers(1, P)))
        elif pattern != "none":
            phase["message_bytes"] = draw(st.sampled_from((0, 64, 65536)))
        phases.append(phase)
    return {"name": "diff", "rank_count": P, "time_unit": unit,
            "seed": draw(st.integers(0, 2**32)), "phases": phases}


@settings(derandomize=True, database=None, max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(scenario_docs())
def test_block_walk_matches_record_walk(doc):
    scenario = load_scenario(doc)
    text, expected = reference_generate(scenario)
    with tempfile.TemporaryDirectory() as tmp:
        prv, _, got = generate_with_expected(scenario, Path(tmp) / "t.prv")
        assert Path(prv).read_text(encoding="utf-8") == text
    assert got == expected
    assert expected_metrics(scenario) == expected
    rows = _compute_rows(scenario)
    assert compute_matrix(scenario) == [
        [list(next(rows)) for _ in range(ph.iterations)]
        for ph in scenario.phases]
