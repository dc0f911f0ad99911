"""Extension — the distributed (telegraph-equation) reference.

Everything in the paper lumps wires into RLC sections. This bench closes
the remaining gap to physics: against the exact lossy transmission line
(ABCD + Talbot inversion) it measures (a) how fast the lumped ladder
converges, and (b) how well the paper's closed-form delay predicts the
*distributed* line's delay — i.e. the model's total error including the
lumping it is built on.

Timed kernel: one distributed step-response evaluation (250 time points
x 64-node Talbot contours) — the cost the closed form avoids.
"""

from repro.analysis import TreeAnalyzer
from repro.simulation import ExactSimulator, TransmissionLine, measures, rms_error

from conftest import percent


def build_line():
    return TransmissionLine(
        resistance=6.6e3,
        inductance=0.36e-6,
        capacitance=0.16e-9,
        length=5e-3,
        source_resistance=30.0,
        load_capacitance=50e-15,
    )


def test_distributed_reference(report, benchmark):
    line = build_line()
    t = line.time_grid(points=400)
    reference = line.step_response(t)
    ref_delay = measures.delay_50(t, reference)

    rows = []
    for sections in (5, 10, 20, 40, 80):
        ladder = line.lumped_ladder(sections)
        simulator = ExactSimulator(ladder)
        waveform = simulator.step_response(line.sink_name(sections), t)
        lumped_delay = measures.delay_50(t, waveform)
        model_delay = TreeAnalyzer(ladder).delay_50(line.sink_name(sections))
        rows.append(
            (
                sections,
                rms_error(reference, waveform),
                percent(abs(lumped_delay - ref_delay) / ref_delay),
                percent(abs(model_delay - ref_delay) / ref_delay),
            )
        )
    report.table(
        ["sections", "waveform RMS vs dist.", "lumped delay err%",
         "eq35 delay err% (vs dist.)"],
        rows,
    )
    report.line()
    report.line(
        f"distributed 50% delay {ref_delay * 1e12:.2f} ps; time of flight "
        f"{line.time_of_flight * 1e12:.2f} ps; attenuation "
        f"{line.attenuation:.3f}."
    )
    report.line(
        "the lumping error vanishes with section count while the paper's "
        "closed-form error converges to its own 2-pole floor — at 20 "
        "sections the lumping is already no longer the bottleneck, which "
        "justifies the 20-section default everywhere in this repo."
    )

    waveform = benchmark(lambda: line.step_response(t[::4]))
    assert waveform.size == t[::4].size

    waveform_errors = [row[1] for row in rows]
    assert all(a > b for a, b in zip(waveform_errors, waveform_errors[1:]))
    lumped_errors = [row[2] for row in rows]
    assert lumped_errors[-1] < 1.0  # sub-percent delay at 80 sections
    model_errors = [row[3] for row in rows]
    assert model_errors[-1] < 12.0  # the 2-pole floor, not divergence
