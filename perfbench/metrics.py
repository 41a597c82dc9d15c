"""The benchmark's metrics: names, units and bounds come from BENCHMARK.json.

End-to-end metrics are named by role so that every workload reports every
one of them: ``primary_s`` is the workload's main user-facing operation and
``secondary_s`` its follow-up (see ``ROLES``). Per-layer metrics come from a
traced run; ``SHOULD_MOVE`` gives, for each, the end-to-end metric and
workload it should move, which the manifest has no key for.
"""

from __future__ import annotations

import json
from pathlib import Path

from spans import percentile, summarize

MANIFEST = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
END_TO_END = [metric["name"] for metric in MANIFEST["end_to_end"]]
PER_LAYER = [metric["name"] for metric in MANIFEST["per_layer"]]
UNITS = {metric["name"]: metric["unit"] for metric in MANIFEST["end_to_end"] + MANIFEST["per_layer"]}

# workload -> the operations that primary_s and secondary_s time there
ROLES = {
    "select-tall": ("select_s", "verify_s"),
    "select-wide": ("select_s", "verify_s"),
    "cli-sweep": ("sweep_s", "cli_pipeline_s"),
    "katz-dichotomy": ("katz_s", "katz_cli_s"),
}

# per-layer metric -> the end-to-end metric (on which workload) it should move
SHOULD_MOVE = {
    "hermitian.eigh.calls": "select_s, verify_s on select-wide; nothing on select-tall",
    "hermitian.eigh.self_s": "select_s, verify_s on select-wide; nothing on select-tall",
    "hermitian.resolvent_quadratic_form.self_s": "verify_s on select-wide",
    "hermitian.outer_product_accumulate.self_s": "verify_s on select-wide",
    "selector.selection_step.calls": "select_s on select-tall; sweep_s on cli-sweep",
    "selector.selection_step.self_s": "select_s on select-tall; sweep_s on cli-sweep",
    "selector.selection_step.p50_s": "select_s on select-tall",
    "selector.selection_step.p99_s": "select_s on select-tall",
    "selector.selection_step.samples": "sample count behind p50_s and p99_s, over all traced rounds",
    "selector.scan_rows": "select_s on select-wide",
    "selector.scan_bytes_computed": "select_s on select-wide",
    "selector.verify_certificate.self_s": "verify_s on select-tall and select-wide",
    "selector.certificate_json_s": "cli_pipeline_s on cli-sweep",
    "selector.certificate_json_bytes": "cli_pipeline_s on cli-sweep",
    "selector.complement_lower_bound.self_s": "sweep_s on cli-sweep",
    "frames.construct.self_s": "setup_s on select-tall and select-wide",
    "frames.validate_frame.calls": "setup_s; sweep_s on cli-sweep (199 validations)",
    "frames.validate_frame.self_s": "setup_s; sweep_s on cli-sweep",
    "frames.frame_json_s": "cli_pipeline_s on cli-sweep",
    "frames.frame_json_bytes": "cli_pipeline_s on cli-sweep",
    "katz.build_katz.self_s": "setup_s and katz_cli_s on katz-dichotomy",
    "katz.dichotomy_check.self_s": "katz_s and katz_cli_s on katz-dichotomy",
    "katz.subsets_checked": "katz_s on katz-dichotomy",
    "katz.popcounts_computed": "katz_s on katz-dichotomy",
    "cli.process_start_s": "cli_pipeline_s on cli-sweep; katz_cli_s on katz-dichotomy",
    "cli.main.self_s": "cli_pipeline_s and sweep_s on cli-sweep",
    "cli.sweep.steps_run": "sweep_s on cli-sweep",
    "cli.sweep.step_reuse": "sweep_s on cli-sweep",
    "trace.rounds": "number of traced rounds the other per-layer values average over",
    "trace.wall_s": "traced round wall time; the self times sum to no more than this",
    "trace.untraced_wall_s": "the same round with tracing off",
    "trace.overhead_s": "tracing overhead: trace.wall_s minus trace.untraced_wall_s",
    "trace.self_sum_s": "sum of all span self times in a traced round",
}


def round_counts(summary: dict, counts: dict) -> dict:
    """The operation counts of one traced round; these must repeat exactly."""
    out = {f"{name}.calls": entry["calls"] for name, entry in summary.items()}
    out.update(counts)
    return out


def layer_metrics(rounds: list, untraced_walls: list[float]) -> dict:
    """Per-layer values from traced rounds, each averaged over the rounds.

    ``rounds`` holds (tracer, wall seconds) pairs; counts are taken from the
    first round, since the caller checks that every round repeats them.
    """
    n = len(rounds)
    summaries = [summarize(tracer.spans) for tracer, _ in rounds]
    first = round_counts(summaries[0], rounds[0][0].counts)

    def self_s(*names):
        return sum(s[name]["self_ns"] for s in summaries for name in names if name in s) / n / 1e9

    def count(name):
        return first.get(name, 0)

    steps = [d / 1e9 for s in summaries for d in s.get("selector.selection_step", {}).get("durations_ns", [])]
    sweep_steps = count("cli.sweep.steps_run")
    traced_wall = sum(wall for _, wall in rounds) / n
    self_sum = sum(s[name]["self_ns"] for s in summaries for name in s) / n / 1e9
    return {
        "hermitian.eigh.calls": count("hermitian.eigh.calls"),
        "hermitian.eigh.self_s": self_s("hermitian.eigh"),
        "hermitian.resolvent_quadratic_form.self_s": self_s("hermitian.resolvent_quadratic_form"),
        "hermitian.outer_product_accumulate.self_s": self_s("hermitian.outer_product_accumulate"),
        "selector.selection_step.calls": count("selector.selection_step.calls"),
        "selector.selection_step.self_s": self_s("selector.selection_step"),
        "selector.selection_step.p50_s": percentile(steps, 50),
        "selector.selection_step.p99_s": percentile(steps, 99),
        "selector.selection_step.samples": len(steps),
        "selector.scan_rows": count("selector.scan_rows"),
        "selector.scan_bytes_computed": count("selector.scan_bytes_computed"),
        "selector.verify_certificate.self_s": self_s("selector.verify_certificate"),
        "selector.certificate_json_s": self_s("selector.save_certificate", "selector.load_certificate"),
        "selector.certificate_json_bytes": count("selector.certificate_json_bytes"),
        "selector.complement_lower_bound.self_s": self_s("selector.complement_lower_bound"),
        "frames.construct.self_s": self_s("frames.harmonic_frame", "frames.modulated_harmonic_frame"),
        "frames.validate_frame.calls": count("frames.validate_frame.calls"),
        "frames.validate_frame.self_s": self_s("frames.validate_frame"),
        "frames.frame_json_s": self_s("frames.save_frame", "frames.load_frame"),
        "frames.frame_json_bytes": count("frames.frame_json_bytes"),
        "katz.build_katz.self_s": self_s("katz.build_katz"),
        "katz.dichotomy_check.self_s": self_s("katz.dichotomy_check"),
        "katz.subsets_checked": count("katz.subsets_checked"),
        "katz.popcounts_computed": count("katz.popcounts_computed"),
        "cli.process_start_s": sum(tracer.process_start_ns for tracer, _ in rounds) / n / 1e9,
        "cli.main.self_s": self_s("cli.main"),
        "cli.sweep.steps_run": sweep_steps,
        "cli.sweep.step_reuse": count("cli.sweep.n_max") / sweep_steps if sweep_steps else 0.0,
        "trace.rounds": n,
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": sum(untraced_walls) / len(untraced_walls),
        "trace.overhead_s": traced_wall - sum(untraced_walls) / len(untraced_walls),
        "trace.self_sum_s": self_sum,
    }
