"""The mutation table: deliberate errors in the program, each with the tests
that must catch it.

    python tests/mutants.py             # every row
    python tests/mutants.py NAME ...    # the named rows

A row is a file, an exact old text in it, the new text that replaces it and
the tests expected to fail.  Each row runs in a fresh temporary copy of
src/, tests/ and pyproject.toml: in the checkout itself, pyproject's
pythonpath = ["src"] would import the unmutated package first.  In the copy
the old text must occur exactly once; it is replaced, and pytest runs the
row's tests plus the golden CLI runs (GOLDEN_TEST).  A row is

- killed when every one of its tests fails,
- survived when one of them passes,
- stale when its old text does not occur exactly once.

Rows run in parallel, one per CPU this process may use, each in its own
copy; their verdicts print in table order.

First the rows' tests run on an unmutated copy and must all be collected
and pass, so that a kill is the mutation's doing.  The exit status is 0
only if every row is killed, and the CI job `mutants` fails otherwise.
pytest does not collect this file: its name does not match test_*.py.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

# Every row also runs the golden CLI runs, byte for byte.
GOLDEN_TEST = "test_cli.py::TestRun::test_golden_counts"

# The closed-form rate gates: heralds and exit clicks, |z| <= 5 per row.
RATE_GATES = (
    "test_acceptance.py::test_11_herald_rate",
    "test_experiment.py::TestHeraldRate::test_grid_through_reduce",
)
SAME_LAW = (
    "test_same_law.py::test_driver_matches_reference_sampler[0.3-1.2]",
    "test_same_law.py::test_driver_matches_reference_sampler[1.0-1.5]",
)
EXACT = "test_harness.py::TestExactDecisions::"
# The kernel against the float reference, and the reference's click line.
KERNEL_VS_REFERENCE = "test_harness.py::TestKernelMatchesReference::"
REFERENCE_CLICKS = (
    "    return tuple((a.real**2 + a.imag**2).sum(axis=-1) > gamma * gamma for a in (a1, a2, a3))\n"
)
SAMPLER = "test_optics.py::TestSampleHidden::"
# The compiled path's z2 row against oracle.amplitudes, on every blocker
# pattern, and which vacuum inputs reach its exits.
Z2_ROW = "test_oracle.py::TestCompiledNetwork::test_z2_row_is_sigma_cosh_r_times_alpha"
VACUUM_RULE = "test_oracle.py::TestCompiledNetwork::test_vacuum_reaches_the_exits_by_the_blocker_rule"
PEAK = "test_harness.py::TestPeakMemory::"
# The golden runs of both draw modes at 1, 2 and 8 workers.
DETERMINISM = "test_acceptance.py::test_09_determinism_across_workers"
LAMBDA_SETS = "test_stats.py::TestLambdaSets::test_update_matches_reference_sets[0-500]"
REDUCE_CASES = tuple(
    f"test_experiment.py::TestReduce::test_results_land_on_their_rep_and_context[{mode}]"
    for mode in ("independent-draws", "shared-draws")
)

# name -> (file, old text, new text, tests under tests/ expected to fail)
MUTANTS = {
    # the physics: source, network and threshold
    "threshold-at-gamma": (
        "src/lgwave/harness.py",
        "np.array([plans[i].gamma * plans[i].gamma for i in points])",
        "np.array([plans[i].gamma for i in points])",
        RATE_GATES,
    ),
    "exit-threshold-5pct-high": (
        "src/lgwave/harness.py",
        "    clicks = power > t\n",
        "    clicks = power > t * np.where(np.arange(len(power)) > 0, 1.05, 1.0)[:, None]\n",
        RATE_GATES[1:],
    ),
    "source-without-sigma": (
        "src/lgwave/optics.py",
        "    a1 = SIGMA * (z1 * ch + np.conj(z2) * sh)\n"
        "    a2 = SIGMA * (z2 * ch + np.conj(z1) * sh)\n",
        "    a1 = z1 * ch + np.conj(z2) * sh\n    a2 = z2 * ch + np.conj(z1) * sh\n",
        RATE_GATES,
    ),
    "source-a2-cosh-sinh-swapped": (
        "src/lgwave/optics.py",
        "a2 = SIGMA * (z2 * ch + np.conj(z1) * sh)",
        "a2 = SIGMA * (z2 * sh + np.conj(z1) * ch)",
        RATE_GATES,
    ),
    "source-a2-polarizations-crossed": (
        "src/lgwave/optics.py",
        "a2 = SIGMA * (z2 * ch + np.conj(z1) * sh)",
        "a2 = SIGMA * (z2 * ch + np.conj(z1[..., ::-1]) * sh)",
        ("test_acceptance.py::test_10_physics_micro_oracles",),
    ),
    "stage3-d2-sqrt-t-r-swapped": (
        "src/lgwave/optics.py",
        "    return d2, d3\n",
        "    return _split(a2, a3, 1.0 - optics.t3)[1], d3\n",
        RATE_GATES,
    ),
    "beam-splitter-not-unitary": (
        "src/lgwave/optics.py",
        "    sq_r = np.sqrt(1.0 - t)\n",
        "    sq_r = 1.0 - t\n",
        ("test_acceptance.py::test_10_physics_micro_oracles",),
    ),
    "bb1-injects-zp3": (
        "src/lgwave/optics.py",
        'SIGMA * _z(h, f"zp{n}")',
        'SIGMA * _z(h, f"zp{3 if n == 1 else n}")',
        (VACUUM_RULE,),
    ),
    "blocker-leaks-its-arm": (
        "src/lgwave/optics.py",
        'else SIGMA * _z(h, f"zp{n}")',
        'else a + SIGMA * _z(h, f"zp{n}")',
        (Z2_ROW, VACUUM_RULE),
    ),
    "oracle-path-sign-flipped": (
        "src/lgwave/oracle.py",
        "        - b1 * b3 * e1 * e2 * np.sqrt(t1 * t2 * t3)\n",
        "        + b1 * b3 * e1 * e2 * np.sqrt(t1 * t2 * t3)\n",
        ("test_acceptance.py::test_06_oracle_exactness",),
    ),
    "oracle-type-sums-of-plus-exits": (
        "src/lgwave/oracle.py",
        "s = (w[:, 0] + w[:, 1]).tolist()",
        "s = w[:, 0].tolist()",
        ("test_acceptance.py::test_06_oracle_exactness",),
    ),
    # the optical path: each element of propagate's walk, against the oracle
    "theta1-on-arm-2": (
        "src/lgwave/optics.py",
        "    a3 = np.exp(1j * optics.theta1) * a3\n",
        "    a2 = np.exp(1j * optics.theta1) * a2\n",
        (Z2_ROW,),
    ),
    "theta2-on-arm-3": (
        "src/lgwave/optics.py",
        "    a2 = np.exp(1j * optics.theta2) * a2\n",
        "    a3 = np.exp(1j * optics.theta2) * a3\n",
        (Z2_ROW,),
    ),
    "bb1-bb2-swapped": (
        "src/lgwave/optics.py",
        "_block(2, a2, h, b), _block(1, a3, h, b)",
        "_block(1, a2, h, b), _block(2, a3, h, b)",
        (Z2_ROW,),
    ),
    "bb3-bb4-swapped": (
        "src/lgwave/optics.py",
        "_block(3, a2, h, b), _block(4, a3, h, b)",
        "_block(4, a2, h, b), _block(3, a3, h, b)",
        (Z2_ROW,),
    ),
    "first-splitter-at-t2": (
        "src/lgwave/optics.py",
        "_split(a2, a3, optics.t1)",
        "_split(a2, a3, optics.t2)",
        (Z2_ROW,),
    ),
    "second-splitter-at-t1": (
        "src/lgwave/optics.py",
        "_split(a2, a3, optics.t2)",
        "_split(a2, a3, optics.t1)",
        (Z2_ROW,),
    ),
    "exits-unswapped": (
        "src/lgwave/optics.py",
        "    d3, d2 = _split(a2, a3, optics.t3)\n",
        "    d2, d3 = _split(a2, a3, optics.t3)\n",
        (Z2_ROW,),
    ),
    # the sampler: 28 normals per row, times SIGMA, read in stream order
    "sample-hidden-flat": (
        "src/lgwave/optics.py",
        "x = rng.standard_normal((n, NORMALS_PER_REALIZATION))",
        "x = rng.standard_normal(n * NORMALS_PER_REALIZATION)",
        (SAMPLER + "test_packed_draw_matches_complex_assembly[1]",),
    ),
    "sample-hidden-unscaled": (
        "src/lgwave/optics.py",
        "    x *= SIGMA\n",
        "",
        (SAMPLER + "test_packed_draw_matches_complex_assembly[1]",),
    ),
    "sample-hidden-extra-row": (
        "src/lgwave/optics.py",
        "x = rng.standard_normal((n, NORMALS_PER_REALIZATION))",
        "x = rng.standard_normal((n + 1, NORMALS_PER_REALIZATION))[:n]",
        (SAMPLER + "test_consecutive_draws_partition_the_stream[1]",),
    ),
    "sample-hidden-restarts-stream": (
        "src/lgwave/optics.py",
        "    x = rng.standard_normal((n, NORMALS_PER_REALIZATION))\n",
        "    state = rng.bit_generator.state\n"
        "    x = rng.standard_normal((n, NORMALS_PER_REALIZATION))\n"
        "    rng.bit_generator.state = state\n",
        (SAMPLER + "test_consecutive_draws_partition_the_stream[1]",),
    ),
    # the float reference, which only the tests call
    "reference-batch-keepdims": (
        "src/lgwave/harness.py",
        REFERENCE_CLICKS,
        REFERENCE_CLICKS.replace(".sum(axis=-1)", ".sum(axis=-1, keepdims=True)"),
        ("test_harness.py::TestEvaluateContext::test_single_state_is_its_row_of_the_batch",),
    ),
    "reference-power-minus-imag": (
        "src/lgwave/harness.py",
        REFERENCE_CLICKS,
        REFERENCE_CLICKS.replace("a.real**2 + a.imag**2", "a.real**2 - a.imag**2"),
        (KERNEL_VS_REFERENCE + "test_counterfactual_detections[gamma-0]",),
    ),
    "reference-threshold-flipped": (
        "src/lgwave/harness.py",
        REFERENCE_CLICKS,
        REFERENCE_CLICKS.replace("> gamma", "< gamma"),
        (KERNEL_VS_REFERENCE + "test_counterfactual_detections[gamma-1e6]",),
    ),
    "reference-threshold-5pct-high": (
        "src/lgwave/harness.py",
        REFERENCE_CLICKS,
        REFERENCE_CLICKS.replace("> gamma * gamma", "> 1.05 * gamma * gamma"),
        (KERNEL_VS_REFERENCE + "test_counterfactual_detections[2]",),
    ),
    "reference-herald-at-d2": (
        "src/lgwave/harness.py",
        REFERENCE_CLICKS,
        REFERENCE_CLICKS.replace("(a1, a2, a3)", "(a2, a2, a3)"),
        (KERNEL_VS_REFERENCE + "test_counterfactual_detections[2]",),
    ),
    # the shared stream: the shared pass reads it, and only the shared pass
    "shared-pass-stream-key-shifted": (
        "src/lgwave/harness.py",
        "return _detections(plans, SHARED_STREAM_KEY, rep_index, CONTEXTS, chunk_indices)",
        "return _detections(plans, SHARED_STREAM_KEY + 1, rep_index, CONTEXTS, chunk_indices)",
        (KERNEL_VS_REFERENCE + "test_counterfactual_detections[2]",),
    ),
    "shared-stream-10pct-wide": (
        "src/lgwave/harness.py",
        "x = sample_hidden(rng, min(ROW_BLOCK, n - lo))\n",
        "x = sample_hidden(rng, min(ROW_BLOCK, n - lo)) * (1.1 if key == SHARED_STREAM_KEY else 1)\n",
        RATE_GATES[1:],
    ),
    # exact decisions and the two kernel paths
    "clicks-float-only": (
        "src/lgwave/harness.py",
        "    if near.any():\n",
        "    if False:\n",
        (
            EXACT + "test_amplitude_rounded_onto_the_threshold_clicks",
            *(EXACT + f"test_thresholds_on_and_beside_the_float_power[{r}]"
              for r in ("0.0", "0.3", "0.9")),
            EXACT + "test_herald_rounded_onto_gamma_squared_counts_on_both_paths",
        ),
    ),
    "prefilter-without-band": (
        "src/lgwave/harness.py",
        "_powers(x, m[:, :4])[:, 0] >= cut]",
        "_powers(x, m[:, :4])[:, 0] > thresholds.min()]",
        (EXACT + "test_herald_rounded_onto_gamma_squared_counts_on_both_paths",),
    ),
    "prefilter-at-highest-gamma": (
        "src/lgwave/harness.py",
        "thresholds.min() - band[0]",
        "thresholds.max() - band[0]",
        (KERNEL_VS_REFERENCE + "test_counterfactual_detections[grid-3]",),
    ),
    "prefilter-a-unit-high": (
        "src/lgwave/harness.py",
        "_powers(x, m[:, :4])[:, 0] >= cut]",
        "_powers(x, m[:, :4])[:, 0] >= cut + 1]",
        RATE_GATES[1:],
    ),
    "prefilter-skipped-on-first-block": (
        "src/lgwave/harness.py",
        "if len(contexts) > 1 else x",
        "if len(contexts) > 1 and lo > 0 else x",
        (
            "test_harness.py::TestRowBlockInvariance::test_outputs_match_default_block[1000]",
            "test_harness.py::TestRowBlockInvariance::test_outputs_match_default_block[65536]",
        ),
    ),
    "streams-unseeded": (
        "src/lgwave/harness.py",
        "np.random.SeedSequence([self.seed, stream_key, rep_index, chunk_index])",
        "np.random.SeedSequence()",
        (GOLDEN_TEST,),
    ),
    # streams that depend on LGWAVE_WORKERS unless it is 1 or unset, so the
    # golden runs pass and only runs at other worker counts differ
    "streams-keyed-by-worker-count": (
        "src/lgwave/harness.py",
        "        ss = np.random.SeedSequence([self.seed, stream_key, rep_index, chunk_index])\n",
        '        workers = __import__("os").environ.get("LGWAVE_WORKERS", "1")\n'
        "        ss = np.random.SeedSequence([self.seed, stream_key, rep_index, chunk_index]\n"
        '                                    + [int(workers)] * (workers != "1"))\n',
        (DETERMINISM,),
    ),
    "streams-rep-blind": (
        "src/lgwave/harness.py",
        "[self.seed, stream_key, rep_index, chunk_index]",
        "[self.seed, stream_key, 0, chunk_index]",
        (GOLDEN_TEST,),
    ),
    "kernel-draws-fresh-entropy": (
        "src/lgwave/harness.py",
        "rng = plan.chunk_rng(key, rep_index, c)",
        "rng = np.random.default_rng()",
        (GOLDEN_TEST, KERNEL_VS_REFERENCE + "test_run_context_counts[4]"),
    ),
    "shared-exits-unsliced": (
        "src/lgwave/harness.py",
        "d[1::2, :f], d[2::2, :f]",
        "d[1::2], d[2::2]",
        (KERNEL_VS_REFERENCE + "test_counterfactual_detections[2]",),
    ),
    "herald-gated-on-an-exit": (
        "src/lgwave/harness.py",
        "        np.count_nonzero(d1),\n",
        "        np.count_nonzero(d1 & (d2 | d3), axis=1),\n",
        (GOLDEN_TEST,),
    ),
    "plus-without-coincidence": (
        "src/lgwave/harness.py",
        "at_d2 = np.count_nonzero(coincident, axis=1)",
        "at_d2 = np.count_nonzero(d2, axis=1)",
        (GOLDEN_TEST,),
    ),
    # the kernel's memory bound: each release of a block or of records
    "row-block-held-across-draws": (
        "src/lgwave/harness.py",
        "            del x, y\n",
        "",
        (PEAK + "test_run_context_holds_one_chunk_of_records_per_point",
         PEAK + "test_shared_pass_holds_one_chunk_of_records"),
    ),
    "records-held-by-the-generator": (
        "src/lgwave/harness.py",
        "        del det\n",
        "",
        (PEAK + "test_run_context_holds_one_chunk_of_records_per_point",
         PEAK + "test_shared_pass_holds_one_chunk_of_records",
         PEAK + "test_shared_pass_temporaries_at_a_high_herald_rate"),
    ),
    "records-held-by-run-context": (
        "src/lgwave/harness.py",
        "        del dets  # before the generator allocates the next chunk's records\n",
        "",
        (PEAK + "test_run_context_holds_one_chunk_of_records_per_point",),
    ),
    "samples-zero-accepted": (
        "src/lgwave/harness.py",
        '(("samples", 1), ("reps", 1), ("seed", 0))',
        '(("samples", 0), ("reps", 1), ("seed", 0))',
        ("test_cli.py::test_invalid_input_exits_2[samples-zero]",),
    ),
    "groups-boundary-shifted": (
        "src/lgwave/harness.py",
        '"t1t3": slice(1, 3), "t2t3": slice(3, 5)',
        '"t1t3": slice(1, 4), "t2t3": slice(4, 5)',
        ("test_harness.py::TestStandardContexts::test_groups_partition_rows_by_type",),
    ),
    # the PMFs, the Lambda sets and the marginal form
    "pmf2-contexts-swapped": (
        "src/lgwave/stats.py",
        "np.stack([counts_plus_ctx[[N_PLUS, N_MINUS]],\n"
        "                                 counts_minus_ctx[[N_PLUS, N_MINUS]]])",
        "np.stack([counts_minus_ctx[[N_PLUS, N_MINUS]],\n"
        "                                 counts_plus_ctx[[N_PLUS, N_MINUS]]])",
        ("test_stats.py::TestPmfConstruction::test_layout_index_0_is_plus",),
    ),
    "lambda-valid-either-exit": (
        "src/lgwave/stats.py",
        "valid = d1 & (d2 ^ d3)",
        "valid = d1 & (d2 | d3)",
        SAME_LAW,
    ),
    "heralds-read-from-n-plus": (
        "src/lgwave/stats.py",
        "nh = int(self.counts[0, N_HERALD])  # every context sees the same heralds",
        "nh = int(self.counts[0, N_PLUS])",
        (LAMBDA_SETS,),
    ),
    "bound-of-plus-clicks-only": (
        "src/lgwave/stats.py",
        "coinc = (self.counts[:, N_PLUS] + self.counts[:, N_MINUS]).tolist()",
        "coinc = self.counts[:, N_PLUS].tolist()",
        (LAMBDA_SETS,),
    ),
    "w-decomposition-marginal-negated": (
        "src/lgwave/stats.py",
        '"w_marginal": w_statistic(m13, m23, p12),',
        '"w_marginal": -w_statistic(m13, m23, p12),',
        ("test_experiment.py::TestRunExperiment::test_w_decomposition_over_bounds_is_w",),
    ),
    "pmf2-plus-context-exits-swapped": (
        "src/lgwave/stats.py",
        "np.stack([counts_plus_ctx[[N_PLUS, N_MINUS]],",
        "np.stack([counts_plus_ctx[[N_MINUS, N_PLUS]],",
        ("test_acceptance.py::test_01_k_reproduction",),
    ),
    "lambda-pairs-wrong": (
        "src/lgwave/stats.py",
        "combinations(lam[1:], 2)",
        "combinations(lam[:3], 2)",
        (*SAME_LAW, "test_stats.py::TestLambdaSets::test_update_matches_reference_sets[2-500]"),
    ),
    "marginal-lg-pairs-swapped": (
        "src/lgwave/stats.py",
        "lg_stats(marginal_13(p3), marginal_23(p3), p3)",
        "lg_stats(marginal_23(p3), marginal_13(p3), p3)",
        ("test_acceptance.py::test_07_marginal_identity_suite",),
    ),
    "w-marginal-reports-k": (
        "src/lgwave/experiment.py",
        '"W_marginal": w_marg}',
        '"W_marginal": k_marg}',
        ("test_acceptance.py::test_07_marginal_identity_suite",),
    ),
    # the driver's task list and its reduction
    "summary-std-population": (
        "src/lgwave/experiment.py",
        "arr.std(ddof=1)",
        "arr.std(ddof=0)",
        (GOLDEN_TEST,),
    ),
    "herald-ordering-strict": (
        "src/lgwave/experiment.py",
        "(n_herald > n_total)",
        "(n_herald >= n_total)",
        ("test_cli.py::TestRun::test_no_coincidences_reported[gamma-0]",),
    ),
    "futures-without-cancel": (
        "src/lgwave/experiment.py",
        "results = list(pool.map(lambda task: task(), tasks))",
        "results = [f.result() for f in [pool.submit(t) for t in tasks]]",
        (
            "test_experiment.py::TestReduce::test_failing_task_drops_the_queue",
            "test_cli.py::TestRun::test_interrupt_inside_a_pool_task_exits_130",
        ),
    ),
    "shared-chunk-to-next-rep": (
        "src/lgwave/experiment.py",
        "point_accs[j // len(chunks)]",
        "point_accs[(j // len(chunks) + 1) % plan.reps]",
        REDUCE_CASES,
    ),
    # a reduction that depends on LGWAVE_WORKERS unless it is 1 or unset
    "shared-chunks-to-rep-0-on-many-workers": (
        "src/lgwave/experiment.py",
        "point_accs[j // len(chunks)]",
        'point_accs[j // len(chunks) if os.environ.get("LGWAVE_WORKERS", "1") == "1" else 0]',
        (DETERMINISM,),
    ),
    "shared-chunk-rep-modulo": (
        "src/lgwave/experiment.py",
        "point_accs[j // len(chunks)]",
        "point_accs[j % len(chunks)]",
        REDUCE_CASES,
    ),
    "shared-sweep-without-shared-pass": (
        "src/lgwave/experiment.py",
        "if shared or efficiency else ()",
        "if efficiency else ()",
        (GOLDEN_TEST,),
    ),
    # the command line
    "schema-version-bumped": (
        "src/lgwave/cli.py",
        "SCHEMA_VERSION = 1\n",
        "SCHEMA_VERSION = 2\n",
        (GOLDEN_TEST,),
    ),
    "config-overrides-flags": (
        "src/lgwave/cli.py",
        "if getattr(args, key, None) is None:",
        "if True:",
        (GOLDEN_TEST,),
    ),
    "config-null-accepted": (
        "src/lgwave/cli.py",
        '                if value is None:\n'
        '                    raise InvalidConfig(f"{key} must not be null")\n',
        "",
        ("test_cli.py::test_invalid_input_exits_2[config-t1-null]",),
    ),
    "config-unknown-keys-accepted": (
        "src/lgwave/cli.py",
        "        if unknown:\n",
        "        if False:\n",
        ("test_cli.py::test_invalid_input_exits_2[config-unknown-key]",),
    ),
    "config-out-type-unchecked": (
        "src/lgwave/cli.py",
        'if not isinstance(cfg.out, str) or "\\0" in cfg.out:',
        'if "\\0" in cfg.out:',
        ("test_cli.py::test_config_out_must_be_a_string",
         "test_cli.py::test_any_config_document_exits_0_or_2"),
    ),
    "grid-check-truth-test": (
        "src/lgwave/cli.py",
        "all(isinstance(g, list) and g for g in",
        "all(g for g in",
        ("test_cli.py::test_invalid_input_exits_2[config-sweep-r-number]",),
    ),
    "empty-grid-accepted": (
        "src/lgwave/cli.py",
        "all(isinstance(g, list) and g for g in",
        "all(isinstance(g, list) for g in",
        ("test_cli.py::test_invalid_input_exits_2[sweep-grid-empty]",),
    ),
    "sweep-first-gamma-only": (
        "src/lgwave/cli.py",
        "for gamma in cfg.sweep_gamma\n",
        "for gamma in cfg.sweep_gamma[:1]\n",
        (GOLDEN_TEST,),
    ),
    # the golden files themselves
    "golden-partial-digit": (
        "tests/data/golden_counts_partial.csv",
        "0,1111,4161,1225,172,370,100\n",
        "0,1111,4161,1225,172,370,101\n",
        (GOLDEN_TEST,),
    ),
}


def copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.egg-info", ".hypothesis")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest)


def run_pytest(dest: Path, ids) -> tuple[int, set[str], str]:
    """Run the tests `ids` in the copy at dest: pytest's exit status, the
    node ids it reports failed or errored (a file, for a collection error),
    and its stderr."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--tb=no", "-rfE",
         *(f"tests/{i}" for i in ids)],
        cwd=dest, env={**os.environ, "PYTHONPATH": str(dest / "src")},
        capture_output=True, text=True, timeout=900,
    )
    failed = set()
    for line in proc.stdout.splitlines():
        status, _, rest = line.partition(" ")
        if status in ("FAILED", "ERROR"):
            failed.add(rest.split(" - ", 1)[0].removeprefix("tests/"))
    return proc.returncode, failed, proc.stderr


def caught(test: str, failed: set[str]) -> bool:
    """Whether test, or a case of it, or its whole file failed."""
    return any(f == test or f.startswith((test + "[", test + "::")) or f == test.split("::")[0]
               for f in failed)


def run_row(file: str, old: str, new: str, tests) -> tuple[str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        dest = Path(tmp)
        copy_tree(dest)
        path = dest / file
        text = path.read_text(encoding="utf-8")
        if text.count(old) != 1:
            return "stale", f"old text occurs {text.count(old)} times in {file}"
        path.write_text(text.replace(old, new), encoding="utf-8")
        status, failed, err = run_pytest(dest, dict.fromkeys([*tests, GOLDEN_TEST]))
    if status not in (0, 1, 2):
        return "stale", f"pytest exit {status}: {err.strip()}"
    missed = [t for t in tests if not caught(t, failed)]
    golden = f"golden {'failed' if caught(GOLDEN_TEST, failed) else 'passed'}"
    if missed:
        return "survived", f"passed: {', '.join(missed)}; {golden}"
    return "killed", f"{len(tests)} of {len(tests)} failed; {golden}"


def timed_row(row) -> tuple[str, str, float]:
    t0 = time.perf_counter()
    return (*run_row(*row), time.perf_counter() - t0)


def main(names: list[str]) -> int:
    unknown = sorted(set(names) - set(MUTANTS))
    if unknown:
        print(f"unknown rows: {', '.join(unknown)}")
        return 2
    rows = {name: MUTANTS[name] for name in names or MUTANTS}
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        copy_tree(Path(tmp))
        tests = dict.fromkeys(t for row in rows.values() for t in row[3])
        status, failed, err = run_pytest(Path(tmp), dict.fromkeys([*tests, GOLDEN_TEST]))
    if status != 0:
        print(f"unmutated copy: pytest exit {status}, failed: {', '.join(sorted(failed))}")
        print(err.strip())
        return 1
    print(f"unmutated copy: {len(tests)} tests pass ({time.perf_counter() - start:.1f} s)",
          flush=True)
    verdicts = []
    with ThreadPoolExecutor(max_workers=WORKERS) as pool:
        for name, (verdict, detail, seconds) in zip(rows, pool.map(timed_row, rows.values())):
            verdicts.append(verdict)
            print(f"{verdict:8} {name:34} {detail} ({seconds:.1f} s)", flush=True)
    counts = ", ".join(f"{verdicts.count(v)} {v}" for v in ("killed", "survived", "stale"))
    print(f"{len(rows)} rows: {counts} in {time.perf_counter() - start:.1f} s")
    return 0 if verdicts.count("killed") == len(rows) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
