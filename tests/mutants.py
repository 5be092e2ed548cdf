"""One-line mutants of ``src/sectsum``, each with the test that kills it.

Run from anywhere:

    python tests/mutants.py

Every killing test first runs on an unmutated copy of ``src`` and ``tests``
in a temporary directory, and must pass there. Then each mutant is applied to
its own fresh copy and only its killing test runs. The script exits 1 if a
killing test fails on the unmutated copy, if a mutant's line is no longer
found exactly once, or if any mutant survives; so a later edit cannot quietly
weaken the test that guards a line. pytest does not collect this file.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (file under src/sectsum, original text, mutated text, killing test)
MUTANTS = [
    ("evaluation.py",
     "count = int((pseudo >= observed).sum())",
     "count = int((pseudo > observed).sum())",
     "tests/test_evaluation.py::test_approx_randomization_identical_scores"),
    # WindowDiff's window rounds half up
    ("evaluation.py",
     "k = max(1, math.floor(n / (2.0 * n_segments) + 0.5))",
     "k = max(1, math.floor(n / (2.0 * n_segments)))",
     "tests/test_properties.py::test_windowdiff_matches_the_window_scan"),
    ("inference.py",
     "if len(set(indices)) != len(indices):",
     "if False:",
     "tests/test_cli.py::test_prediction_that_does_not_fit_its_document_exits_2"),
    ("encoder.py",
     "if not np.isfinite(arr).all():",
     "if False:",
     "tests/test_encoder.py::test_checkpoint_rejects_corruption"),
    # layer norm's epsilon moves the forward and backward passes together,
    # so finite differences cannot see it; the scalar reference does
    ("encoder.py",
     "_LN_EPS = 1e-6",
     "_LN_EPS = 1e-5",
     "tests/test_encoder.py::test_forward_document_matches_the_scalar_reference"),
    ("oracle.py",
     "if len(picks) == max_sentences:",
     "if len(picks) == max_sentences + 1:",
     "tests/test_oracle.py::test_max_sentences_caps_selection"),
    # the grouped oracle takes each document's first maximum ...
    ("oracle.py",
     "hits[np.searchsorted(hits, starts)]",
     "hits[np.searchsorted(hits, np.append(starts[1:], len(docs))) - 1]",
     "tests/test_properties.py::test_grouped_oracle_labels_every_document_as_alone"),
    # ... and looks its junction bigrams up in the candidate's own document's table
    ("rouge.py",
     "self._pair, self.doc[i],",
     "self._pair, self.doc[i] - 1,",
     "tests/test_properties.py::test_grouped_oracle_labels_every_document_as_alone"),
    ("inference.py",
     "hits = np.flatnonzero(scores >= threshold)",
     "hits = np.flatnonzero(scores > threshold)",
     "tests/test_inference.py::test_score_exactly_at_the_threshold_is_a_boundary"),
    ("evaluation.py",
     "avg_summary_words=float(np.mean(words)),",
     "avg_summary_words=float(np.median(words)),",
     "tests/test_evaluation.py::test_evaluate_full_averages_summary_words"),
    ("dpp.py",
     "eps = min(ridge * 10.0 ** steps, _MAX_RIDGE)",
     "eps = min(ridge * 100.0 ** steps, _MAX_RIDGE)",
     "tests/test_dpp.py::test_minor_that_never_factors_raises_at_the_largest_ridge"),
    # the JSON Lines reader's repeated-id check
    ("corpus.py",
     "if item_key in first_line:",
     "if False:",
     "tests/test_corpus.py::test_parse_corpus_rejects_repeated_ids"),
    # tokens are interned: one string per word type
    ("corpus.py",
     "tokens.append(sys.intern(tok))",
     "tokens.append(tok)",
     "tests/test_corpus.py::test_tokens_are_one_string_per_word_type"),
    # total_loss's batch-order check for a non-finite document loss
    ("training.py",
     "if not math.isfinite(value):",
     "if False:",
     "tests/test_properties.py::test_stacked_loss_matches_the_document_loop"),
    # a stack takes the repulsion term whole only when every row has a summary
    ("training.py",
     "whole = has_summary.all()",
     "whole = has_summary.any()",
     "tests/test_properties.py::test_stacked_loss_matches_the_document_loop"),
    # impostors replace only strictly interior sentences
    ("corpus.py",
     "for pi in range(1, len(sec) - 1):",
     "for pi in range(0, len(sec) - 1):",
     "tests/test_determinism_pin.py::test_synth_outputs_are_pinned"),
    # a near-duplicate never lands on its section's first slot
    ("corpus.py",
     "target.insert(draws.integers(1, len(target)), (\"dup\", tokens))",
     "target.insert(draws.integers(0, len(target)), (\"dup\", tokens))",
     "tests/test_determinism_pin.py::test_synth_outputs_are_pinned"),
    # a Selection (the score-vs-k sweep's and the oracle's rescore): a joining
    # sentence removes the junction it breaks ...
    ("rouge.py",
     "self.overlap2 -= 1",
     "pass",
     "tests/test_evaluation.py::test_score_vs_k_sentence_between_two_picks_breaks_their_junction"),
    # the score-vs-k sweep reruns the LCS rows from the cached row just before
    # the joining sentence
    ("evaluation.py",
     "v = lcs_rows[p - 1] if p else None",
     "v = None",
     "tests/test_evaluation.py::test_score_vs_k_rows_match_the_per_k_loop"),
    # a Selection clips its unigram and bigram counts at the reference count ...
    ("rouge.py",
     "if c < reference_counts[g]:",
     "if c <= reference_counts[g]:",
     "tests/test_evaluation.py::test_score_vs_k_rows_match_the_per_k_loop"),
    # ... and adds the junction with the next selected sentence
    ("rouge.py",
     "(tokens[-1], after)])",
     "])",
     "tests/test_properties.py::test_score_vs_k_matches_the_per_k_rescoring"),
    # the oracle checks each accepted pick against the running rescore
    ("oracle.py",
     "if selections[d].f1() != tuple(pair):",
     "if False:",
     "tests/test_oracle.py::test_pick_that_the_rescore_disagrees_with_raises"),
    # ... and each group's longest selection against the from-scratch scorer
    ("oracle.py",
     "if candidate_score(selected[d], documents[d], references[d]) != best_scores[d]:",
     "if False:",
     "tests/test_oracle.py::test_pick_that_the_rescore_disagrees_with_raises"),
    # a token-less sentence's zero TF-IDF row keeps a zero centroid similarity
    ("encoder.py",
     "out=sims, where=v_norms > 0)",
     "out=sims, where=v_norms >= 0)",
     "tests/test_properties.py::test_base_features_match_the_loop_reference"),
    # a stack takes a document exactly _MAX_PADDING times as long as its first
    ("training.py",
     "if stacks and lengths[i] <= _MAX_PADDING * lengths[stacks[-1][0]]:",
     "if stacks and lengths[i] < _MAX_PADDING * lengths[stacks[-1][0]]:",
     "tests/test_properties.py::test_a_batch_of_synth_default_lengths_is_one_stack"),
    # a finite-difference probe chunk resumes at the sublayer of its first
    # entry, not one sublayer late ...
    ("encoder.py",
     "start = int(np.searchsorted(firsts, entry, side=\"right\")) - 1",
     "start = int(np.searchsorted(firsts, entry, side=\"right\"))",
     "tests/test_properties.py::test_resumed_probe_chunks_match_the_loop_reference"),
    # ... and a resumed feed-forward half takes its attention half's output
    ("encoder.py",
     "hidden = _resume(inputs[start], params, start)",
     "hidden = _resume(inputs[start - start % 2], params, start)",
     "tests/test_properties.py::test_resumed_probe_chunks_match_the_loop_reference"),
    # the softmax backward runs its last block of query rows too (only a
    # patched block size or a long document splits a stack into blocks)
    ("encoder.py",
     "for start in range(0, len(rows), step):",
     "for start in range(0, len(rows) - step, step):",
     "tests/test_encoder.py::test_softmax_backward_row_blocks_move_no_bit"),
    # the synth sampler takes a 64-bit output's low half first ...
    ("corpus.py",
     "low, self._half = word & 0xFFFFFFFF, word >> 32",
     "low, self._half = word >> 32, word & 0xFFFFFFFF",
     "tests/test_properties.py::test_synth_sampler_draws_what_numpy_generator_draws"),
    # ... draws again only below Lemire's threshold, 0 for a power-of-two span ...
    ("corpus.py",
     "while product & 0xFFFFFFFF < threshold:",
     "while product & 0xFFFFFFFF <= threshold:",
     "tests/test_properties.py::test_synth_sampler_draws_what_numpy_generator_draws"),
    # ... and takes j when Floyd's algorithm draws an index twice
    ("corpus.py",
     "val = j",
     "pass",
     "tests/test_properties.py::test_synth_sampler_draws_what_numpy_generator_draws"),
    # a synth sentence's cue words are the interned strings tokenize gives
    ("corpus.py",
     "_CUE_TOKENS = tuple([sys.intern(word) for word in phrase.split()] for phrase in CUE_PHRASES)",
     "_CUE_TOKENS = tuple(phrase.split() for phrase in CUE_PHRASES)",
     "tests/test_corpus.py::test_synth_sentences_hold_the_interned_tokens_of_their_text"),
    ("corpus.py",
     "if self.vocabulary_size < 30:",
     "if self.vocabulary_size <= 30:",
     "tests/test_corpus.py::test_synth_config_accepts_a_vocabulary_of_exactly_30_words"),
]


def _copy(directory):
    """A copy of the package and its tests; returns its root."""
    copy = Path(directory) / "repo"
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, copy / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "pyproject.toml", copy)
    return copy


def _pytest(copy, tests):
    """pytest on ``tests``, importing ``sectsum`` from the copy."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src")}
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(command, cwd=copy, env=env, capture_output=True, text=True)


def main():
    with tempfile.TemporaryDirectory() as directory:
        copy = _copy(directory)
        baseline = _pytest(copy, sorted({test for *_, test in MUTANTS}))
        if baseline.returncode != 0:
            print(baseline.stdout, baseline.stderr, "a killing test fails on the unmutated code")
            return 1
    survivors = 0
    for name, original, mutated, test in MUTANTS:
        with tempfile.TemporaryDirectory() as directory:
            copy = _copy(directory)
            path = copy / "src" / "sectsum" / name
            text = path.read_text(encoding="utf-8")
            if text.count(original) != 1:
                print(f"stale mutant: {original!r} is not found once in {name}")
                return 1
            path.write_text(text.replace(original, mutated), encoding="utf-8")
            killed = _pytest(copy, [test]).returncode != 0
        survivors += not killed
        print(f"{'killed' if killed else 'SURVIVED'}: {name} {original!r} -> {mutated!r} "
              f"[{test}]")
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
