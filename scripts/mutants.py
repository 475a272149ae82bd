"""The mutation gate: recorded mutants of the program, each with the tests
that must catch it.

Each row names a mutant, the file it changes, the exact old text (which
must occur exactly once in that file), the new text and the test node ids
to run.  The script first runs every row's tests on an unmutated copy of
src/, tests/ and pyproject.toml and stops unless they pass there, so a
test that fails on the copy whatever the mutant (one that reads a file
left out of the copy) cannot count as a catch.  It then copies the tree
afresh for each mutant, applies it, runs its tests, and reports the
mutants that survive (their tests pass).  It writes nothing in the
repository.

Usage:
    python scripts/mutants.py

Exit status 0 when every mutant is caught, 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]


_TRUNK_TESTS = (
    "tests/test_model.py::test_cached_trunk_step_is_bit_identical",
    "tests/test_model.py::test_trunk_cache_keeps_clear_of_the_small_kernel",
    "tests/test_model.py::test_cached_document_rows_give_forward_probabilities",
    "tests/test_progressive.py::test_trunk_cache_leaves_training_bit_identical",
    "tests/test_progressive.py::test_cached_refinement_leaves_training_bit_identical",
)
_PAGE_PASS_TESTS = (
    "tests/test_bootstrap.py::test_page_pass_equals_the_field_oracle_on_random_pages",
    "tests/test_bootstrap.py::test_page_pass_equals_the_field_oracle_on_pages_without_keys",
)
_REPEAT_TESTS = (
    "tests/test_bootstrap.py::test_page_pass_finds_the_first_max_on_pages_repeating_key_texts",
    "tests/test_bootstrap.py::test_localize_key_equals_exhaustive_first_max",
)
_SCAN_COUNT_TESTS = (
    "tests/test_bootstrap.py::test_key_search_scans_each_normalized_pair_once_and_no_identical_pair",
)
_CLAMP_TESTS = ("tests/test_synth.py::test_clamp_keeps_what_pythons_min_and_max_keep",)
_STEP_TESTS = (
    "tests/test_model.py::test_step_matches_the_reference_step",
    "tests/test_model.py::test_analytic_gradients_match_finite_differences",
)
_WIDE_TESTS = (
    "tests/test_features.py::test_held_features_take_widths_up_to_what_a_uint16_column_indexes",
)
_STAGE_CACHE_TESTS = (
    "tests/test_progressive.py::test_trunk_cache_leaves_training_bit_identical",
    "tests/test_progressive.py::test_cached_refinement_leaves_training_bit_identical",
)
_WINDOW_TESTS = (
    "tests/test_docmodel.py::test_window_pairs_equal_the_bisect_loop",
    "tests/test_docmodel.py::test_window_pairs_equal_the_bisect_loop_on_ties_and_signed_zeros",
)
_SLOTTED_TESTS = ("tests/test_docmodel.py::test_records_are_slotted",)
_GATE_ESCAPE_TESTS = (
    "tests/test_docmodel.py::test_parse_document_refuses_a_lone_surrogate",
    "tests/test_docmodel.py::test_record_readers_refuse_a_lone_surrogate",
    "tests/test_docmodel.py::test_read_schema_refuses_a_lone_surrogate",
)
_GATE_RAW_TESTS = (
    "tests/test_docmodel.py::test_jsonl_readers_reject_lines_that_are_not_utf8",
    "tests/test_docmodel.py::test_read_schema_rejects_a_file_that_is_not_utf8",
)
_LABELSET_EQ_TESTS = ("tests/test_docmodel.py::test_labelset_equality_is_provenance_and_positives",)
_REPEATED_ID_TESTS = (
    "tests/test_docmodel.py::test_read_documents_rejects_a_repeated_doc_id",
    "tests/test_docmodel.py::test_read_labels_rejects_a_repeated_doc_id",
    "tests/test_docmodel.py::test_read_annotations_rejects_a_repeated_doc_id",
    "tests/test_docmodel.py::test_read_overlay_rejects_a_repeated_doc_id",
)
_DIGEST_TESTS = (
    "tests/test_model.py::test_params_refuse_a_schema_digest_that_is_not_32_bytes",
    "tests/test_model.py::test_a_refused_checkpoint_leaves_the_file_alone",
)
_HELD_LAYOUT_TESTS = (
    "tests/test_features.py::test_held_features_store_row_counts_uint16_columns_and_float64_values",
)
_HELD_FILL_TESTS = ("tests/test_features.py::test_held_batches_are_the_dense_concatenation",)
_HELD_TABLE_TESTS = (
    "tests/test_features.py::test_held_features_index_each_document_table_in_the_smallest_type",
    "tests/test_features.py::test_held_batches_equal_the_dense_concatenation_in_any_order",
)
_TYPE_ORDER_TESTS = (
    "tests/test_datatypes.py::test_date_detected",
    "tests/test_datatypes.py::test_separator_date_is_not_a_number",
)
_TRIGRAM_TESTS = (
    "tests/test_features.py::test_trigram_memo_stays_bounded_and_exact",
    "tests/test_features.py::test_featurize_matches_per_word_oracle_on_random_documents",
)
_FLAG_TESTS = ("tests/test_features.py::test_flag_rows_match_the_oracle_at_every_length",)
_JARO_SCAN_TESTS = (
    "tests/test_similarity.py::test_window_scan_equals_the_index_loop_on_random_pairs",
)

MUTANTS = (
    # the trunk cache (model.TrunkCache)
    Mutant("trunk: no remainder join", "src/ffrg/model.py",
           "if self._small(offsets[n] - offsets[hi]):", "if False:", _TRUNK_TESTS),
    Mutant("trunk: no block growth", "src/ffrg/model.py",
           "while hi < n and self._small(offsets[hi] - offsets[lo]):", "while False:",
           _TRUNK_TESTS),
    Mutant("trunk: a small batch judged by its document count", "src/ffrg/model.py",
           "if self._small(len(row_index)):", "if self._small(len(docs)):", _TRUNK_TESTS),
    Mutant("trunk: a batch never takes its own pass", "src/ffrg/model.py",
           "if self._small(len(row_index)):", "if False:", _TRUNK_TESTS),
    # the rule extractor's page pass (bootstrap.extract_document)
    Mutant("page pass: unstable search order", "src/ffrg/bootstrap.py",
           'orders = np.argsort(-tops, axis=1, kind="stable")',
           "orders = np.argsort(-tops, axis=1)", _PAGE_PASS_TESTS),
    Mutant("page pass: reduceat starts shifted by one key", "src/ffrg/bootstrap.py",
           "np.maximum.reduceat(np.ascontiguousarray(bound.T), starts, axis=0)",
           "np.maximum.reduceat(np.ascontiguousarray(bound.T), "
           "np.minimum(starts + 1, bound.shape[1] - 1), axis=0)",
           _PAGE_PASS_TESTS),
    Mutant("page pass: a text sharing no key character keeps its bound of 1/3",
           "src/ffrg/bootstrap.py", "np.copyto(bound, 0.0, where=c == 0.0)", "pass",
           ("tests/test_bootstrap.py::test_key_bounds_equal_the_bitmask_bounds_on_odd_texts",)),
    # the key search's skips (bootstrap.localize_key, similarity.jaro_winkler)
    Mutant("key search: the identity shortcut taken on equal lengths", "src/ffrg/similarity.py",
           "if s1 == s2:", "if len(s1) == len(s2):", ("tests/test_similarity.py::test_frozen_table",)),
    Mutant("key search: the identity shortcut taken on a shared first character",
           "src/ffrg/similarity.py", "if s1 == s2:", "if s1[:1] == s2[:1]:",
           ("tests/test_similarity.py::test_frozen_table",)),
    Mutant("key search: identical pairs scanned", "src/ffrg/similarity.py",
           "if s1 == s2:", "if False:", _SCAN_COUNT_TESTS),
    Mutant("key search: one repeated-text set shared by every field and page",
           "src/ffrg/bootstrap.py", "seen: set[str] = set()",
           'seen = localize_key.__dict__.setdefault("seen", set())', _REPEAT_TESTS),
    Mutant("key search: a repeated phrase told by its bound row", "src/ffrg/bootstrap.py",
           "text = texts[i].strip().lower()", "text = tuple(bound[i].tolist())", _REPEAT_TESTS),
    Mutant("key search: a repeated phrase told by its raw text", "src/ffrg/bootstrap.py",
           "text = texts[i].strip().lower()", "text = texts[i]", _SCAN_COUNT_TESTS),
    Mutant("page pass: the zone's right edge left out", "src/ffrg/bootstrap.py",
           "(0.0 <= kx) & (kx <= x1)", "(0.0 <= kx) & (kx < x1)",
           ("tests/test_bootstrap.py::test_zone_mask_equals_the_candidate_loop_on_its_edges",)),
    Mutant("page pass: the zone's top edge left out", "src/ffrg/bootstrap.py",
           "(y0 - ZONE_ABOVE * h <= ky)", "(y0 - ZONE_ABOVE * h < ky)",
           ("tests/test_bootstrap.py::test_zone_mask_equals_the_candidate_loop_on_its_edges",)),
    Mutant("page pass: no floor of 1 on the phrase length", "src/ffrg/bootstrap.py",
           "bound = c / np.maximum(lengths, 1).astype(np.float64)[:, None]",
           "bound = c / lengths.astype(np.float64)[:, None]",
           ("tests/test_bootstrap.py::test_key_bounds_equal_the_bitmask_bounds_on_odd_texts",)),
    Mutant("page pass: a two-word phrase takes its first word's text", "src/ffrg/bootstrap.py",
           "words[ids[0]] if len(ids) == 1", "words[ids[0]] if len(ids) <= 2",
           ("tests/test_bootstrap.py::test_extract_document_equals_the_phrase_object_path_on_random_pages",)),
    # synthesis's array clamps (synth._clamp)
    Mutant("synth: the lower clamp by np.maximum", "src/ffrg/synth.py",
           "v = np.where(lo > v, lo, v)", "v = np.maximum(v, lo)", _CLAMP_TESTS),
    Mutant("synth: the lower clamp taking the bound on a tie", "src/ffrg/synth.py",
           "v = np.where(lo > v, lo, v)", "v = np.where(lo >= v, lo, v)", _CLAMP_TESTS),
    # synthesis's bulk noise draws (synth._noise_texts)
    Mutant("synth: the generator state not restored at a hit", "src/ffrg/synth.py",
           "rng.bit_generator.state = state", "pass",
           ("tests/test_synth.py::test_document_noise_pass_equals_the_per_character_loop",)),
    # the training step's backprop loop (model.branch_loss_and_grad)
    Mutant("step: a >= ReLU mask", "src/ffrg/model.py",
           "delta *= x > 0.0", "delta *= x >= 0.0", _STEP_TESTS),
    Mutant("step: the trunk layer dropped", "src/ffrg/model.py",
           'layers = [(("trunk.w", "trunk.b"), features)] if features is not None else []',
           "layers = []", _STEP_TESTS),
    Mutant("step: the loop stops one layer early", "src/ffrg/model.py",
           "for i in range(len(layers) - 1, -1, -1):", "for i in range(len(layers) - 1, 0, -1):",
           _STEP_TESTS),
    Mutant("step: a hidden layer without ReLU", "src/ffrg/model.py",
           "inputs.append(np.maximum(z, 0.0, out=z))", "inputs.append(z)", _STEP_TESTS),
    Mutant("step: a term's sum over the class count", "src/ffrg/model.py",
           "np.add.reduce(np.log(flat[pick])) / m", "np.add.reduce(np.log(flat[pick])) / n_out",
           _STEP_TESTS),
    Mutant("step: the label check letting class N+1 through", "src/ffrg/model.py",
           "y.max() >= n_out", "y.max() > n_out",
           ("tests/test_model.py::test_loss_rejects_bad_labels",)),
    # progressive training's stage loop (progressive.train)
    Mutant("stage loop: a joint stage keeps a stale cache", "src/ffrg/progressive.py",
           "if not frozen:", "if stage == 1:", _STAGE_CACHE_TESTS),
    Mutant("stage loop: a frozen stage trains every branch", "src/ffrg/progressive.py",
           "branches = [stage] if frozen else range(1, stage + 1)",
           "branches = range(1, stage + 1)",
           ("tests/test_progressive.py::test_first_branch_is_frozen_after_stage_one",
            "tests/test_progressive.py::test_k1_is_the_first_stage_of_k3")),
    Mutant("stage loop: a frozen stage rebuilds the cache", "src/ffrg/progressive.py",
           "if not frozen:", "if True:", _STAGE_CACHE_TESTS),
    # reading order's and grouping's y-window (docmodel._near_in_y) and links
    Mutant("window: an unstable sort by centre y", "src/ffrg/docmodel.py",
           'by_y = yc.argsort(kind="stable")', "by_y = yc.argsort()", _WINDOW_TESTS),
    Mutant("grouping: np.hypot deciding a link", "src/ffrg/grouping.py",
           "link = np.array([math.hypot(g, d) <= eps"
           " for g, d in zip(gap.tolist(), dy.tolist())], bool)",
           "link = np.hypot(gap, dy) <= eps",
           ("tests/test_grouping.py::test_a_link_at_eps_follows_word_distance_not_an_array_hypot",)),
    Mutant("grouping: no clamp on the horizontal gap", "src/ffrg/grouping.py",
           "gap = np.maximum(np.maximum(x0[i], x0[j]) - np.minimum(x1[i], x1[j]), 0.0)",
           "gap = np.maximum(x0[i], x0[j]) - np.minimum(x1[i], x1[j])",
           ("tests/test_grouping.py::test_matches_union_find_oracle_on_large_pages",)),
    # slotted records (docmodel.BBox, Word, Phrase)
    Mutant("records: BBox without slots", "src/ffrg/docmodel.py",
           "@dataclass(frozen=True, slots=True)\nclass BBox", "@dataclass(frozen=True)\nclass BBox",
           _SLOTTED_TESTS),
    Mutant("records: Word without slots", "src/ffrg/docmodel.py",
           "@dataclass(frozen=True, slots=True)\nclass Word", "@dataclass(frozen=True)\nclass Word",
           _SLOTTED_TESTS),
    Mutant("records: Phrase without slots", "src/ffrg/docmodel.py",
           "@dataclass(frozen=True, slots=True)\nclass Phrase",
           "@dataclass(frozen=True)\nclass Phrase", _SLOTTED_TESTS),
    # a document's phrases as word-id tuples (docmodel.Document)
    Mutant("document: the empty-phrase check dropped", "src/ffrg/docmodel.py",
           "                if not ph:\n", "                if False:\n",
           ("tests/test_docmodel.py::test_document_rejects_an_empty_phrase",)),
    # the one gate between JSON text and the program's strings (docmodel._json_object)
    Mutant("gate: the escape step dropped", "src/ffrg/docmodel.py",
           'if "\\\\" in text:', "if False:", _GATE_ESCAPE_TESTS),
    Mutant("gate: the escape step only for a lower-case \\ud", "src/ffrg/docmodel.py",
           'if "\\\\" in text:', 'if "\\\\ud" in text:',
           ("tests/test_docmodel.py::test_an_upper_case_escape_decodes_to_the_same_lone_surrogate",)),
    Mutant("gate: the raw-text step dropped", "src/ffrg/docmodel.py",
           '        text.encode("utf-8")\n        raw = json.loads(text)\n',
           "        raw = json.loads(text)\n", _GATE_RAW_TESTS),
    Mutant("gate: the raw-text step after the parse", "src/ffrg/docmodel.py",
           '        text.encode("utf-8")\n        raw = json.loads(text)\n',
           '        raw = json.loads(text)\n        text.encode("utf-8")\n',
           ("tests/test_docmodel.py::test_a_byte_that_is_not_utf8_wins_over_malformed_json",)),
    Mutant("gate: nesting too deep let through", "src/ffrg/docmodel.py",
           "except (ValueError, RecursionError) as e:", "except ValueError as e:",
           ("tests/test_docmodel.py::test_json_nested_past_the_recursion_limit_is_malformed",)),
    # label sets as a dataclass (docmodel.LabelSet)
    Mutant("labels: compared without their provenance", "src/ffrg/docmodel.py",
           "    provenance: str\n    _by_doc",
           "    provenance: str = field(compare=False)\n    _by_doc", _LABELSET_EQ_TESTS),
    Mutant("labels: compared without their positives", "src/ffrg/docmodel.py",
           "field(init=False, default_factory=dict)",
           "field(init=False, default_factory=dict, compare=False)", _LABELSET_EQ_TESTS),
    Mutant("labels: add_document ignoring its pairs", "src/ffrg/docmodel.py",
           "        for wid, cls in pairs:\n            self.set_label(doc_id, wid, cls)\n", "",
           ("tests/test_docmodel.py::test_add_document_sets_its_pairs_as_the_set_label_loop_does",
            "tests/test_docmodel.py::"
            "test_add_document_sets_pairs_in_order_and_refuses_a_negative_class")),
    Mutant("labels: validate without the coverage loop", "src/ffrg/docmodel.py",
           "if doc_id not in self._by_doc:", "if False:",
           ("tests/test_progressive.py::test_train_refuses_labels_that_miss_a_document",)),
    Mutant("labels: validate letting a repeated doc_id through", "src/ffrg/docmodel.py",
           "if d.doc_id in by_id:", "if False:",
           ("tests/test_docmodel.py::test_labelset_validate_refuses_a_corpus_that_repeats_a_document",
            "tests/test_progressive.py::test_train_refuses_a_corpus_that_repeats_a_doc_id")),
    # the page size, checked before it scales pixel boxes (docmodel._document)
    Mutant("reader: pixel boxes scaled before the page check", "src/ffrg/docmodel.py",
           "    if page_w <= 0 or page_h <= 0:\n", "    if False:\n",
           ("tests/test_docmodel.py::test_parse_checks_the_page_before_it_scales_pixel_boxes",)),
    # the one generator behind the JSONL readers (docmodel._records)
    Mutant("readers: a repeated doc_id let through", "src/ffrg/docmodel.py",
           "if doc_id in seen:", "if False:", _REPEATED_ID_TESTS),
    # the collision refusal (cli._distinct_outputs) and the SVG paths (cli._svg_paths)
    Mutant("svg: the SVG paths left out of the collision check", "src/ffrg/cli.py",
           '_distinct_outputs(opts, *outputs, more=(("--svg", path) for path in paths))', "pass",
           ("tests/test_cli.py::test_svg_files_join_the_collision_refusal",)),
    # the SVG drawing (cli._doc_svg)
    Mutant("svg: a box height scaled by the page width", "src/ffrg/cli.py",
           "bw, bh = (x1 - x0) * w, (y1 - y0) * h", "bw, bh = (x1 - x0) * w, (y1 - y0) * w",
           ("tests/test_cli.py::test_svg_draws_each_word_box_on_the_page",)),
    # the required options, marked in the option table (cli._COMMANDS, cli.main)
    Mutant("options: main without the required-option check", "src/ffrg/cli.py",
           "if default is _REQUIRED and opts[key] is None:", "if False:",
           ("tests/test_cli.py::test_the_first_missing_required_option_is_named_before_anything_runs",)),
    # the checkpoint's digest size, known to the record alone (model.ModelParams)
    Mutant("checkpoint: params without the digest-length check", "src/ffrg/model.py",
           "if len(self.schema_digest) != 32:", "if False:", _DIGEST_TESTS),
    # the report as its dataclass fields (evaluation.EvalReport)
    Mutant("report: runs dropped", "src/ffrg/evaluation.py",
           'return {"runs": 1, **asdict(self)}', "return asdict(self)",
           ("tests/test_evaluation.py::test_report_bytes_on_the_hand_case",)),
    # conflict resolution (bootstrap.resolve_conflicts)
    Mutant("conflicts: a tie going to the higher field_id", "src/ffrg/bootstrap.py",
           "key=lambda e: (-e.value_score, e.field_id),",
           "key=lambda e: (-e.value_score, -e.field_id),",
           ("tests/test_bootstrap.py::test_conflict_tie_goes_to_lower_field_id",)),
    # the key and its value (bootstrap.localize_key, bootstrap.extract_field)
    Mutant("key search: a tie going to the later phrase", "src/ffrg/bootstrap.py",
           "(s == best_score and i < best_i)", "(s == best_score and i > best_i)", _REPEAT_TESTS),
    Mutant("rules: the key's own phrase a value candidate", "src/ffrg/bootstrap.py",
           "if i == key_i or not rows.types(i) & field.allowed_types:",
           "if not rows.types(i) & field.allowed_types:",
           ("tests/test_bootstrap.py::test_extract_field_never_reuses_key_as_value",
            "tests/test_bootstrap.py::test_extract_field_skips_the_key_before_typing_it")),
    Mutant("rules: a value tie going to the later phrase", "src/ffrg/bootstrap.py",
           "if best_i is None or s > best_score:", "if best_i is None or s >= best_score:",
           ("tests/test_bootstrap.py::test_extract_field_tie_goes_to_the_earlier_phrase",)),
    # the value threshold (bootstrap.extract_field)
    Mutant("rules: a value at or below theta_v kept", "src/ffrg/bootstrap.py",
           "if best_i is None or best_score <= p.theta_v:", "if best_i is None:",
           ("tests/test_bootstrap.py::test_extract_field_rejects_below_threshold",
            "tests/test_bootstrap.py::test_degenerate_pages_give_the_reference_values_without_warnings",
            "tests/test_bootstrap.py::test_extract_document_equals_the_phrase_object_path_on_degenerate_pages")),
    # a phrase's box row (bootstrap._union_rows)
    Mutant("phrase box: the signed-zero redo dropped", "src/ffrg/bootstrap.py",
           "for i, c in zip(*(out == 0.0).nonzero()):", "for i, c in ():",
           ("tests/test_bootstrap.py::test_phrase_box_rows_keep_the_first_of_signed_zeros",)),
    # the held corpus features (features.CorpusFeatures)
    Mutant("held features: entries kept by value, not by bits", "src/ffrg/features.py",
           "pos = np.flatnonzero(bits != 0)", "pos = np.flatnonzero(x.ravel() != 0.0)",
           ("tests/test_features.py::test_held_features_keep_negative_zero",)),
    Mutant("held features: uint8 columns", "src/ffrg/features.py",
           "cols.astype(np.uint16)", "cols.astype(np.uint8)", _WIDE_TESTS),
    Mutant("held features: no width bound", "src/ffrg/features.py",
           "if self.width > _MAX_WIDTH:", "if False:", _WIDE_TESTS),
    Mutant("held features: the width bound off by one", "src/ffrg/features.py",
           "if self.width > _MAX_WIDTH:", "if self.width >= _MAX_WIDTH:", _WIDE_TESTS),
    Mutant("held features: int32 columns", "src/ffrg/features.py",
           "cols.astype(np.uint16)", "cols.astype(np.int32)", _HELD_LAYOUT_TESTS),
    Mutant("held features: int64 row counts", "src/ffrg/features.py",
           ".astype(count_type)", ".astype(np.int64)", _HELD_LAYOUT_TESTS),
    Mutant("held features: float32 values", "src/ffrg/features.py",
           "table.view(np.float64)))", "table.view(np.float64).astype(np.float32)))",
           _HELD_LAYOUT_TESTS),
    Mutant("held features: row starts restarting per document", "src/ffrg/features.py",
           "at += (np.arange(len(counts)) * self.width).repeat(counts)",
           "at += np.concatenate([(np.arange(len(c)) * self.width).repeat(c) for c, *_ in picked])",
           _HELD_FILL_TESTS),
    Mutant("held features: row counts cut to each document's first row", "src/ffrg/features.py",
           "counts = np.concatenate(counts)", "counts = np.concatenate([c[:1] for c in counts])",
           _HELD_FILL_TESTS),
    Mutant("held features: the value table built by value, merging NaN payloads",
           "src/ffrg/features.py",
           "np.unique(bits[pos], return_inverse=True)",
           "np.unique(x.ravel()[pos], return_inverse=True)", _HELD_TABLE_TESTS),
    Mutant("held features: the table index always uint8", "src/ffrg/features.py",
           "index.astype(np.min_scalar_type(max(len(table) - 1, 0)))", "index.astype(np.uint8)",
           _HELD_TABLE_TESTS),
    Mutant("held features: the per-document table starts dropped", "src/ffrg/features.py",
           "where += (np.cumsum(sizes) - sizes).repeat([len(i) for i in index])", "pass",
           _HELD_FILL_TESTS),
    # the data-type rules as one alternation (datatypes.type_of); money and
    # date match disjoint texts, so of the family orders only number before
    # date can show
    Mutant("type_of: number tried before date", "src/ffrg/datatypes.py",
           '    (_DATE, r"\\d{1,2}[/-]',
           '    (_NUMBER, r"#?\\d+(?:[-,./]\\d+)*", False),\n    (_DATE, r"\\d{1,2}[/-]',
           _TYPE_ORDER_TESTS),
    Mutant("type_of: the case-insensitive scope widened to the prefixed-number rule",
           "src/ffrg/datatypes.py",
           '(_NUMBER, r"[A-Za-z]{1,3}[-#:.]?\\d{3,}", False)',
           '(_NUMBER, r"[A-Za-z]{1,3}[-#:.]?\\d{3,}", True)',
           ("tests/test_datatypes.py::test_type_of_matches_the_regex_only_rules_on_edge_texts",)),
    # featurize's text blocks (features.featurize, features._flag_rows)
    Mutant("trigrams: a key without its middle code point", "src/ffrg/features.py",
           "codes[:-2] << 2 * _CODE_BITS | codes[1:-1] << _CODE_BITS | codes[2:]",
           "codes[:-2] << 2 * _CODE_BITS | codes[2:]", _TRIGRAM_TESTS),
    Mutant("trigrams: the memo storing every miss past its bound", "src/ffrg/features.py",
           "new, new_columns = new[:room], new_columns[:room]", "pass", _TRIGRAM_TESTS),
    Mutant("flags: the counts taken over the padded text", "src/ffrg/features.py",
           """chars = np.frombuffer("".join(texts).encode("utf-32-le"), dtype="<U1")""",
           """chars = np.frombuffer(f"^{'$^'.join(texts)}$".encode("utf-32-le"), dtype="<U1")""",
           _FLAG_TESTS),
    Mutant("flags: whole-text isdigit read from the <U array", "src/ffrg/features.py",
           "rows[:, 4] = n_digit == lens", "rows[:, 4] = np.char.isdigit(as_array)", _FLAG_TESTS),
    # one softmax over the stacked branch logits (model._softmax)
    Mutant("softmax: the sum over the middle axis", "src/ffrg/model.py",
           "z /= z.sum(axis=-1, keepdims=True)", "z /= z.sum(axis=1, keepdims=True)",
           ("tests/test_progressive.py::test_ensemble_is_the_branch_mean",)),
    # the ensemble as one sum over the branch axis (progressive.ensemble_predict)
    Mutant("ensemble: the first branch left out of the sum", "src/ffrg/progressive.py",
           "return probs.sum(axis=0) / params.n_branches",
           "return probs[1:].sum(axis=0) / params.n_branches",
           ("tests/test_progressive.py::test_ensemble_is_the_branch_mean",
            "tests/test_progressive.py::test_ensemble_is_the_branch_mean_at_any_branch_count")),
    # Jaro's window scan (similarity.jaro_similarity)
    Mutant("jaro: a flagged character taken as a match", "src/ffrg/similarity.py",
           "while j >= 0 and flags2[j]:", "while False:", _JARO_SCAN_TESTS),
    Mutant("jaro: the skip scan running past the window", "src/ffrg/similarity.py",
           "j = s2.find(ch, j + 1, hi)", "j = s2.find(ch, j + 1)", _JARO_SCAN_TESTS),
    Mutant("jaro: the window starting one late", "src/ffrg/similarity.py",
           "lo = i - search_range if i > search_range else 0",
           "lo = i - search_range + 1 if i > search_range else 0", _JARO_SCAN_TESTS),
)


def occurrences(mutant: Mutant, root: str = ROOT) -> int:
    """How many times the mutant's old text occurs in its file."""
    with open(os.path.join(root, mutant.path), encoding="utf-8") as f:
        return f.read().count(mutant.old)


def _copy_tree(dest: str) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
    for name in ("src", "tests"):
        shutil.copytree(os.path.join(ROOT, name), os.path.join(dest, name), ignore=ignore)
    shutil.copy(os.path.join(ROOT, "pyproject.toml"), dest)


def _pytest(tests: tuple[str, ...], mutant: Mutant | None) -> tuple[int, str]:
    """(exit status, summary line) of pytest on `tests` in a fresh copy of
    the tree, with `mutant` applied unless it is None."""
    with tempfile.TemporaryDirectory(prefix="ffrg-mutant-") as d:
        _copy_tree(d)
        if mutant is not None:
            path = os.path.join(d, mutant.path)
            with open(path, encoding="utf-8") as f:
                text = f.read()
            with open(path, "w", encoding="utf-8") as f:
                f.write(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=os.path.join(d, "src"), PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
            cwd=d, env=env, capture_output=True, text=True,
        )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines[-1] if lines else proc.stderr.strip()[-200:]


def run(mutant: Mutant) -> tuple[bool, str]:
    """(caught, summary line of pytest) for one mutant on a fresh copy."""
    status, summary = _pytest(mutant.tests, mutant)
    # 1: a test failed; 2: collection failed, as when the mutant breaks an
    # import (the unmutated copy collected the same tests); anything else
    # is a fault of the row, not a catch
    if status not in (0, 1, 2):
        raise SystemExit(f"{mutant.name}: pytest exited {status} ({summary})")
    return status != 0, summary


def main() -> int:
    stale = [(m.name, n) for m in MUTANTS if (n := occurrences(m)) != 1]
    for name, n in stale:
        print(f"STALE {name}: old text occurs {n} times")
    if stale:
        return 1
    tests = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
    status, summary = _pytest(tests, None)
    if status != 0:
        raise SystemExit(f"the rows' tests do not pass on the unmutated copy: {summary}")
    print(f"unmutated copy: {summary}", flush=True)
    survivors = []
    for m in MUTANTS:
        start = time.perf_counter()
        caught, summary = run(m)
        print(f"{'caught' if caught else 'SURVIVED'}  {m.name}  "
              f"({time.perf_counter() - start:.1f} s: {summary})", flush=True)
        if not caught:
            survivors.append(m.name)
    print(f"caught {len(MUTANTS) - len(survivors)}/{len(MUTANTS)}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
