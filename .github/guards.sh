#!/usr/bin/env bash
# Deletion guards. Each rule below pins one piece of machinery that was
# retired on purpose, so that a second copy cannot come back unnoticed.
# Run from anywhere in the repository:
#
#   bash .github/guards.sh
#
# Every rule runs; each broken one is named on stderr, and the script exits
# 1 if any rule is broken, 0 otherwise.
set -u
cd "$(dirname "$0")/.."

# The seed row engine is tests/support/rowref.rs and shares no kernel with
# the executor it checks; no shipped source names it.
row_engine_oracle_stays_out_of_the_library() {
  ! grep -rn rowref crates src examples
}

# scope-plan only describes a user-defined operator and the executor runs
# each kind as a batch kernel; the row versions of the seven built-ins live
# on only in the test oracle.
udos_run_as_batch_kernels() {
  ! grep -rnE 'process_row|reduce_group' crates/*/src
}

# Non-test exec.rs and vexpr.rs (everything above their #[cfg(test)]
# modules) name no Row, call no row bridge, read no batch row and evaluate
# no expression one row at a time with Expr::eval.
execute_builds_no_row() {
  for f in crates/scope-engine/src/exec.rs crates/scope-engine/src/vexpr.rs; do
    ! sed '/^#\[cfg(test)\]/,$d' "$f" \
      | grep -nE '\b(Row|from_rows|partition_rows|all_rows|batches_from_rows|sort_rows)\b|\.row\(|\.eval\(' \
      || { echo "$f builds a row"; return 1; }
  done
}

# Hash Aggregate, the join build and the join probe assign group ids in one
# function of non-test exec.rs, and hash and stream Aggregate share one
# accumulation loop: no per-operator grouping copy returns.
one_grouping_kernel() {
  ! sed '/^#\[cfg(test)\]/,$d' crates/scope-engine/src/exec.rs \
    | grep -nE '\bfn (group_rows|group_by_key|group_typed_ints|build_probe|build_probe_ints|hash_aggregate_batch|stream_aggregate_batch|typed_key|value_key)\b|\benum KeyKind\b'
}

# A Schema's columns are shared (`Arc<[Column]>`): a clone is a
# reference-count bump, so schema.rs stores no `Vec<Column>`.
schema_columns_shared() {
  ! grep -nE '^\s+columns: Vec<Column>,' crates/scope-plan/src/schema.rs
}

# Each node's partitions are cut from one build: no per-partition copy path
# (EAGER_ROWS) comes back into non-test data.rs.
one_build_per_node() {
  ! sed '/^#\[cfg(test)\]/,$d' crates/scope-engine/src/data.rs | grep -nw 'EAGER_ROWS'
}

# A plan's schemas are derived once per graph version (the QueryGraph
# memo, filled when the optimizer validates the plan): non-test exec.rs reads
# them and never re-validates the plan it executes.
execute_reads_memoized_schemas() {
  ! sed '/^#\[cfg(test)\]/,$d' crates/scope-engine/src/exec.rs | grep -n 'validate()'
}

# Outside data.rs, which defines them, no non-test library code
# materializes a table's rows.
rows_stay_in_tests() {
  for f in $(find crates/*/src -name '*.rs' ! -path crates/scope-engine/src/data.rs); do
    ! sed '/^#\[cfg(test)\]/,$d' "$f" | grep -nwE 'partition_rows|iter_rows|all_rows' \
      || { echo "$f materializes rows"; return 1; }
  done
}

# Every wire and on-disk layout is one cloudviews::codec::Codec impl; a free
# put_x/get_x pair would state a layout twice, by hand.
one_layout_per_type() {
  ! grep -rnE '^pub fn (put|get)_' crates/*/src
}

# Probes, view descriptors and the optimizer's tier-2 attempt build
# subsumption descriptors through SubsumeDescriptor::of_root, so they cannot
# disagree on which roots are eligible.
one_descriptor_rule() {
  ! grep -rn 'SubsumeDescriptor::of(' crates/cloudviews/src crates/scope-engine/src
}

# A value's order, stable hash and byte size live on scope_plan::types::Cell,
# which Value calls; unary operators have one scalar definition,
# scope_plan::eval_unary.
one_value_semantics() {
  ! grep -rn 'enum Cell' crates/scope-engine/src && ! grep -rn 'fn unary_scalar' crates
}

# A compiled subgraph is one SubgraphInfo from enumeration through the
# template cache, the repository's SubgraphRun and the analyzer.
one_subgraph_record() {
  ! grep -rnE 'struct (FirstOcc|OccView|SkeletonNode)' crates
}

# A sharing window decides each thing once: one exact grouping by precise
# signature (no normalized pre-pass), one way a follower is ordered behind
# its producer (the readiness gate, no condvar wait inside a lookup), one
# lookup answer (an Option, no four-way enum) and one producer predicate.
one_sharing_decision_each() {
  ! sed '/^#\[cfg(test)\]/,$d' crates/cloudviews/src/sharing.rs \
    | grep -nwE 'SharedView|state_changed|by_normalized|deny_propose|is_producer'
}

# One job path states each fact once: the attempt is its own view oracle,
# the lookup step does its own retries, one function is the per-job entry,
# and availability is read off the attempt's one simulated-time cursor.
one_job_path() {
  for f in crates/cloudviews/src/pipeline.rs crates/cloudviews/src/runtime.rs; do
    ! sed '/^#\[cfg(test)\]/,$d' "$f" \
      | grep -nwE 'PinnedServices|run_job_shared|drive_attempts|lookup_with_retry|job_end_offset' \
      || { echo "$f states a job-path fact twice"; return 1; }
  done
}

# The analyzer states each selection rule once: select and explain read one
# admission table, one JobCap ledger keeps the per-job cap, and the recovery
# fingerprint is the aggregates' codec layout, never a sequence written by
# hand.
analyzer_rules_once() {
  ! sed '/^#\[cfg(test)\]/,$d' crates/cloudviews/src/analyzer/selection.rs \
    | grep -nwE 'take_with_job_cap|fits_cap|custom' \
    || { echo "selection.rs states a rule twice"; return 1; }
  ! sed '/^#\[cfg(test)\]/,$d' crates/cloudviews/src/admin.rs \
    | grep -nwE 'min_frequency|min_cost_ratio|min_cpu|max_bytes|min_nodes|exclude_outputs' \
    || { echo "admin.rs restates an admission check"; return 1; }
  ! grep -nw put_seq crates/cloudviews/src/analyzer/incremental.rs \
    || { echo "incremental.rs writes a layout by hand"; return 1; }
}

# Nothing serializes through serde: the workspace derives no serde trait
# (the serde shim stays only as a locked dependency).
no_serde_derive() {
  ! grep -rn 'serde::' crates/*/src src
}

# A stored view is verified by identity: the store keeps the published
# table beside each view and records no digest of it (StoredView has no
# `integrity: u64`), and non-test publish_view hashes no row.
views_verified_by_identity() {
  local f=crates/scope-engine/src/storage.rs
  ! sed '/^#\[cfg(test)\]/,$d' "$f" | grep -nE '^\s+integrity: u64,' \
    || { echo "$f records a digest per view"; return 1; }
  ! sed '/^#\[cfg(test)\]/,$d' "$f" | sed -n '/pub fn publish_view/,/^    }$/p' \
    | grep -n multiset_checksum \
    || { echo "$f hashes a view when it is published"; return 1; }
}

status=0
for rule in \
  row_engine_oracle_stays_out_of_the_library \
  udos_run_as_batch_kernels \
  execute_builds_no_row \
  one_grouping_kernel \
  schema_columns_shared \
  one_build_per_node \
  execute_reads_memoized_schemas \
  rows_stay_in_tests \
  one_layout_per_type \
  one_descriptor_rule \
  one_value_semantics \
  one_subgraph_record \
  one_sharing_decision_each \
  one_job_path \
  analyzer_rules_once \
  views_verified_by_identity \
  no_serde_derive; do
  if ! "$rule"; then
    echo "guard broken: $rule" >&2
    status=1
  fi
done
exit "$status"
