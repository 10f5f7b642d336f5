(** Initial configurations for the merging experiments (paper §4.2.3):
    "We picked a query at random from the workload and created indexes
    recommended by the Index Tuning Wizard for optimizing the
    performance of that query. This process was repeated until the
    required number of indexes were generated." *)

val build :
  Im_catalog.Database.t ->
  Im_workload.Workload.t ->
  rng:Im_util.Rng.t ->
  n:int ->
  Im_catalog.Config.t
(** Accumulate per-query recommendations (deduplicated) until [n]
    indexes are collected, or until [20 * n] random query picks have
    been exhausted — workloads with little index potential may top out
    below [n]. *)

val per_query_union :
  Im_catalog.Database.t -> Im_workload.Workload.t -> Im_catalog.Config.t
(** Tune every query individually and take the union of all
    recommendations — the paper's introduction scenario ("if we build
    indexes by tuning each query individually"). *)
