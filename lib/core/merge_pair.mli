(** MergePair — the three procedures of the paper's §3.3.

    - {b MergePair-Cost} (Figure 2): index-preserving merge with the
      higher-[Seek-Cost] parent as the leading prefix, preserving the
      seeks that matter most; seeks destroyed on the trailing parent are
      the merge's only likely regressions.
    - {b MergePair-Syntactic} (Figure 3): same construction, but the
      leading parent is chosen by counting appearances of each parent's
      leading column in conditions, ORDER BY, GROUP BY and SELECT
      clauses — no cost or usage information.
    - {b MergePair-Exhaustive}: all k! column orders of the union
      (Definition 1, not restricted to index-preserving merges), scored
      by [Cost (W, C')]; the experimental upper bound of Figure 7. *)

type procedure =
  | Cost_based
  | Syntactic
  | Exhaustive of { perm_limit : int }
      (** cap on enumerated permutations; the enumeration is cut off
          beyond it (the paper only runs this for tiny k) *)

val syntactic_frequency :
  Im_workload.Workload.t -> Im_catalog.Index.t -> float
(** Frequency-weighted appearance count of the index's leading column
    (Figure 3, step 1). *)

val merge :
  procedure ->
  workload:Im_workload.Workload.t ->
  seek:Seek_cost.t ->
  ?service:Im_costsvc.Service.t ->
  current:Im_catalog.Config.t ->
  Im_catalog.Index.t ->
  Im_catalog.Index.t ->
  Im_catalog.Index.t
(** Merge a same-table pair. [seek] must describe the *initial*
    configuration (the paper computes Seek-Cost once, on C). The
    [Exhaustive] procedure requires [?service] (the memoizing what-if
    service its candidate orders are scored through) and [current], the
    configuration the pair lives in; raises [Invalid_argument] without
    a service. *)
