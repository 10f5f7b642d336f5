(** Search strategies for the Storage-Minimal Index Merging problem
    (paper §3.1, §3.4).

    Input: an initial configuration C, a workload W, and a
    cost-constraint c giving the bound U = (1 + c) · Cost(W, C). Output:
    a minimal merged configuration of lowest (greedy: greedily lowered)
    storage with Cost(W, C') ≤ U.

    - {b Greedy} (Figure 4): each iteration merges, among all same-table
      pairs, the pair with the largest storage reduction whose resulting
      configuration still meets the cost constraint; stops when no
      acceptable merge remains. Polynomial (O(N³) pair merges).
    - {b Exhaustive}: enumerates every minimal merged configuration
      derivable with MergePair (set partitions of each table's indexes,
      combined across tables), and returns the smallest one meeting the
      constraint. Exponential; the experiments use N = 5 as in the
      paper. *)

type strategy =
  | Greedy
  | Exhaustive_search of { config_limit : int }
      (** safety cap on enumerated configurations *)

type outcome = {
  o_initial : Im_catalog.Config.t;
  o_items : Merge.item list;  (** the resulting minimal merged configuration *)
  o_initial_pages : int;
  o_final_pages : int;
  o_initial_cost : float option;  (** [None] under the No-Cost model *)
  o_final_cost : float option;
  o_bound : float option;
  o_iterations : int;  (** greedy outer-loop iterations / configs examined *)
  o_cost_evaluations : int;  (** service workload evaluations, this run *)
  o_optimizer_calls : int;  (** service what-if calls (misses), this run *)
  o_cache_hits : int;  (** service cache hits, this run *)
  o_cache_misses : int;  (** service cache misses, this run *)
  o_derived_costs : int;
      (** misses answered from cached access-path atoms, this run *)
  o_elapsed_s : float;
  o_truncated : bool;  (** exhaustive enumeration hit [config_limit] *)
  o_compression : Im_scale.Scale.stats option;
      (** workload-compression stats when [?compress] was given *)
  o_pruning : Im_mine.Mine.stats option;
      (** frontier-pruning tallies when pruning was active *)
}

val storage_reduction : outcome -> float
(** [1 - final/initial] (0 if the initial configuration is empty). *)

val page_memo : Im_catalog.Database.t -> Im_catalog.Index.t -> int
(** [page_memo db] returns a memoizing page counter: per-index storage
    pages cached by index id for the life of the returned closure.
    Valid as long as the database's row counts do not change. The sum
    over a configuration equals
    {!Im_catalog.Database.config_storage_pages}. *)

val cost_increase : outcome -> float option
(** [final/initial - 1] under a numeric model. *)

val run :
  ?service:Im_costsvc.Service.t ->
  ?merge_pair:Merge_pair.procedure ->
  ?cost_model:Cost_eval.model ->
  ?cost_constraint:float ->
  ?compress:float ->
  ?prune:Im_mine.Mine.frontier ->
  ?prune_support:float ->
  Im_catalog.Database.t ->
  Im_workload.Workload.t ->
  initial:Im_catalog.Config.t ->
  strategy ->
  outcome
(** Defaults: MergePair-Cost, optimizer-estimated cost, 10 % constraint
    (the paper's Figure 5 setting). [?service] shares a memoizing cost
    service with other runs (configurations costed by one strategy are
    cache hits for another); counters in the outcome are per-run deltas
    either way. Page counts are memoized by index id, and only
    queries whose relevant index set changed are re-optimized after a
    merge — the others are cache hits.

    Both strategies run sequentially on the calling domain, in the
    paper's order: greedy scores each round's same-table pairs, sorts
    them by storage reduction and accepts the first whose merged
    configuration stays within the bound; exhaustive sorts the
    enumerated configurations by storage and accepts the first
    acceptable one.

    Without [?service] the run builds a private
    {!Cost_eval.default_service}: cache misses — and the seek/scan
    usage analysis — are answered by re-assembling cached per-index
    access-path atoms, bit-identical to running the optimizer.

    [?compress], [?prune_support] and [?prune] run through
    {!Im_scale.Scale.prepare} before the search proper.
    [?compress] (off by default; the CLI's [--compress EPS]) compacts
    the workload: statements bucket by physical-design signature under
    the deviation budget [EPS] and the search costs the compressed
    workload — [o_initial_cost]/[o_final_cost]/[o_bound] then refer to
    it, within the reported bound ([o_compression]) of the uncompressed
    figures. At [EPS = 0] only canonically identical statements fold,
    so the merged configuration is bit-identical to the uncompressed
    search on duplicate-free workloads.

    [?prune_support] (off by default; the CLI's [--prune-support S])
    mines the workload's frequent (table, column-set) itemsets before
    the search and restricts MergePair enumeration — greedy same-table
    pairs and exhaustive partition blocks alike, ahead of scoring — to
    merges whose merged column set has relative support at least [S],
    plus the merges {!Im_mine.Mine.keep_block}'s correctness valve
    protects (all parents evidence-free, or the union collapsing into
    one parent). [S <= 0] disables pruning and is bit-identical to the
    unpruned search. Compressed runs mine the compressed workload.
    [?prune] supplies a ready-made frontier instead and wins over
    [?prune_support]. Pruning tallies land in [o_pruning]. *)
