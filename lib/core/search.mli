(** Search strategies for the Storage-Minimal Index Merging problem
    (paper §3.1, §3.4).

    Input: an initial configuration C, a workload W, and a
    cost-constraint c giving the bound U = (1 + c) · Cost(W, C). Output:
    a minimal merged configuration of lowest (greedy: greedily lowered)
    storage with Cost(W, C') ≤ U.

    - {b Greedy} (Figure 4): each iteration runs one {!round} and
      commits the first candidate (largest storage reduction first)
      whose configuration still meets the cost constraint; stops when
      no acceptable merge remains. Polynomial (O(N³) pair merges). The
      dual ({!Dual}) walks the same rounds with its own commit and stop
      rules.
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

(** {1 One merge round}

    The round Figure 4 and the dual ({!Dual.run}) share; each strategy
    keeps only its commit and stop rules. *)

type candidate = {
  c_pair : Im_catalog.Index.t * Im_catalog.Index.t;  (** the pair merged *)
  c_merged : Merge.item;  (** the pair's merged item *)
  c_items : Merge.item list;
      (** the configuration with the pair replaced by [c_merged] *)
  c_reduction : int;  (** storage pages saved (> 0) *)
}

val round :
  prune:Im_mine.Mine.frontier option ->
  merge:(Im_catalog.Config.t -> Im_catalog.Index.t -> Im_catalog.Index.t ->
         Im_catalog.Index.t) ->
  pages:(Im_catalog.Index.t -> int) ->
  Merge.item list ->
  candidate list option
(** [round ~prune ~merge ~pages items] takes the same-table pairs of
    [items] in {!Im_util.List_ext.pairs} order, drops those
    {!Im_mine.Mine.keep_pair} rejects (with a frontier), and merges
    every other one with [merge current i1 i2] ([current] is [items]'
    configuration; the caller's MergePair). It returns the candidates
    that save storage, sorted by reduction descending, ties in pair
    order; [None] when no pair was left to merge. [pages] is an index's
    storage, typically a {!page_memo}. *)

val commit :
  prune:Im_mine.Mine.frontier option -> candidate -> Merge.item list
(** The candidate's configuration, after blessing its merged index on
    the frontier ({!Im_mine.Mine.bless}) so later rounds can chain on
    it. *)

val run :
  ?service:Im_costsvc.Service.t ->
  ?merge_pair:Merge_pair.procedure ->
  ?cost_model:Cost_eval.model ->
  ?cost_constraint:float ->
  ?prune:Im_mine.Mine.frontier ->
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
    paper's order: greedy commits each {!round}'s first candidate the
    bound accepts; exhaustive sorts the enumerated configurations by
    storage and accepts the first acceptable one.

    Without [?service] the run builds a private
    {!Cost_eval.default_service}: cache misses — and the seek/scan
    usage analysis — are answered by re-assembling cached per-index
    access-path atoms, bit-identical to running the optimizer.

    [?prune] restricts MergePair enumeration — greedy same-table pairs
    and exhaustive partition blocks alike, ahead of scoring — to the
    merges the frontier keeps ({!Im_mine.Mine.keep_pair},
    {!Im_mine.Mine.keep_block}); its tallies are read back with
    {!Im_mine.Mine.frontier_stats}. Workload compression and mining
    are the caller's step: {!Im_scale.Scale.prepare} returns the
    workload and frontier to pass here. *)
