(** Workload-level index selection under a storage budget.

    The cost-driven greedy selection of [CN97]: candidates are the
    union of per-query proposals; indexes are added one at a time,
    maximizing workload-cost benefit per storage page, while the
    configuration fits the budget. This is the "index selection tool"
    whose output the paper says index merging should post-process. *)

type outcome = {
  s_config : Im_catalog.Config.t;
  s_budget_pages : int;
  s_pages : int;
  s_base_cost : float;  (** workload cost with no indexes *)
  s_final_cost : float;
  s_candidates : int;  (** size of the candidate pool *)
  s_optimizer_calls : int;  (** service what-if calls, this run *)
  s_rounds : int;  (** greedy rounds that scored the remaining candidates *)
  s_cells_recosted : int;
      (** per-query what-if lookups made for cells an added index could
          change *)
  s_cells_certified : int;
      (** cells an added index could change but provably does not (see
          {!certifies}), taken from the current row with no lookup *)
  s_cells_reused : int;
      (** per-query costs of scored candidates taken from the current
          row or a still-valid cell, with no lookup *)
  s_shared_evals : int;
      (** candidate workload costs answered by an earlier pass over the
          same {!context} *)
}
(** Accounting identity, per pass over [n] queries:
    [s_cells_recosted + s_cells_certified + s_cells_reused
     + n * s_shared_evals] equals the textbook greedy's lookups, [n]
    per candidate scored per round. A pass that leaves the rounds an
    earlier pass scored, by committing a different index there, also
    fills that index's cells: one more recosted or certified cell per
    relevant query, outside the identity. *)

type context
(** What the passes of one advise call share: the cost service, the
    candidate pool (generated and pruned once), the per-query costs
    and workload cost with no indexes, and every per-candidate
    workload cost a pass has computed, keyed by the sequence of
    indexes committed before it. Lives as long as the caller holds
    it. *)

val context :
  ?service:Im_costsvc.Service.t ->
  ?prune:Im_mine.Mine.frontier ->
  Im_catalog.Database.t ->
  Im_workload.Workload.t ->
  context
(** Generate (and, with [?prune], filter) the candidates and cost the
    workload with no indexes. Without [?service] a private
    {!Im_merging.Cost_eval.default_service} is created, deriving like
    the advisor's. *)

val certifies :
  Im_catalog.Database.t ->
  Im_catalog.Config.t ->
  Im_sqlir.Query.t ->
  Im_catalog.Index.t ->
  bool
(** The access-path certificate: [true] proves the query's cost under
    [config @ [ix]] bit-identical to its cost under [config], and under
    [config @ [ix; c]] to its cost under [config @ [c]]. It holds when
    the query is not a single-table ORDER BY without aggregation and,
    on every access-path input the planner can request on [ix]'s table,
    every path [ix] adds (choice or intersection) costs strictly more
    than the cheapest path through the heap or one index of [config]. *)

val run : context -> budget_pages:int -> outcome
(** One greedy pass at [budget_pages] over the context's candidates:
    at most 40 indexes, stopping when the best candidate improves
    workload cost by less than 0.2 % relative.
    Exact and incremental: a candidate's cost under [C ∪ {ix}] re-costs
    only the queries referencing [ix]'s table (every other query keeps
    its cost under [C]), and is the same left-to-right weighted fold as
    {!Im_costsvc.Service.workload_cost}, so the result is bit-identical
    to re-costing the whole workload per candidate. Rounds an earlier
    pass on the same context already scored (the same indexes
    committed in the same order) reuse its workload costs. A cell
    {!certifies} proves unchanged takes no lookup, and a committed
    index leaves valid the cells of the queries it certifies; under
    [IM_VALIDATE_DERIVE] both are re-planned and checked bit for bit
    ({!Im_derive.Derive.Mismatch}). [s_optimizer_calls] counts this
    pass only. *)

val select :
  ?service:Im_costsvc.Service.t ->
  ?prune:Im_mine.Mine.frontier ->
  Im_catalog.Database.t ->
  Im_workload.Workload.t ->
  budget_pages:int ->
  outcome
(** {!run} on a fresh {!context}; [s_optimizer_calls] includes the
    base costing. [?service] shares the memoizing cost service with
    other phases. Its cache is cleared whenever it fills, so a second
    [select] on the same service may re-cost configurations the first
    one saw: to share work between passes, run them on one {!context}.
    [?prune] filters the candidate pool through a frequent-itemset
    frontier ({!Im_mine.Mine.keep_index}): only candidates the
    workload's support threshold justifies — or that it never touched
    at all — are costed. *)
