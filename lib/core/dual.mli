(** The dual formulation: Cost-Minimal Index Merging.

    The paper (§3.1) defines it but leaves it unexplored: "minimize the
    cost of the workload subject to a maximum storage constraint". Given
    an initial configuration C and a storage budget, find a minimal
    merged configuration within the budget whose workload cost is as low
    as possible.

    The greedy strategy mirrors Figure 4 with the roles of the two
    objectives swapped: while the configuration exceeds the budget,
    apply the pair merge that reduces storage while increasing the
    (optimizer-estimated) workload cost the least — examining the
    candidates in descending storage-reduction order and costing only a
    bounded number of them per iteration, the same economy §3.4.2
    observes for the primal greedy. *)

type outcome = {
  d_initial : Im_catalog.Config.t;
  d_items : Merge.item list;
  d_budget_pages : int;
  d_initial_pages : int;
  d_final_pages : int;
  d_fits : bool;  (** final storage <= budget *)
  d_initial_cost : float;
  d_final_cost : float;
  d_iterations : int;
  d_optimizer_calls : int;  (** service what-if calls, this run *)
  d_elapsed_s : float;
}

val run :
  ?service:Im_costsvc.Service.t ->
  ?prune:Im_mine.Mine.frontier ->
  Im_catalog.Database.t ->
  Im_workload.Workload.t ->
  initial:Im_catalog.Config.t ->
  budget_pages:int ->
  outcome
(** Pairs merge by MergePair-Cost under optimizer-estimated cost, 6
    costed candidates per round. [?service] shares the memoizing cost
    service with other phases (the advisor threads one through
    selection and merging);
    [d_optimizer_calls] is the per-run delta either way. If no sequence
    of merges fits the budget, the outcome has [d_fits = false] and
    carries the smallest configuration reached.

    [?prune] applies the same frequent-itemset frontier as
    {!Search.run}: only same-table pairs {!Im_mine.Mine.keep_pair}
    accepts are scored and shortlisted. *)
