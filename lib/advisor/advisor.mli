(** Index advisor with an integrated merging phase.

    The paper's conclusion: "an index merging component should be an
    integral part of an index selection tool to enable choosing indexes
    that have low storage and maintenance overhead." This module is
    that tool:

    1. {e select} greedily under a *relaxed* budget (default 2x), so
       per-query-optimal indexes are not prematurely excluded;
    2. {e merge} the selection down to the real budget with the dual
       (Cost-Minimal) merging algorithm;
    3. {e compare} against selecting directly at the real budget, and
       recommend whichever configuration is cheaper (merging wide
       covering indexes can destroy more benefit than it saves when the
       budget is tight, so the tool must never be worse than plain
       selection).

    The A4 ablation in the benchmark harness quantifies when each path
    wins. *)

type path =
  | Select_then_merge  (** the relaxed-selection + dual-merging pipeline won *)
  | Plain_selection  (** direct selection at the budget was better *)

type outcome = {
  a_selected : Im_catalog.Config.t;  (** after phase 1 (relaxed budget) *)
  a_final : Im_merging.Merge.item list;  (** the recommendation *)
  a_path : path;
  a_budget_pages : int;
  a_selected_pages : int;
  a_final_pages : int;
  a_fits : bool;
  a_base_cost : float;  (** no indexes *)
  a_selected_cost : float;  (** cost of the (relaxed) selection *)
  a_merged_cost : float;  (** cost after merging down to budget *)
  a_merged_fits : bool;  (** whether merging actually reached the budget *)
  a_plain_cost : float;  (** cost of direct selection at the budget *)
  a_final_cost : float;  (** cost of the recommendation *)
  a_optimizer_calls : int;
      (** what-if optimizer invocations across all three phases — the
          quantity online tuning budgets per epoch. A per-run delta of
          the shared service's counter: phases re-costing a
          configuration another phase already saw are cache hits and
          do not count. *)
}

val advise :
  ?service:Im_costsvc.Service.t ->
  ?prune:Im_mine.Mine.frontier ->
  Im_catalog.Database.t ->
  Im_workload.Workload.t ->
  budget_pages:int ->
  outcome
(** [advise db w ~budget_pages] with relaxation factor 2.0 for the
    selection phase. All three phases share one
    memoizing cost service — [?service] to supply it (the online layer
    carries one across epochs), otherwise a fresh
    {!Im_merging.Cost_eval.default_service}, which answers misses from
    cached access-path atoms.

    [?prune] (the frontier {!Im_scale.Scale.prepare} returns; the
    CLI's [--prune-support S] and the online epoch's window mining)
    threads through {e all three} phases: both selections filter their
    candidate pools ({!Im_mine.Mine.keep_index}) and the dual merge
    prunes its pair enumeration ({!Im_mine.Mine.keep_pair}); its
    tallies are read back with {!Im_mine.Mine.frontier_stats}.
    Workload compression is the caller's step too: pass the workload
    {!Im_scale.Scale.prepare} returns, and reported costs refer to it. *)

val final_config : outcome -> Im_catalog.Config.t

val summary : outcome -> string
