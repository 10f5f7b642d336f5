(** One tuning epoch: re-run the budgeted advisor on the current window
    and express the result as a diff against the live configuration.

    The window snapshot goes through {!Im_scale.Scale.prepare} (the
    window's slots already carry distinct signatures, so there is
    nothing to fold exactly) and is truncated Wii-style to the
    budget's cluster allowance, keeping the clusters that are most
    expensive under the live configuration — re-tuning effort goes where
    the current indexes hurt most. {!Im_advisor.Advisor.advise} then
    produces a fresh configuration under the storage budget, and the
    epoch reports it as create/drop/keep sets rather than a full
    configuration: a live system applies DDL deltas, not wholesale
    rebuilds. *)

type diff = {
  d_create : Im_catalog.Index.t list;  (** in new, not in live *)
  d_drop : Im_catalog.Index.t list;  (** in live, not in new *)
  d_keep : Im_catalog.Index.t list;  (** unchanged *)
}

val diff : old_config:Im_catalog.Config.t -> new_config:Im_catalog.Config.t -> diff

val diff_is_empty : diff -> bool

val diff_to_string : diff -> string
(** e.g. ["+2 -3 =4"]. *)

type trigger = Bootstrap | Drift | Forced

val trigger_to_string : trigger -> string

type outcome = {
  e_trigger : trigger;
  e_clusters_tuned : int;  (** clusters handed to the advisor *)
  e_budget_clusters : int;  (** allocation the epoch ran under *)
  e_diff : diff;
  e_config : Im_catalog.Config.t;  (** the new live configuration *)
  e_old_cost : float;  (** window cost under the previous configuration *)
  e_new_cost : float;
  e_benefit : float;  (** [(old - new) / old], 0 when old is 0 *)
  e_old_pages : int;
  e_new_pages : int;
  e_opt_calls : int;  (** optimizer invocations spent by this epoch *)
  e_elapsed_s : float;
  e_scale : Im_scale.Scale.stats option;
      (** compactor stats when [?compress] was given *)
  e_mine : Im_mine.Mine.stats option;
      (** frontier-pruning tallies when [?prune_support] was given *)
}

val run :
  ?compress:float ->
  ?prune_support:float ->
  Im_costsvc.Service.t ->
  trigger:trigger ->
  live:Im_catalog.Config.t ->
  window:Im_workload.Workload.t ->
  budget_pages:int ->
  max_clusters:int ->
  outcome
(** Raises [Invalid_argument] on an empty window. The service is the
    warm cost cache carried across epochs; [e_opt_calls] is the per-run
    delta of its optimizer-call counter (advisor phases and window
    costings included).

    [?compress] streams the window through the {!Im_scale.Scale}
    compactor at deviation budget [EPS]: tuning and both window
    costings run over the compressed window, so
    [e_old_cost]/[e_new_cost] refer to it, within the bound in
    [e_scale]. Either way both costings go through the service.

    [?prune_support] re-mines the window's frequent itemsets each
    epoch — through the compactor at admission time when [?compress] is
    also on — and hands the frontier to the advisor, so a
    drift-triggered epoch prunes its merge enumeration against the
    {e current} window masses: a cheap candidate refresh instead of the
    full quadratic frontier. [S <= 0] is a no-op. *)

val summary : outcome -> string
