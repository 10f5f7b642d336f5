(** The cost-based query optimizer.

    [optimize db config q] plans [q] as if exactly the indexes in
    [config] existed — the configuration may contain *hypothetical*
    indexes that were never materialized, since planning consumes only
    statistics and the size model. This is the reproduction's analogue
    of the AutoAdmin what-if interface + Showplan (paper §3.5.3): the
    returned {!Plan.t} carries the estimated cost and the per-index
    seek/scan usages the merging algorithms need.

    An invocation counter mirrors the paper's accounting of "number of
    optimizer invocations" (§4.3.1B). *)

val optimize :
  Im_catalog.Database.t -> Im_catalog.Config.t -> Im_sqlir.Query.t -> Plan.t

type access_provider = {
  pa_best : Access_path.input -> Access_path.choice;
  pa_candidates : Access_path.input -> Access_path.choice list;
}
(** Where the planner gets access paths from — the only door through
    which the configuration enters planning. [direct_provider] answers
    from {!Access_path} as [optimize] always has; im_derive substitutes
    a provider assembling cached per-index atoms. *)

val direct_provider :
  Im_catalog.Database.t -> Im_catalog.Config.t -> access_provider

val plan_with :
  provider:access_provider ->
  Im_catalog.Database.t ->
  Im_sqlir.Query.t ->
  Plan.t
(** The planner core behind [optimize]: join enumeration, aggregation,
    sort placement — with a per-call memo so each (table, probe column)
    access path is costed once per optimization, not once per join step
    per permutation. Does {e not} bump {!invocations} or the per-kind
    metrics; [optimize] is [plan_with] over [direct_provider] plus the
    accounting. *)

val access_input : Im_sqlir.Query.t -> string -> Access_path.input
(** The (unparameterized) access-path input [optimize] builds for one
    table of the query. Exposed so cost derivation caches atoms for
    exactly the inputs planning will ask about. *)

val invocations : unit -> int
(** Optimizer calls since the last reset (process-wide). *)

val reset_invocations : unit -> unit

