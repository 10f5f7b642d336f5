(** Cost evaluation — the three alternatives of the paper's §3.5, as a
    thin model-selection façade over the unified
    {!Im_costsvc.Service} what-if service.

    - {b No-Cost model} (§3.5.1): no cost numbers at all; a merge is
      acceptable iff the merged index's width stays within [f] of the
      base relation's width and within [1 + p] of each immediate
      parent's width (defaults f = 60 %, p = 25 %, the values §4.3.1
      found best).
    - {b External cost model} (§3.5.2): a deliberately coarse analytic
      model, independent of the optimizer — covering-index/scan page
      counts with first-order seek shortcuts, no join planning. Cheap,
      and exactly as fragile as the paper warns. Evaluations are
      counted at the service choke point but bypass the what-if cache.
    - {b Optimizer-estimated cost} (§3.5.3): what-if optimization of
      every query under the candidate configuration, memoized by the
      service under [(query id, relevant index ids)] — only "relevant
      queries" are re-optimized, as the paper prescribes. *)

type model =
  | No_cost of { f : float; p : float }
  | External
  | Optimizer_estimated

val default_no_cost : model
(** [No_cost { f = 0.60; p = 0.25 }]. *)

type t

val default_service : Im_catalog.Database.t -> Im_costsvc.Service.t
(** The cost service a run builds when the caller supplies none: atomic
    cost derivation on (misses are answered from cached access-path
    atoms, bit-identical to the optimizer), maintenance priced by
    {!Maintenance.config_batch_cost}. The merge search, the advisor's
    phases and the online service all default to it. *)

val create :
  ?service:Im_costsvc.Service.t ->
  model ->
  Im_catalog.Database.t ->
  Im_workload.Workload.t ->
  t
(** [create ?service model db workload]. When [service] is given, its
    cache and counters are shared with every other user of that service
    (cross-strategy and cross-phase reuse); otherwise a private
    {!default_service} is created. *)

val model : t -> model

val service : t -> Im_costsvc.Service.t
(** The underlying cost service (for counter deltas and sharing). *)

val is_numeric : t -> bool
(** False only for the No-Cost model. *)

val workload_cost : t -> Im_catalog.Config.t -> float
(** [Cost (W, C)] under a numeric model: frequency-weighted query costs
    plus, when the workload carries an update profile
    ({!Im_workload.Workload.with_updates}), the configuration's
    batch-insert maintenance cost. Raises [Invalid_argument] for the
    No-Cost model, which produces no numbers. *)

val accepts :
  t ->
  items:Merge.item list ->
  merged:Im_catalog.Index.t ->
  parents:Im_catalog.Index.t * Im_catalog.Index.t ->
  bound:float ->
  bool
(** Acceptance test for replacing [fst parents] and [snd parents] by
    [merged], yielding configuration [items]. Numeric models compare
    [workload_cost] against [bound]; the No-Cost model applies its width
    thresholds to [merged] against the two parents (and ignores
    [bound]). *)

val accepts_item : t -> Merge.item -> bool
(** Per-item acceptance used by the exhaustive search, where merged
    indexes may have more than two parents: under the No-Cost model the
    same width thresholds as {!accepts} are checked against the table
    and against {e every} parent; numeric models always accept (they
    judge whole configurations via {!workload_cost}). *)

val evaluations : t -> int
(** Workload-cost evaluations through the service (cache hits
    included). Cumulative over the service — use counter deltas when the
    service is shared. *)

val optimizer_calls : t -> int
(** What-if optimizer invocations that actually ran (service cache
    misses). Cumulative over the service. *)
