(** The memoizing what-if cost service — the single costing choke point.

    Every [Cost (W, C)] evaluation in the system (offline merging
    search, index selection, the dual-phase advisor, and the online
    epoch runner) flows through one instance of this service. Per-query
    what-if optimizer costs are memoized under the key

    {[ (q.q_canon, sorted idx_id of the indexes of C on q's tables) ]}

    — the paper's "only relevant queries need re-optimization" rule
    (merging indexes of other tables leaves the key untouched), with
    CoPhy-style atomic-unit sharing: any caller costing the same query
    under the same relevant sub-configuration hits the same entry,
    whether it is the greedy search, the exhaustive search, the
    selection phase, or a later tuning epoch.

    Both halves are identities the values carry from construction —
    the query's canonical text ({!Im_sqlir.Query.make}) and the
    indexes' ids ({!Im_catalog.Index.make}) — so building a key
    re-derives nothing, and two statements with different [q_id] but
    identical text share entries. Index ids, never concatenated name
    strings, so adversarial column names (containing [","] or [";"])
    cannot alias two distinct configurations.

    The cache is a hash table bounded the way
    {!Im_sqlir.Parser.Prepared} is: an insertion that finds it at
    capacity first clears it. A hit only bumps counters; it keeps no
    recency. A loaded database never changes and a cost is pure in its
    key, so no cached cost goes stale and a clear only costs
    recomputation: every answer is the same whichever entries survive.
    Counters (hits, misses, evictions, optimizer calls, workload
    evaluations) are cumulative per service and reported by the CLI
    [merge] report and the daemon's STATS line; they depend on when the
    clears fall, so on the order of the lookups.

    Domain safety: one mutex guards the cache and the counters, so a
    daemon epoch on the worker domain can share a tenant's service with
    the dispatch thread. The what-if resolution on a miss runs under
    that lock: concurrent misses on one key serialize and the loser
    scores a hit, which keeps hit/miss/optimizer-call totals exactly
    equal to a sequential run and never duplicates what-if work. *)

type t

type counters = {
  c_cost_evals : int;  (** workload-level evaluations *)
  c_query_costs : int;  (** per-query costings: [c_hits + c_misses] *)
  c_opt_calls : int;  (** what-if resolutions: one per miss *)
  c_hits : int;
  c_misses : int;  (** always [c_opt_calls] *)
  c_evictions : int;
      (** entries dropped by the clears of a full cache *)
  c_derived : int;
      (** misses answered from cached atoms (no optimizer): all of them
          on a deriving service, none otherwise *)
  c_fallbacks : int;
      (** always 0: every miss of a deriving service is derived. Kept
          only because perfbench's [advise] and [log_merge] workloads
          read it; it goes at the next perfbench change. *)
}

val create :
  ?capacity:int ->
  ?update_cost:(Im_catalog.Config.t -> inserts:(string * int) list -> float) ->
  ?derive:bool ->
  Im_catalog.Database.t ->
  t
(** [capacity] (default 8192) bounds live entries: an insertion that
    finds [capacity] of them clears the cache first, so a stream cannot
    leak. [update_cost] prices index maintenance for workloads
    carrying an update profile (pass
    [Im_merging.Maintenance.config_batch_cost db]); omitting it makes
    {!workload_cost} raise on such workloads rather than silently
    under-charge. [derive] (default false) attaches an
    {!Im_derive.Derive} atom cache that answers cache misses by
    re-assembling cached per-index access-path atoms instead of running
    the optimizer — bit-identical costs, counted in [c_derived];
    [c_opt_calls] keeps meaning "misses resolved". Raises
    [Invalid_argument] if [capacity < 1]. *)

val database : t -> Im_catalog.Database.t

val query_cost : t -> Im_catalog.Config.t -> Im_sqlir.Query.t -> float
(** Memoized what-if optimizer cost of the query under the
    configuration restricted to the query's tables. *)

val workload_cost :
  ?query_cost:(Im_catalog.Config.t -> Im_sqlir.Query.t -> float) ->
  t ->
  Im_catalog.Config.t ->
  Im_workload.Workload.t ->
  float
(** Frequency-weighted per-query costs plus maintenance when the
    workload carries updates. [?query_cost] substitutes an external
    (non-optimizer) per-query model while still counting the evaluation
    at the one choke point; such costs bypass the cache (they are cheap
    and would pollute what-if entries). Queries are costed in entry
    order on the calling domain. *)

val workload_cost_by_entry :
  t -> Im_catalog.Config.t -> Im_workload.Workload.t -> (int -> float) -> float
(** [workload_cost_by_entry t config w cost] is {!workload_cost} with
    the [i]-th entry's per-query cost supplied as [cost i] — for callers
    that keep per-query costs of [config] themselves (incremental index
    selection). Same fold, same maintenance term, counted as one
    workload evaluation. *)

val query_plan :
  t -> Im_catalog.Config.t -> Im_sqlir.Query.t -> Im_optimizer.Plan.t
(** The query's full plan (for seek/scan usage analysis) — derived from
    cached atoms when the service was created with [~derive:true], a
    real optimization otherwise. Bit-identical either way. Plans are
    not cached and this touches no hit/miss counters. *)

val deriver : t -> Im_derive.Derive.t option
(** The attached atom cache, when [~derive:true]. *)

val counters : t -> counters

val cost_evals : t -> int
val opt_calls : t -> int
(** What-if resolutions: the cache misses. *)

val hits : t -> int
val evictions : t -> int

val size : t -> int
(** Live entries (for memory-cap assertions). *)
