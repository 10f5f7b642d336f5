(** Atomic access-path cost derivation — what-if answers without
    running the optimizer.

    CoPhy's observation (Dash, Polyzotis & Ailamaki, 2011), transplanted
    to this optimizer: the configuration enters planning only through
    per-table access-path choices, and each index's contribution to the
    candidate list ({!Im_optimizer.Access_path.atom}) is pure in
    (database, query, table, probe column, index) — independent of the
    rest of the configuration. So [Cost (q, C)] for a {e new}
    configuration needs no optimizer call: fetch the per-index atoms
    from the cache (computing only the never-seen ones), re-assemble
    the candidate lists, and re-run the cheap join-assembly arithmetic
    through the shared planner core
    ({!Im_optimizer.Optimizer.plan_with}).

    {b Exactness is bit-level}, not approximate: assembly reproduces
    the direct candidate list including order (first-minimum
    tie-breaking), and the planner core is literally the same code the
    real optimizer runs. Queries in the fallback taxonomy (currently:
    single-table ORDER BY without aggregation, where order-providing
    accesses interact with sort placement — DESIGN.md §2f) are routed
    to the full optimizer instead, so every answer is exact either way.

    Validation: with [~validate:true] (or [IM_VALIDATE_DERIVE] set
    non-empty, non-["0"], read at {!create}) every derived plan is
    cross-checked structurally against a full optimization and
    {!Mismatch} is raised on any divergence.

    Domain safety: the atom cache is lock-striped like the costsvc LRU
    ([?shards] power-of-two stripes, state only touched under the
    stripe lock, misses computed under it so hit/miss totals equal a
    sequential run's). *)

exception Mismatch of string
(** Raised in validation mode when a derived plan diverges from the
    full optimizer. Never raised outside validation mode. *)

type fallback = Order_sort
    (** Single-table ORDER BY without aggregation: sort placement
        re-examines the full candidate list against order-providing
        accesses, the designated fallback seam. *)

val fallback_to_string : fallback -> string

type t

val create : ?shards:int -> ?validate:bool -> Im_catalog.Database.t -> t
(** [shards] (default 1, rounded to a power of two, capped at 256)
    lock-stripes the atom cache for concurrent callers. [validate]
    defaults to the [IM_VALIDATE_DERIVE] environment variable. Raises
    [Invalid_argument] if [shards < 1]. *)

val database : t -> Im_catalog.Database.t

type answer = {
  a_plan : Im_optimizer.Plan.t;
  a_fallback : fallback option;  (** [None] when derived from atoms *)
}

val plan : t -> Im_catalog.Config.t -> Im_sqlir.Query.t -> answer
(** The query's plan under the configuration — assembled from cached
    atoms when derivable, from a full optimization otherwise (and the
    answer says which). Bit-identical to
    [Im_optimizer.Optimizer.optimize] in both cases. *)

val query_plan : t -> Im_catalog.Config.t -> Im_sqlir.Query.t -> Im_optimizer.Plan.t
(** [plan] without the provenance. *)

val query_cost :
  t -> Im_catalog.Config.t -> Im_sqlir.Query.t -> float * fallback option
(** The plan's cost plus how it was obtained. *)

(** Batched recombination: pin one query, answer its cost under many
    configurations in one traversal of the atom cache. The first
    costing pulls the query's heap baselines and per-index atoms
    through the striped cache into a private memo; each further
    configuration re-assembles candidate lists from the memo and
    re-runs only the planner arithmetic. Answers are bit-identical to
    {!plan}/{!query_cost} (fallback shapes still run the full
    optimizer per configuration), and the derived/fallback counters
    advance identically; only atom hit/miss counters differ, since
    repeats hit the private memo.

    A batch is domain-safe: the memo is guarded by a per-batch mutex
    held across the miss path, so concurrent costings on one batch
    serialize per memo access, the striped cache is consulted exactly
    once per key, and the deriver's atom hit/miss counters equal a
    sequential run's. *)
module Batch : sig
  type deriver := t

  type t

  val create : deriver -> Im_sqlir.Query.t -> t

  val query : t -> Im_sqlir.Query.t

  val is_fallback : t -> bool
  (** The pinned query is in the fallback taxonomy: every [cost] runs
      the full optimizer. *)

  val cost : t -> Im_catalog.Config.t -> float
  (** [Plan.cost] of the pinned query's plan under the configuration —
      bit-identical to {!query_cost}. *)
end

val invalidate_table : t -> string -> int
(** Drop every atom of the table (after data/statistics changes).
    Returns the number of cache entries dropped. *)

val invalidate_index : t -> Im_catalog.Index.t -> int
(** Drop every atom of the index definition. *)

val clear : t -> unit

val derived : t -> int
(** Answers assembled from atoms (no optimizer invocation). *)

val fallbacks : t -> int
(** Answers routed to the full optimizer. *)

val validations : t -> int
(** Cross-checks performed (validation mode only). *)

val atom_hits : t -> int
val atom_misses : t -> int

val atom_entries : t -> int
(** Live cached units (atoms + heap baselines) across all stripes. *)

val validating : t -> bool
