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

    Domain safety: one mutex guards the atom cache and its hit/miss
    counts (a daemon epoch on the worker domain shares a tenant's
    deriver with the dispatch thread). Misses are computed under it,
    so hit/miss totals equal a sequential run's. Atoms are pure in
    their key, so this one cache answers every caller exactly. *)

exception Mismatch of string
(** Raised in validation mode when a derived plan diverges from the
    full optimizer. Never raised outside validation mode. *)

type fallback = Order_sort
    (** Single-table ORDER BY without aggregation: sort placement
        re-examines the full candidate list against order-providing
        accesses, the designated fallback seam. *)

val fallback_to_string : fallback -> string

val classify : Im_sqlir.Query.t -> fallback option
(** The fallback class of the query, [None] when derivable. *)

type t

val create : ?validate:bool -> Im_catalog.Database.t -> t
(** [validate] defaults to the [IM_VALIDATE_DERIVE] environment
    variable. *)

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

val atom :
  t ->
  Im_sqlir.Query.t ->
  Im_optimizer.Access_path.input ->
  Im_catalog.Index.t ->
  Im_optimizer.Access_path.atom
(** {!Im_optimizer.Access_path.atom} of the index on one input of the
    query, through the cache. *)

val query_plan : t -> Im_catalog.Config.t -> Im_sqlir.Query.t -> Im_optimizer.Plan.t
(** [plan] without the provenance. *)

val query_cost :
  t -> Im_catalog.Config.t -> Im_sqlir.Query.t -> float * fallback option
(** The plan's cost plus how it was obtained. *)

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
(** Live cached units (atoms + heap baselines). *)

val validating : t -> bool
