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
    real optimizer runs. The provider serves both the per-table best
    and the full candidate list, so sort placement for a single-table
    ORDER BY derives exactly too: there is no fallback class, and
    outside validation mode no answer runs the optimizer (DESIGN.md
    §2f).

    Validation: with [~validate:true] (or [IM_VALIDATE_DERIVE] set
    non-empty, non-["0"], read at {!create}) every derived plan is
    cross-checked structurally against a full optimization and
    {!Mismatch} is raised on any divergence.

    Domain safety: one mutex guards the atom cache and its hit/miss
    counts (a daemon epoch on the worker domain shares a tenant's
    deriver with the dispatch thread). Misses are computed under it,
    so hit/miss totals equal a sequential run's. Atoms are pure in
    their key, so this one cache answers every caller exactly, and
    bounding it ({!capacity}) changes counts, never answers. *)

exception Mismatch of string
(** Raised in validation mode when a derived plan diverges from the
    full optimizer. Never raised outside validation mode. *)

type t

val create : ?validate:bool -> Im_catalog.Database.t -> t
(** [validate] defaults to the [IM_VALIDATE_DERIVE] environment
    variable. *)

val plan : t -> Im_catalog.Config.t -> Im_sqlir.Query.t -> Im_optimizer.Plan.t
(** The query's plan under the configuration, assembled from cached
    atoms by {!Im_optimizer.Optimizer.plan_with}. Bit-identical to
    [Im_optimizer.Optimizer.optimize]. *)

val atom :
  t ->
  Im_sqlir.Query.t ->
  Im_optimizer.Access_path.input ->
  Im_catalog.Index.t ->
  Im_optimizer.Access_path.atom
(** {!Im_optimizer.Access_path.atom} of the index on one input of the
    query, through the cache. *)

val query_cost : t -> Im_catalog.Config.t -> Im_sqlir.Query.t -> float
(** The cost of {!plan}. *)

val derived : t -> int
(** Plans answered (each without an optimizer invocation). *)

val validations : t -> int
(** Cross-checks performed (validation mode only). *)

val atom_hits : t -> int
val atom_misses : t -> int

val capacity : int
(** Entries each of the atom and heap tables holds before an insertion
    clears it. A loaded database never changes and an atom is pure in
    its key, so no atom goes stale and a clear only costs
    recomputation. *)

val atom_entries : t -> int
(** Cached units (atoms + heap baselines) of this deriver: at most
    [2 * capacity]. *)

val validating : t -> bool
