(** Streaming frequent-itemset mining over the workload's physical-design
    signatures, and the merge-frontier pruning predicate built on it
    (Aouiche et al., "Frequent itemsets mining for database
    auto-administration" — the candidate space a workload can justify is
    the one it actually names).

    {1 The miner}

    Each statement contributes, per referenced table, one {e itemset}:
    the distinct set of columns the statement touches on that table —
    exactly the signature the tuning candidates and the merge unions are
    drawn from. Counting is Eclat-style and tid-less: itemsets are keyed
    by sorted column-set key, supports are accumulated incrementally as
    frequency mass (so [-- freq:] annotations and the decayed online
    window both weigh in), and a statement seen before is per-table
    hash hits — the memo is keyed by the canonical text the query
    carries ([q_canon]), never a rescan of the SQL.

    {1 The frontier}

    {!frontier} freezes the accumulated supports into a predicate at a
    relative support threshold [S]: a (table, column-set) is
    {e supported} when the mass of statements whose per-table footprint
    contains the set is at least [S ·] total mass (and nonzero). The
    merge searches consult it {e before} costing:

    - a same-table pair (or exhaustive partition block) is kept when its
      merged column set is supported — the workload co-accesses those
      columns often enough that the widened index can pay;
    - a pair (block) {e all} of whose parents are individually supported
      (or {!bless}ed merge products) is kept: merging hot indexes is the
      storage-vs-access-cost tradeoff the search's cost bound exists to
      arbitrate, so it stays costable even when no single statement
      covers the union;
    - {b correctness valve}: a pair (block) {e both} (all) of whose
      parents have zero workload support evidence is never pruned — the
      miner has nothing to say about indexes the workload never touched,
      so their cleanup merges stay available;
    - a merge of {e identical} column sets (merge products can
      duplicate an existing index) is always kept — it is free; a
      strict subset-absorbing merge (the union collapses into one
      parent's column set) is kept only when some member is supported:
      absorbing around a hot index is a pure storage win the cost bound
      re-checks, while cold indexes swallowing cold indexes is exactly
      the quadratic tail the workload cannot justify costing.

    Everything else is pruned without being costed. Support queries are
    memoized per (table, column-set); verdict sums run in sorted
    itemset order, so a frontier's answers depend only on the
    accumulated masses, not on hash or feed order. A frontier is a
    frozen snapshot: statements observed after {!frontier} do not move
    it. Neither {!t} nor a frontier is domain-safe — feed and consult
    them from the search's calling domain. *)

type t
(** A streaming miner. *)

val create : unit -> t

val observe : t -> ?freq:float -> Im_sqlir.Query.t -> unit
(** Stream one statement in ([freq] defaults to 1). A repeat of a
    canonically identical statement is one hash lookup on its
    [q_canon] (the {!Im_scale.Scale} compactor feeds bucket leaders
    this way at admission time). *)

val observe_workload : t -> Im_workload.Workload.t -> unit
(** {!observe} every entry, in order, with its frequency. *)

val statements : t -> int
val mass : t -> float
val itemsets : t -> int
(** Distinct (table, column-set) itemsets accumulated so far. *)

type frontier
(** A frozen support predicate (see above). *)

val frontier : t -> support:float -> frontier
(** Freeze the current supports at relative threshold [support]
    (clamped to [0]; at [0] any observed itemset is supported). Also
    publishes the [mine_itemsets] / [mine_supported_tables] gauges. *)

val support_of : frontier -> table:string -> string list -> float
(** Accumulated mass of statements whose footprint on [table] contains
    every listed column (order and duplicates ignored); memoized. *)

val supported : frontier -> table:string -> string list -> bool
(** [support_of >= threshold] and nonzero. *)

val bless : frontier -> Im_catalog.Index.t -> unit
(** Mark an {e accepted} merge product as justified: the index counts
    as supported (and as evidence) in later keep decisions, without
    distorting {!support_of}'s honest masses. The searches call this
    when they commit a merge, so chained merges in later rounds are
    judged against the configuration the search actually built — a
    kept-and-accepted merge carries its justification forward. *)

val evidence : frontier -> Im_catalog.Index.t -> bool
(** The workload touched this index's column set at all
    ([support_of > 0]), or the index was {!bless}ed. *)

val keep_pair : frontier -> Im_catalog.Index.t -> Im_catalog.Index.t -> bool
(** Pruning decision for one same-table merge pair (see the contract
    above). Increments [mine_kept_pairs_total] /
    [mine_pruned_pairs_total] and the frontier's own tallies. *)

val keep_block : frontier -> Im_catalog.Index.t list -> bool
(** {!keep_pair} generalized to an exhaustive partition block (merged
    column set = union over the block; the valve requires {e every}
    member to lack evidence). Blocks of fewer than two indexes are kept
    without counting. *)

val keep_index : frontier -> Im_catalog.Index.t -> bool
(** Candidate-selection variant: keep an index whose own column set is
    supported, or that the workload never touched at all (the valve
    degenerates to the single index). Does not touch the pair
    counters. *)

type stats = {
  fs_support : float;  (** the requested relative threshold *)
  fs_mass : float;  (** total mined mass behind the frontier *)
  fs_itemsets : int;  (** distinct (table, column-set) itemsets *)
  fs_supported_tables : int;
      (** tables with at least one supported itemset *)
  fs_kept : int;  (** pair/block decisions kept, this frontier *)
  fs_pruned : int;  (** pair/block decisions pruned, this frontier *)
}

val frontier_stats : frontier -> stats
