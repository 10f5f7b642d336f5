(** Per-epoch tuning budget with benefit-driven reallocation.

    Wii-style (dynamic budget reallocation in index tuning): instead of
    spending a fixed optimizer-invocation budget every epoch, the
    allocation adapts to the realized benefit of the previous epoch. The
    budget is denominated in {e workload clusters re-tuned per epoch} —
    what-if optimizer invocations scale linearly with the clusters
    handed to the advisor, so capping clusters caps invocations.

    Rule: an epoch that realized relative benefit ≥ 5 % doubles the
    next allocation (drift is paying off — look wider); one that
    realized < 1 % halves it (the configuration is already good — stop
    burning optimizer calls); anything between keeps the allocation.
    The allocation starts at 16 clusters and is always clamped to
    [[4, 64]]. *)

type t

val create : unit -> t

val current : t -> int
(** Clusters the next epoch may re-tune. *)

val record : t -> benefit:float -> unit
(** Report the just-finished epoch's realized relative benefit
    ([(old - new) / old] window cost) and reallocate. *)

val epochs : t -> int
(** Epochs recorded. *)
