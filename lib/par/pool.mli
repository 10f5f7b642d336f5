(** What is left of the domain pool: the names the benchmark harness
    still uses. No library or CLI code fans out on a pool — merge
    search, workload costing, selection and [tune] run sequentially,
    because their per-candidate work is microseconds and queue
    round-trips cost more than they save (DESIGN.md §2e) — so {!default}
    spawns nothing. *)

type t

val default : unit -> t
(** A token for [Im_online.Service.create ?pool], where it has no
    effect. Spawns no domain. *)

val default_domains : unit -> int
(** [IM_DOMAINS] from the environment if it parses as a non-negative
    integer, otherwise [Domain.recommended_domain_count () - 1]: the
    pool size this host would have used, reported in benchmark context
    lines. *)
