(** A fixed-size pool of OCaml 5 domains behind a shared work queue.
    No library or CLI code fans out on it any more: the merge
    searches, workload costing, selection and [tune] run sequentially,
    because their per-candidate work is microseconds and queue
    round-trips cost more than they save (DESIGN.md §2e). It remains
    for the benchmark harness, which still passes {!default} to
    [Im_online.Service.create ?pool] (where it has no effect).

    The pool holds [domains] worker domains (0 = no workers: every
    operation degrades to its sequential equivalent on the calling
    domain, with no queue or lock traffic). Work is submitted in
    batches by {!parallel_map}; the submitting domain {e helps}: while
    its batch is outstanding it pops and runs queued tasks instead of
    blocking, so nested parallel calls cannot deadlock and the
    caller's core is never idle.

    Determinism: {!parallel_map} returns results in input order, and a
    task is pure modulo domain-safe caches (the cost service, index
    ids) — so callers that fix their own combination order get
    bit-identical results at any pool size.

    Metrics ([im_obs], process-wide across all pools):
    [par_tasks_total], [par_queue_depth] (gauge), [par_task_seconds]
    (latency histogram). *)

type t

val create : ?domains:int -> unit -> t
(** [create ?domains ()] spawns a pool of [domains] workers (clamped
    to [0, 64]). Default: {!default_domains}[ ()]. *)

val default_domains : unit -> int
(** The pool size used when [?domains] is omitted: [IM_DOMAINS] from
    the environment if it parses as a non-negative integer, otherwise
    [Domain.recommended_domain_count () - 1] (the calling domain
    counts as one worker's worth of help). *)

val set_default_domains : int -> unit
(** Override the size of the shared default pool. If the default pool already exists at another
    size it is shut down and recreated lazily at the new size. *)

val default : unit -> t
(** The process-wide shared pool, created lazily at
    {!default_domains} (or {!set_default_domains}) size and shut down
    at exit. Nothing in the library or the CLI calls it; the [serve]
    daemon no longer creates it. *)

val domain_count : t -> int
(** Number of worker domains (0 = sequential fallback). *)

val parallel_map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [parallel_map t f xs] maps [f] over [xs] with one task per
    element, returning results in input order. With no workers (or a
    singleton list) it is [List.map]. If any task raises, the first
    exception (in task-completion order) is re-raised on the caller
    after every task of the batch has settled.

    Raises [Invalid_argument] after {!shutdown}. *)

val shutdown : t -> unit
(** Drain queued tasks, stop and join every worker. Idempotent; after
    it returns, submitting work raises [Invalid_argument]. *)
