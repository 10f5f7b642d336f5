(** A dedicated worker domain for off-thread epoch re-merges.

    Jobs are the thunks produced by {!Service.begin_epoch}: closed over
    an immutable snapshot, safe to run on any domain. Completions
    accumulate until the owner {!drain}s them (the daemon does so each
    event-loop wake-up), oldest first; jobs run one at a time in
    submission order. Every completion fires [wakeup] so a loop
    blocked in the readiness layer notices immediately — typically a
    nonblocking write to a self-pipe registered with the loop. *)

type t

type completion = {
  c_id : int;  (** the {!submit} ticket this result answers *)
  c_result : (Epoch.outcome, exn) result;
      (** [Error] carries an exception raised by the epoch; the
          submitting service must {!Service.abort_epoch}. *)
}

val create : wakeup:(unit -> unit) -> t
(** Spawns the worker domain. [wakeup] runs on that domain
    after each completion; it must be domain-safe and non-blocking, and
    its exceptions are swallowed. *)

val submit : t -> (unit -> Epoch.outcome) -> int
(** Enqueue a job; returns the ticket its completion will carry.
    Raises [Invalid_argument] after {!shutdown}. *)

val drain : t -> completion list
(** All completions since the last drain, oldest first. *)

val shutdown : t -> unit
(** Stop accepting work, finish queued jobs, join the domain.
    Completions of those final jobs remain drainable. *)
