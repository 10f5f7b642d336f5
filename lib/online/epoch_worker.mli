(** A dedicated worker domain for off-thread epoch re-merges.

    Jobs are the thunks produced by {!Service.begin_epoch}: closed over
    an immutable snapshot, safe to run on any domain. Each job is
    submitted with a tag of the owner's choosing, and its completion
    carries that tag back (the daemon tags a job with the tenant, the
    connection owed the reply, and what asked for the epoch).
    Completions accumulate until the owner {!drain}s them (the daemon
    does so each event-loop wake-up), oldest first; jobs run one at a
    time in submission order. Every completion fires [wakeup] so a loop
    blocked in the readiness layer notices immediately — typically a
    nonblocking write to a self-pipe registered with the loop. *)

type 'a t

type 'a completion = {
  c_tag : 'a;  (** the tag the job was {!submit}ted with *)
  c_result : (Epoch.outcome, exn) result;
      (** [Error] carries an exception raised by the epoch; the
          submitting service must {!Service.abort_epoch}. *)
}

val create : wakeup:(unit -> unit) -> 'a t
(** Spawns the worker domain. [wakeup] runs on that domain
    after each completion; it must be domain-safe and non-blocking, and
    its exceptions are swallowed. *)

val submit : 'a t -> 'a -> (unit -> Epoch.outcome) -> unit
(** Enqueue a job under a tag; its completion carries the tag.
    Raises [Invalid_argument] after {!shutdown}. *)

val drain : 'a t -> 'a completion list
(** All completions since the last drain, oldest first. *)

val shutdown : 'a t -> unit
(** Stop accepting work, finish queued jobs, join the domain.
    Completions of those final jobs remain drainable. *)
