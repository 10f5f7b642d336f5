(** Pluggable socket-readiness layer for the serve daemon.

    Two level-triggered backends behind one interface:

    - [Epoll] — Linux [epoll(7)] via C stubs; no fd-count ceiling and
      O(ready) wake-ups. Interest-set changes are pushed to the kernel
      only when they actually change ([modify] is a no-op for an
      unchanged interest pair).
    - [Poll] — portable [poll(2)]; no FD_SETSIZE ceiling but O(fds)
      per wait. Used automatically where epoll is unavailable, and
      selectable on Linux so tests can exercise it.

    Both backends report a hung-up or errored fd as both readable and
    writable, so the caller's ordinary read/flush paths observe the
    EOF/EPIPE. *)

type backend = Auto | Epoll | Poll

val epoll_available : unit -> bool
(** True iff the epoll stubs are compiled in (Linux). *)

type t

val create : ?backend:backend -> unit -> t
(** [Auto] (the default) picks [Epoll] when available, else [Poll].
    Raises [Failure] if [Epoll] is requested on a non-Linux host. *)

val backend_name : t -> string
(** The resolved backend: ["epoll"] or ["poll"]. *)

val add : t -> Unix.file_descr -> read:bool -> write:bool -> unit
(** Registers [fd]. Raises [Invalid_argument] if already
    registered. *)

val modify : t -> Unix.file_descr -> read:bool -> write:bool -> unit
(** Updates interest; skips the syscall when the interest set is
    unchanged. Raises [Invalid_argument] if [fd] is not registered. *)

val remove : t -> Unix.file_descr -> unit
(** Deregisters [fd]. Must be called before [Unix.close fd]. Unknown
    fds are ignored (close paths may race with HUP cleanup). *)

val registered : t -> Unix.file_descr -> bool

type event = {
  ev_fd : Unix.file_descr;
  ev_read : bool;
  ev_write : bool;
}

val wait : t -> timeout_s:float -> event list
(** Blocks up to [timeout_s] (negative = forever, [0.] = poll) and
    returns fds ready among their registered interests. Level
    triggered: an fd stays ready until drained. Interrupted waits
    ([EINTR]) return [[]]. *)

val close : t -> unit
(** Releases backend resources (the epoll fd). Registered fds are not
    closed. *)

val fd_int : Unix.file_descr -> int
(** The raw fd number (identity on Unix). *)

val writable : Unix.file_descr -> bool
(** One-shot zero-timeout writability probe via [poll(2)] — valid for
    any fd number, unlike a single-fd [Unix.select]. [false] on
    error. *)

val raise_fd_limit : int -> int
(** [raise_fd_limit n] raises the soft RLIMIT_NOFILE toward [n]
    (clamped to the hard limit) and returns the soft limit now in
    effect. Never raises. *)
