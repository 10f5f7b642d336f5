(** Socket-readiness layer for the serve daemon.

    One level-triggered implementation over portable [poll(2)]: no
    FD_SETSIZE ceiling, O(registered fds) per wait, interest kept in
    swap-remove slot arrays so registration changes never rebuild
    them. A hung-up or errored fd is reported as both readable and
    writable, so the caller's ordinary read/flush paths observe the
    EOF/EPIPE. *)

type t

val create : unit -> t

val add : t -> Unix.file_descr -> read:bool -> write:bool -> unit
(** Registers [fd]. Raises [Invalid_argument] if already
    registered. *)

val modify : t -> Unix.file_descr -> read:bool -> write:bool -> unit
(** Updates interest. Raises [Invalid_argument] if [fd] is not
    registered. *)

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
