(** Multi-tenant TCP advisor daemon: one dispatch thread on the
    [poll(2)] readiness layer ({!Im_evloop.Evloop}) serving
    {!Protocol}'s line protocol. This module owns the sockets, the byte
    buffers and the dispatch rounds; every command goes through
    {!Protocol.step}, and epochs run on one worker domain
    ({!Epoch_worker}), never on the dispatch thread.

    - Admission: a global and a per-tenant connection cap; a rejected
      connect gets a best-effort [ERR too many connections] on a
      nonblocking fd. {!serve} raises the soft RLIMIT_NOFILE toward
      [max_connections] plus a headroom; when [accept] still runs out
      of descriptors, the listener rests until a connection closes.
    - Output: one byte buffer per connection, flushed with one
      [write(2)] of everything queued ([TCP_NODELAY] set). A reply
      that would push it past [max_output_bytes] is dropped and the
      connection closes once the rest drains
      ([server_backpressure_closed_total]).
    - Fairness: every queued connect is accepted per round, and each
      tenant gets [128 x weight] commands per round, shared
      round-robin across its connections
      ([server_fairness_deferred_total] counts budget-exhausted
      rounds).
    - Epochs: the connection that fired or forced one waits for
      exactly its reply, the lines it pipelined behind staying queued,
      while every other connection keeps dispatching; an [EPOCH] on a
      tenant whose epoch is in flight waits for it
      ([server_epoch_offloaded_total]).
    - Lifecycle: connections idle past [read_timeout] are reaped after
      a last flush, unless owed an epoch reply; a half-closed peer
      still gets every reply to what it sent; a peer gone mid-reply
      costs only its connection ([server_write_errors_total]); a line
      over 1 MB, newline-terminated or not, answers [ERR line too
      long] and closes ([server_overlong_lines_total]).

    Other metrics: [server_commands_total], [server_connections_live],
    [server_connections_rejected_total], [server_connections_reaped_total],
    the byte counters, [server_writes_total] (writes that moved reply
    bytes), [server_out_queue_max_bytes], [server_accept_burst_max]. *)

type t

val create :
  ?host:string ->
  ?port:int ->
  ?read_timeout:float ->
  ?max_connections:int ->
  ?max_tenant_connections:int ->
  ?max_output_bytes:int ->
  ?factory:(string -> (Service.t, string) result) ->
  (string * int * Service.t) list ->
  t
(** Binds, listens and spawns the epoch worker domain. The tenants
    and [factory] are {!Protocol.create}'s. Defaults: host
    ["127.0.0.1"], [port = 0] (ephemeral: see {!port}),
    [read_timeout = 30.], [max_connections = 64],
    [max_tenant_connections = max_connections] (also for values
    [<= 0]), [max_output_bytes = 1_048_576], no [factory]. Raises
    [Invalid_argument], before opening any socket, on a tenant list
    {!Protocol.create} rejects, [max_connections < 1], a
    [read_timeout] that is not finite and [> 0], or [max_output_bytes
    < 1]; [Unix_error] when binding fails. *)

val port : t -> int
(** The actually bound port (useful with [port = 0]). *)

val serve : t -> unit
(** Run the event loop until a client issues [SHUTDOWN] or {!shutdown}
    is called from a signal handler. Closes all sockets before
    returning. *)

val shutdown : t -> unit
(** Request a graceful stop; safe to call from a signal handler. *)

val tenants : t -> string list
(** Live tenant names, sorted. *)

val connections_served : t -> int
val commands_served : t -> int
