(** Multi-tenant TCP advisor daemon: a single dispatch thread on the
    [poll(2)] readiness layer ({!Im_evloop.Evloop}) exposing one
    {!Service} per tenant over a line protocol. Epoch re-merges run on
    a dedicated worker domain so a multi-hundred-millisecond tuning
    pass never stalls the other tenants' statements.

    Requests are newline-terminated; responses are one [OK ...] or
    [ERR ...] line, except [CONFIG]/[METRICS]/[TENANT LIST] whose
    [OK <n>] line is followed by [n] detail lines. Commands
    (case-insensitive verb):

    {v
    STMT <sql>             ingest one statement; OK observed ... | ERR <why>
    STATS                  OK k=v k=v ...       (tenant counters, one line)
    CONFIG                 OK <n> + n lines "<index> <pages>"
    EPOCH                  force a tuning epoch; OK epoch ... | ERR <why>
    METRICS                OK <n> + n lines from the process metrics
                           registry (stable [Im_obs.Metrics.dump] order)
    TENANT LIST            OK <n> + n lines
                           "<name> conns= statements= epochs= weight="
    TENANT CREATE <n> [db] create a tenant (session built by the factory)
    TENANT USE <n>         bind this connection to tenant <n>
    TENANT DROP <n>        evict tenant <n>; its connections are unbound
    QUIT                   OK bye, close this connection
    SHUTDOWN               OK shutting down, stop the whole daemon
    v}

    A verb shown without arguments answers [ERR usage: ...] when more
    text follows it and does nothing else: [SHUTDOWN now] does not stop
    the daemon.

    Every connection is bound to the default tenant on accept, so
    sessions that never issue a TENANT verb behave exactly like the
    single-tenant daemon. [STMT]/[STATS]/[CONFIG]/[EPOCH] dispatch
    through the connection's bound session; after its tenant is
    dropped they answer [ERR no tenant bound] until a [TENANT USE].

    Admission control: a global connection cap and a per-tenant cap
    (checked on accept against the default tenant and on [TENANT
    USE]); rejected connections get a best-effort [ERR too many
    connections] on a nonblocking fd. {!serve} raises the soft
    RLIMIT_NOFILE toward [max_connections] plus a fixed headroom; if
    [accept] still runs out of descriptors, the listener is not polled
    again until a connection closes, and the waiting connects stay in
    the kernel's backlog. Output is a per-connection
    byte-capped buffer, flushed with one [write(2)] of everything
    queued on a socket with [TCP_NODELAY] set — when a slow reader's
    buffer would exceed [max_output_bytes] the overflowing reply is
    dropped, the connection is marked closing (it drains what was
    queued, then closes) and [server_backpressure_closed_total] is
    counted.

    Fairness: all queued connects are accepted per loop round (not
    one), and dispatch budgets are per {e tenant}, not per connection
    — each session gets [128 x weight] commands per round (weights via
    [?weights], from 1 to {!max_weight}, default 1), shared round-robin
    across its connections, so one pipelining tenant cannot starve
    accepts or other tenants.
    Rounds with undispatched input re-poll with a zero timeout;
    budget-exhausted rounds count [server_fairness_deferred_total].
    Every [STMT] is fed on its own through {!Service.intake}.

    Epochs never run on the dispatch thread: a fired trigger or
    [EPOCH] verb snapshots the service ({!Service.begin_epoch}) and
    runs on the worker domain. The triggering connection waits for
    exactly that reply (the commands it pipelined behind the trigger
    stay queued until the epoch lands) while every other connection —
    same tenant included — keeps dispatching against the last
    committed configuration. A concurrent [EPOCH] on the same tenant
    queues behind the in-flight one. An epoch that raises answers
    [ERR epoch failed: ...] and leaves the tenant on its committed
    configuration; the daemon keeps serving. Offloads count in
    [server_epoch_offloaded_total]; [server_dispatch_stall_seconds] is
    the dispatch thread's cumulative time committing epoch results.

    Connections idle longer than [read_timeout] seconds are reaped
    (after a best-effort flush of queued replies; a connection with
    pending output on a still-writable socket is left to drain, and
    one owed an off-thread epoch reply is never reaped); a
    half-received line survives across reads. A peer that half-closes
    ([shutdown(SHUT_WR)]) after pipelining commands still receives
    every queued reply: EOF stops intake but the pending commands are
    answered and the output queue drains before the close. A peer that
    disconnects before reading its reply costs only that connection
    ([EPIPE]/[ECONNRESET] on write is counted in
    [server_write_errors_total], never raised out of the loop). A
    single line over 1 MB answers [ERR line too long] (counted in
    [server_overlong_lines_total]) and closes after the error drains.

    Per-tenant observability ([im_obs], labelled [{tenant="..."}]):
    [server_tenant_connections_live], [server_tenant_commands_total],
    [server_tenant_epochs_total]; process-wide:
    [server_backpressure_closed_total], [server_overlong_lines_total],
    [server_out_queue_max_bytes] (high-water), [server_writes_total]
    (write calls that moved reply bytes),
    [server_accept_burst_max], [server_tenants], plus the per-verb
    latency histograms and byte counters of the single-tenant daemon. *)

type t

val create :
  ?host:string ->
  ?port:int ->
  ?read_timeout:float ->
  ?max_connections:int ->
  ?max_tenant_connections:int ->
  ?max_output_bytes:int ->
  ?tenant:string ->
  ?tenants:(string * Service.t) list ->
  ?weights:(string * int) list ->
  ?factory:(string -> (Service.t, string) result) ->
  Service.t ->
  t
(** Binds and listens immediately. Defaults: host ["127.0.0.1"],
    [port = 0] (ephemeral — read the bound port back with {!port}),
    [read_timeout = 30.], [max_connections = 64],
    [max_tenant_connections = max_connections] (values [<= 0] mean the
    same), [max_output_bytes = 1_048_576], [tenant = "default"] (the
    name of the session owning the given service, bound to every new
    connection), [tenants = []] (extra pre-created sessions),
    [weights = []] (fairness weights by tenant name; missing or [< 1]
    means 1, above {!max_weight} raises [Invalid_argument]), [factory]
    answering [Error] (so [TENANT CREATE] is off unless one is provided — it receives the [db] spec, defaulting to
    the tenant name). Spawns the epoch worker domain. Tenant names are
    restricted to [[A-Za-z0-9_.-]{1,64}] because they become metric
    label values; invalid or duplicate names raise [Invalid_argument],
    as do [max_connections < 1], a [read_timeout] that is not finite
    and [> 0], and [max_output_bytes < 1] — all before any socket is
    opened. Raises [Unix_error] when binding fails. *)

val max_weight : int
(** The largest tenant weight, 1_000_000: a session's round budget of
    [128 x weight] commands must not overflow. *)

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
