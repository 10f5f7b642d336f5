(** The advisor daemon's line protocol without sockets: verb parsing,
    the tenant table and every reply's text. {!Server} hands each line
    it reads to {!step} and writes back the reply; a test can run
    {!step} over a command stream with no daemon at all.

    Requests are newline-terminated; replies are one [OK ...] or
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

    Every client starts bound to the default tenant. [STMT], [STATS],
    [CONFIG] and [EPOCH] act on the client's tenant; once it is
    dropped they answer [ERR no tenant bound] until a [TENANT USE].
    Tenant names are [[A-Za-z0-9_.-]{1,64}]: they are metric labels.

    Metrics: [server_tenants], [server_command_seconds{verb}],
    [server_dispatch_stall_seconds] (time committing epoch results)
    and, per [{tenant="..."}], [server_tenant_connections_live],
    [server_tenant_commands_total] and [server_tenant_epochs_total]. *)

type command =
  | Stmt of string  (** [STMT] with its SQL text *)
  | Epoch  (** [EPOCH] with no arguments *)
  | Other of {
      verb : string;  (** upper-cased *)
      rest : string;  (** the trimmed argument text *)
      histogram : Im_obs.Metrics.Histogram.t;  (** times this verb *)
    }  (** every other line, malformed STMT and EPOCH included *)

val parse_command : string -> command
(** Split one request line (line end excluded; surrounding blanks and
    a CRLF's ['\r'] are trimmed) into its verb once, when it arrives. *)

type session
(** One tenant: its {!Service.t} and per-tenant instruments. *)

val name : session -> string
val weight : session -> int

type state
(** The tenant table. *)

type client
(** One connection's binding to a tenant. *)

val max_weight : int
(** The largest tenant weight, 1_000_000: a session's dispatch budget
    of [128 x weight] commands per round must not overflow. *)

val create :
  max_tenant_connections:int ->
  factory:(string -> (Service.t, string) result) option ->
  (string * int * Service.t) list ->
  (state, string) result
(** Sessions for the [(name, weight, service)] tenants; the first is
    the default tenant. [Error] on an empty list, an invalid or
    duplicate name, or a weight above {!max_weight}; a weight [< 1]
    means 1. [factory] builds a [TENANT CREATE]'s service from its
    [db] spec (defaulting to the tenant name); without one, [TENANT
    CREATE] answers ERR. *)

val tenants : state -> string list
(** Live tenant names, sorted. *)

val connect : state -> client option
(** A new client bound to the default tenant (unbound if that tenant
    was dropped); [None] when the tenant already has
    [max_tenant_connections] clients. *)

val disconnect : client -> unit
(** Unbind a closing client. *)

val session : client -> session option
(** The client's tenant; [None] once that tenant is dropped. *)

val waits : client -> command -> bool
(** The command is an [EPOCH] and the client's tenant already has an
    epoch in flight: it must wait until that one is finished. *)

type action =
  | Continue
  | Close  (** close the connection once the reply drains *)
  | Stop  (** stop the daemon *)
  | Begin_epoch of session * [ `Stmt | `Forced ] * (unit -> Epoch.outcome)
      (** run the job off the dispatch thread, then answer with
          {!finish_epoch}; [`Stmt] when a statement fired it *)

val step : state -> client -> command -> string * action
(** Run one command: its reply (lines joined by ['\n'], no trailing
    newline; empty for [Begin_epoch]) and what the connection does
    next. *)

val finish_epoch :
  session -> [ `Stmt | `Forced ] -> (Epoch.outcome, exn) result -> string
(** Commit a finished epoch to its session (or abort a raised one,
    keeping the committed configuration) and render the reply owed to
    the command that began it. Call on the thread that calls {!step}. *)
