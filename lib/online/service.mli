(** The online index-tuning service: the observe → summarize → re-tune →
    apply loop, independent of any transport.

    Statements are parsed one at a time into the sliding {!Window}.
    Every [check_every] statements the service consults the {!Drift}
    detector; before any baseline exists it instead runs a {e bootstrap}
    epoch as soon as the window holds [warmup] statements. A fired check
    (or an explicit {!force_epoch}) runs an {!Epoch} under the current
    {!Budget} allocation, installs the new configuration, records the
    realized benefit for Wii-style budget reallocation, and rebases the
    drift detector on the window just tuned for.

    All cost evaluation flows through one {!Im_costsvc.Service} that
    lives as long as the service — the warm what-if cache carried
    across epochs. *)

type options = {
  o_budget_pages : int;  (** storage budget for every epoch's advisor run *)
  o_capacity : int;  (** window cluster capacity *)
  o_decay : float;  (** per-statement frequency decay *)
  o_div_threshold : float;  (** drift: total-variation trigger *)
  o_cost_threshold : float;  (** drift: relative cost-regression trigger *)
  o_check_every : int;  (** statements between drift checks *)
  o_warmup : int;  (** statements before the bootstrap epoch *)
  o_compress : float option;
      (** when set, every epoch compresses its window snapshot through
          the {!Im_scale.Scale} compactor at this deviation budget
          before tuning ([--compress EPS] on [serve]) *)
  o_prune_support : float option;
      (** when set (> 0), every epoch re-mines its window's frequent
          itemsets and prunes the advisor's merge enumeration at this
          relative support ([--prune-support S] on [serve]) *)
}

val default_options : budget_pages:int -> options
(** Capacity 48, decay 0.995, divergence 0.35, cost regression 0.30,
    check every 32, warmup 24, compression and frontier pruning off.
    The window's clustering distance ({!Window.threshold}, which drift
    projection shares) and the epoch cluster budget ({!Budget}: 4..64
    starting at 16) are constants, not options. *)

type t

val create :
  ?options:options ->
  ?pool:Im_par.Pool.t ->
  ?initial:Im_catalog.Config.t ->
  Im_catalog.Database.t ->
  budget_pages:int ->
  t
(** [?initial] (default empty) is the configuration live before the
    first epoch. [?options] overrides [default_options]; its
    [o_budget_pages] wins over the [~budget_pages] argument when
    given. [?pool] has no effect and is accepted only for existing
    callers; it goes away with [Im_par]. The epoch-warm what-if cache
    is a {!Im_merging.Cost_eval.default_service}: drift checks and
    tuning epochs answer misses from cached access-path atoms, and its
    one lock lets an epoch on the worker domain share it with the
    dispatch thread. Raises
    [Invalid_argument] when the options' window parameters
    ({!Window.create}) or drift thresholds ({!Drift.create}) are out of
    range, or [o_check_every < 1]. *)

type event =
  | Rejected of string  (** statement did not parse / validate *)
  | Observed of {
      ev_drift : Drift.verdict option;  (** when a check ran *)
      ev_epoch : Epoch.outcome option;
          (** when an epoch ran ({!feed} only) *)
    }

val intake : t -> string -> event * Epoch.trigger option
(** Ingest one SQL statement (text, trailing [';'] allowed): parse it
    under the next statement id ([S<n>]) through the service's own
    {!Im_sqlir.Parser.Prepared} cache, observe it in the window and
    run the drift decision, timed into the intake seconds. The event
    never carries [ev_epoch]: a fired trigger comes back instead, for
    the caller to run ({!begin_epoch} + run + {!commit_epoch}). While
    that epoch is in flight, further intake observes without
    triggering. *)

val feed : t -> string -> event
(** {!intake}, then a fired trigger's epoch runs right here in process
    and lands in [ev_epoch]. An epoch that raises is aborted (the
    committed state is kept) and the exception propagates. *)

val force_epoch : t -> (Epoch.outcome, string) result
(** Run an epoch now, in process; [Error] on an empty window. *)

(** {2 Off-thread epochs}

    The daemon's tuning path. [begin_*] marks the service {e in
    flight} and returns a thunk closed over a snapshot of everything
    the epoch reads (committed config, immutable window workload,
    cluster budget); the thunk is safe to run on a worker domain while
    the dispatch thread keeps feeding this service through {!intake}.
    While in flight, drift checks and further triggers are suppressed
    and [config]/[stats] answer from the last committed state.
    [commit_epoch]/[abort_epoch] must be called from the dispatch
    thread. *)

val epoch_in_flight : t -> bool

val begin_epoch : t -> Epoch.trigger -> unit -> Epoch.outcome
(** Raises [Invalid_argument] if an epoch is already in flight. *)

val begin_forced_epoch : t -> (unit -> Epoch.outcome, string) result
(** [begin_epoch t Forced]; [Error] on an empty window. *)

val commit_epoch : t -> Epoch.outcome -> unit
(** Install a completed epoch: set the live config, record the realized
    benefit for budget reallocation, rebase drift on the current
    window, clear the in-flight mark. *)

val abort_epoch : t -> unit
(** Clear the in-flight mark after a failed epoch, leaving the
    committed state untouched. *)

val feed_batch_async :
  t -> string list -> event list * Epoch.trigger option * string list
(** {!intake} over a list, stopping at the first statement that fires
    a trigger: the events of the statements before it, the trigger,
    and the statements after it unread. Kept only for the serve
    workload of the repository benchmark, which calls it with one
    statement; it goes away once that calls {!intake}. *)

val config : t -> Im_catalog.Config.t
val config_pages : t -> int
val database : t -> Im_catalog.Database.t
val window : t -> Window.t
val epochs : t -> Epoch.outcome list
(** Most recent first. *)

val statements : t -> int
val rejected : t -> int

val stats : t -> (string * string) list
(** Ordered counter/latency metrics: statements, parse rejects, window
    occupancy and mass, drift checks/fires, epochs by trigger, the cost
    service's unified counters ([cost_evals], [opt_calls],
    [cache_hits], [cache_misses], [cache_evictions], [cache_entries]),
    configuration size/pages, intake latency (epochs excluded). With [o_compress] set the
    list also carries the most recent epoch's compactor figures
    ([scale buckets], [scale fold ratio], [scale bound eps]; ["-"]
    until a compressed epoch has run). *)

val render_stats : t -> string
(** {!stats} as an aligned two-column ASCII table. *)
