(** Process-wide metrics: counters, gauges and log2-bucketed latency
    histograms behind a named registry, timestamped with the monotonic
    clock shared with [Im_util.Stopwatch].

    Handles are resolved once ([counter]/[gauge]/[histogram] get or
    create by (name, sorted labels)) and updates are plain field
    writes, so instrumenting a hot path costs a few nanoseconds.
    Metric names and label keys are [[a-zA-Z0-9_:]+]; registering the
    same name with a different metric kind raises [Invalid_argument].

    Renderings: {!dump} (stable alphabetical lines, used by tests and
    the daemon's [METRICS] verb) and {!to_json} (for bench
    artifacts). *)

type labels = (string * string) list

module Counter : sig
  type t

  val incr : t -> unit
  val add : t -> int -> unit
  (** Raises [Invalid_argument] on a negative increment — counters are
      monotone; use a {!Gauge} for values that go down. *)

  val value : t -> int
end

module Gauge : sig
  type t

  val set : t -> float -> unit
  val set_int : t -> int -> unit
  val add : t -> float -> unit
  val value : t -> float
end

module Histogram : sig
  type t

  val observe : t -> float -> unit
  (** Record one observation in seconds. Negative and NaN observations
      are clamped to 0. Buckets are powers of two over nanoseconds:
      bucket [i] holds values in [[2{^i-1}, 2{^i}) ns], 64 buckets
      total (sub-nanosecond to overflow). *)

  val count : t -> int
  val sum : t -> float

  val percentile : t -> float -> float
  (** [percentile h p] ([0 <= p <= 1]) returns the upper bound of the
      bucket holding the p-quantile observation: deterministic, within
      a factor of 2 of the exact order statistic, monotone in [p].
      Returns [0.] when the histogram is empty. *)

  val bucket_upper : int -> float
  (** Inclusive upper bound of bucket [i] in seconds (exposed for
      tests). *)
end

type registry

val default : registry
(** The process-wide registry every built-in instrumentation point
    registers into. *)

val create_registry : unit -> registry
(** A private registry, for tests that need isolation. *)

val counter : ?registry:registry -> ?labels:labels -> string -> Counter.t
val gauge : ?registry:registry -> ?labels:labels -> string -> Gauge.t
val histogram : ?registry:registry -> ?labels:labels -> string -> Histogram.t

val remove_labelled : labels -> unit
(** Unregister every series labelled exactly so; a new one starts at zero. *)

val reset : ?registry:registry -> unit -> unit
(** Zero every metric in the registry, keeping all handles valid
    (instrumented modules hold handles from initialization time). *)

(** Labelled-span timer: [let s = Span.start h in ...; Span.stop s]
    records the elapsed monotonic seconds into [h] and returns it. *)
module Span : sig
  type t

  val start : Histogram.t -> t
  val stop : t -> float
end

val time : Histogram.t -> (unit -> 'a) -> 'a
(** [time h f] records [f ()]'s duration into [h] (also on exception)
    and returns its result. *)

val dump : ?registry:registry -> unit -> string
(** Stable rendering for tests and the [METRICS] verb: one
    ["name{k=\"v\"} value"] line per counter/gauge, five per histogram
    ([_count], [_p50], [_p95], [_p99], [_sum]), sorted alphabetically
    by (name, labels); identical registries render identically
    regardless of registration order. *)

val dump_lines : registry -> string list
(** {!dump} as a list of lines (no trailing newlines). *)

val to_json : ?registry:registry -> unit -> string
(** JSON array of [{name, kind, labels, value|count/sum/percentiles}]
    objects in {!dump} order, for embedding in bench artifacts. *)

val find_value : ?registry:registry -> ?labels:labels -> string -> float option
(** Current value of a counter or gauge, [None] if absent (or a
    histogram). Handy in tests and assertions. *)
