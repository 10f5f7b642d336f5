(** Sliding workload window for streaming intake.

    Arriving statements are leader-clustered online by their
    physical-design signature ({!Im_workload.Compress}): a statement
    whose signature lies within {!threshold} of an existing cluster
    leader adds its mass there, otherwise it founds a new cluster.
    Before each arrival every cluster's frequency is multiplied by
    [decay], so the window is an exponentially-weighted sliding window
    over the stream: total mass converges to [1 / (1 - decay)] and old
    traffic fades instead of accumulating. The cluster count is capped
    at [capacity]; when a new leader would exceed it, the
    lightest cluster is evicted. Memory is therefore O(capacity)
    regardless of stream length. *)

type cluster = {
  cl_query : Im_sqlir.Query.t;  (** the leader — first query of the cluster *)
  cl_signature : Im_workload.Compress.signature;
      (** the leader's signature, computed once when the cluster was
          founded *)
  cl_freq : float;  (** decayed mass *)
  cl_hits : int;  (** statements absorbed, undecayed *)
}

type t

val threshold : float
(** Leader-clustering distance, 0.25: looser than the batch compactor's
    exact signature keys because a stream repeats near-identical shapes
    with varying constants and column subsets. {!Drift} projects onto
    its baseline buckets at the same distance. A statement founds a
    slot only when it lies farther than [threshold] from every live
    slot, so live slots carry pairwise distinct signatures. *)

val create : ?capacity:int -> ?decay:float -> unit -> t
(** Defaults: [capacity = 48] clusters, [decay = 0.995] (half-life of
    ~139 statements). Raises [Invalid_argument] if [capacity < 1] or
    [decay] is outside [(0, 1]] or NaN. *)

val observe : t -> Im_sqlir.Query.t -> unit

val clusters : t -> cluster list
(** Heaviest first. *)

val to_workload : t -> Im_workload.Workload.t
(** Snapshot of the window as a weighted workload named ["window"]:
    the {!clusters}' leaders, in that order, with their decayed
    masses. *)

val statements : t -> int
(** Statements observed over the window's lifetime. *)

val cluster_count : t -> int
val evictions : t -> int
val total_mass : t -> float
val capacity : t -> int
