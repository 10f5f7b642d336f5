(** Workload compression with a deviation bound — the
    100k–1M-statement tuning path (CoPhy's "compress the workload,
    decompose the what-if cost" recipe on top of [Im_derive]).

    {1 The compactor}

    Statements stream in one at a time and are bucketed by the
    physical-design signature key of {!Im_workload.Compress} — a hash
    lookup, never a linear leader scan. The first query of a bucket is
    its leader; later statements fold their frequency into the leader.
    The compressed workload [Ŵ] is the ordered list of leaders with
    folded frequencies.

    {1 The deviation bound}

    Folding statement [q] onto leader [l] misprices it by
    [f_q · |cost(q, C) − cost(l, C)|] for whatever configuration [C] a
    search later evaluates. The compactor brackets that miss by
    sampling both queries' costs over the bucket's {e probe
    configurations} — no indexes, single-column indexes on every
    sargable column, one covering index per table, and their union:
    the scan / seek / covering regimes an access path can be in —
    through {!Im_derive.Derive.query_cost}, so sampling re-assembles
    cached atoms instead of running the optimizer and leaves the cost
    service's counters untouched.
    With [spread_q = max_P |cost(q, P) − cost(l, P)|] and
    [floor_q = min_P cost(q, P)], the compactor maintains

    {v Δ = Σ_folded f·spread     L = Σ_sampled f·floor v}

    and admits a cross-query fold only while
    [slack · (Δ + f·spread) ≤ ε · (L + f·floor)] — statements that
    would break the budget get their own bucket (still strengthening
    [L]). The reported bound is [ε̂ = slack · Δ / L ≤ ε], and the
    deviation guarantee [|Cost(W,C) − Cost(Ŵ,C)| ≤ ε̂ · Cost(W,C)]
    holds whenever per-query costs stay within [slack] of the sampled
    regime bracket — exact ([ε̂ = 0]) when only canonically identical
    statements folded, validated across random configurations by the
    property tests and the scale benchmark. At [ε = 0] the compactor
    folds {e only} canonically identical statements (equal
    {!Im_sqlir.Query.canonical_string}), so compressed search results
    are bit-identical on duplicate-free workloads and no probe is ever
    sampled.

    [Cost(Ŵ, C)] is priced like any other workload, through
    {!Im_costsvc.Service.workload_cost} on the {!snapshot}. *)

type t

val slack : float
(** Safety margin on the sampled regime bracket (2.0): the admission
    rule charges [slack ·] the sampled spread and the reported bound is
    [slack · Δ / L]. *)

val create :
  ?eps:float -> ?mine:Im_mine.Mine.t -> Im_costsvc.Service.t -> t
(** A streaming compactor costing probes through the service's deriver
    (a private deriver on the same database when the service was built
    with [~derive:false] — identical costs either way). [eps] (default
    0.05) is the deviation budget; [eps <= 0.] folds only canonically
    identical statements. [?mine] feeds a frequent-itemset miner at
    admission time: every statement's mass is mined as its bucket
    leader, so the miner sees exactly the masses of the compressed
    snapshot [Ŵ] at O(1) extra work per repeated statement. *)

val eps : t -> float

val observe : t -> ?freq:float -> Im_sqlir.Query.t -> unit
(** Stream one statement in ([freq] defaults to 1). O(1) hash work for
    a repeated statement, keyed on the canonical text the query carries
    ([q_canon]); probe sampling happens at most once per
    distinct query. *)

val observe_workload : t -> Im_workload.Workload.t -> unit
(** {!observe} every entry, in order, with its frequency. *)

val snapshot : ?name:string -> t -> Im_workload.Workload.t
(** The compressed workload: bucket leaders in first-appearance order
    with folded frequencies (no update profile — {!prepare} carries
    the input's over). Also publishes the [scale_*] gauges. The
    compactor keeps streaming afterwards. *)

type stats = {
  st_statements : int;  (** statements streamed in *)
  st_mass : float;  (** total frequency mass *)
  st_buckets : int;  (** compressed entries (= size of {!snapshot}) *)
  st_exact_folds : int;
      (** statements folded onto a canonically identical entry *)
  st_approx_folds : int;
      (** statements folded across distinct queries (charged to Δ) *)
  st_residual_mass : float;  (** mass represented by a different query *)
  st_eps_budget : float;  (** the requested ε *)
  st_eps_bound : float;
      (** the reported bound ε̂ = slack·Δ/L ≤ ε; 0 when only exact
          folds happened *)
  st_probe_costs : int;  (** probe costings spent deriving the bound *)
}

val stats : t -> stats

val fold_ratio : stats -> float
(** [statements / buckets] (0 on an empty compactor) — the compression
    ratio the benchmark gates on. *)

val prepare :
  ?compress:float ->
  ?prune_support:float ->
  Im_costsvc.Service.t ->
  Im_workload.Workload.t ->
  Im_workload.Workload.t * t option * Im_mine.Mine.frontier option
(** The prelude a tuning run's caller takes before the search proper:
    [prepare ?compress ?prune_support service w] returns the workload
    to tune, the compactor when one ran, and the pruning frontier. The
    merge search ({!Im_merging.Search.run}) and the advisor
    ({!Im_advisor.Advisor.advise}) take only the results; the callers
    are the CLI's [merge], [advise] and [tune] and the online epoch
    ({!Im_online.Epoch.run}).

    - [?compress EPS] streams [w] through a fresh compactor at
      deviation budget [EPS]; the workload returned is its
      {!snapshot} (same name, update profile carried over) and the
      compactor is returned for {!stats}. Without it [w]
      is returned unchanged and no compactor is built.
    - [?prune_support S] with [S > 0] mines [w]'s frequent itemsets
      and returns {!Im_mine.Mine.frontier} at support [S]. When
      compressing, the miner rides the compactor's admission stream,
      so it sees the compressed workload's masses; otherwise it
      streams [w] once. [S <= 0] mines nothing and returns no
      frontier. *)
