module Database = Im_catalog.Database
module Config = Im_catalog.Config
module Index = Im_catalog.Index
module Query = Im_sqlir.Query
module Workload = Im_workload.Workload
module Metrics = Im_obs.Metrics
module Stopwatch = Im_util.Stopwatch

(* Process-wide metrics. Per-instance counters live in [t] and drive
   the existing per-run delta reporting; these aggregate across every
   service in the process for the registry dump / METRICS verb. The
   latency split shows what memoization buys: a hit is a hash lookup,
   a miss pays a full what-if optimizer call. *)
let m_hits = Metrics.counter "costsvc_hits_total"
let m_misses = Metrics.counter "costsvc_misses_total"
let m_evictions = Metrics.counter "costsvc_evictions_total"
let m_invalidated = Metrics.counter "costsvc_invalidated_total"

let m_lookup_hit =
  Metrics.histogram ~labels:[ ("outcome", "hit") ] "costsvc_lookup_seconds"

let m_lookup_miss =
  Metrics.histogram ~labels:[ ("outcome", "miss") ] "costsvc_lookup_seconds"

type counters = {
  c_cost_evals : int;
  c_query_costs : int;
  c_opt_calls : int;
  c_hits : int;
  c_misses : int;
  c_evictions : int;
  c_invalidated : int;
  c_derived : int;
  c_fallbacks : int;
}

type key = { k_query : int; k_relevant : int array }

type node = {
  n_key : key;
  n_cost : float;
  n_tables : string list;
  mutable n_prev : node option;  (* toward the MRU end *)
  mutable n_next : node option;  (* toward the LRU end *)
}

(* Lock-striped shard: an independent LRU cache plus its slice of the
   per-instance counters. A key lives in exactly one shard (by hash),
   so concurrent what-if calls contend only 1/N of the time. All shard
   state — table, LRU list, counters — is touched exclusively under
   [s_lock]. *)
type shard = {
  s_lock : Mutex.t;
  s_tbl : (key, node) Hashtbl.t;
  s_capacity : int;
  mutable s_mru : node option;
  mutable s_lru : node option;
  mutable s_query_costs : int;
  mutable s_opt_calls : int;
  mutable s_hits : int;
  mutable s_misses : int;
  mutable s_evictions : int;
  mutable s_invalidated : int;
  mutable s_derived : int;
  mutable s_fallbacks : int;
}

type t = {
  db : Database.t;
  capacity : int;
  update_cost : (Config.t -> inserts:(string * int) list -> float) option;
  deriver : Im_derive.Derive.t option;
      (* resolves cache misses from cached access-path atoms instead of
         full optimizations; [None] = historical behavior *)
  shards : shard array;  (* length is a power of two *)
  shard_mask : int;
  cost_evals : int Atomic.t;  (* workload-level; callers may be parallel *)
}

let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (k * 2)

let create ?(capacity = 8192) ?(shards = 1) ?update_cost ?(derive = false) db =
  if capacity < 1 then invalid_arg "Service.create: capacity < 1";
  if shards < 1 then invalid_arg "Service.create: shards < 1";
  let nshards = pow2_at_least (min shards 256) 1 in
  (* Ceiling split so the total live-entry bound never drops below the
     requested capacity. With the default single shard this is exactly
     the historical LRU. *)
  let per_shard = (capacity + nshards - 1) / nshards in
  {
    db;
    capacity;
    update_cost;
    deriver =
      (if derive then Some (Im_derive.Derive.create ~shards:nshards db)
       else None);
    shards =
      Array.init nshards (fun _ ->
          {
            s_lock = Mutex.create ();
            s_tbl = Hashtbl.create 256;
            s_capacity = per_shard;
            s_mru = None;
            s_lru = None;
            s_query_costs = 0;
            s_opt_calls = 0;
            s_hits = 0;
            s_misses = 0;
            s_evictions = 0;
            s_invalidated = 0;
            s_derived = 0;
            s_fallbacks = 0;
          });
    shard_mask = nshards - 1;
    cost_evals = Atomic.make 0;
  }

let database t = t.db
let capacity t = t.capacity
let shard_count t = Array.length t.shards

(* Fold [f] over every shard with its lock held. *)
let fold_shards t init f =
  Array.fold_left
    (fun acc s ->
      Mutex.lock s.s_lock;
      let acc = f acc s in
      Mutex.unlock s.s_lock;
      acc)
    init t.shards

let size t = fold_shards t 0 (fun acc s -> acc + Hashtbl.length s.s_tbl)

let counters t =
  let z =
    {
      c_cost_evals = Atomic.get t.cost_evals;
      c_query_costs = 0;
      c_opt_calls = 0;
      c_hits = 0;
      c_misses = 0;
      c_evictions = 0;
      c_invalidated = 0;
      c_derived = 0;
      c_fallbacks = 0;
    }
  in
  fold_shards t z (fun c s ->
      {
        c with
        c_query_costs = c.c_query_costs + s.s_query_costs;
        c_opt_calls = c.c_opt_calls + s.s_opt_calls;
        c_hits = c.c_hits + s.s_hits;
        c_misses = c.c_misses + s.s_misses;
        c_evictions = c.c_evictions + s.s_evictions;
        c_invalidated = c.c_invalidated + s.s_invalidated;
        c_derived = c.c_derived + s.s_derived;
        c_fallbacks = c.c_fallbacks + s.s_fallbacks;
      })

let cost_evals t = Atomic.get t.cost_evals
let opt_calls t = fold_shards t 0 (fun acc s -> acc + s.s_opt_calls)
let hits t = fold_shards t 0 (fun acc s -> acc + s.s_hits)
let misses t = fold_shards t 0 (fun acc s -> acc + s.s_misses)
let evictions t = fold_shards t 0 (fun acc s -> acc + s.s_evictions)
let derived t = fold_shards t 0 (fun acc s -> acc + s.s_derived)
let fallbacks t = fold_shards t 0 (fun acc s -> acc + s.s_fallbacks)
let deriver t = t.deriver

(* ---- Intrusive LRU list (per shard, under its lock) ---- *)

let unlink s n =
  (match n.n_prev with
   | Some p -> p.n_next <- n.n_next
   | None -> s.s_mru <- n.n_next);
  (match n.n_next with
   | Some x -> x.n_prev <- n.n_prev
   | None -> s.s_lru <- n.n_prev);
  n.n_prev <- None;
  n.n_next <- None

let push_mru s n =
  n.n_prev <- None;
  n.n_next <- s.s_mru;
  (match s.s_mru with
   | Some m -> m.n_prev <- Some n
   | None -> s.s_lru <- Some n);
  s.s_mru <- Some n

let touch s n =
  match s.s_mru with
  | Some m when m == n -> ()
  | _ ->
    unlink s n;
    push_mru s n

let evict_lru s =
  match s.s_lru with
  | None -> ()
  | Some n ->
    unlink s n;
    Hashtbl.remove s.s_tbl n.n_key;
    s.s_evictions <- s.s_evictions + 1;
    Metrics.Counter.incr m_evictions

(* ---- Keys ---- *)

(* The paper's "only relevant queries need re-optimization": the key is
   the query plus the configuration restricted to the query's tables, so
   changing indexes of other tables leaves the key — and the cached cost
   — untouched. Identities are interned ids, never concatenated name
   strings, so no column-name choice can alias two configurations. *)
let key_of q config =
  let qtables = q.Query.q_tables in
  let ids =
    List.filter_map
      (fun ix ->
        if List.mem ix.Index.idx_table qtables then Some (Index.intern ix)
        else None)
      config
  in
  let arr = Array.of_list (List.sort_uniq Int.compare ids) in
  { k_query = Query.intern q; k_relevant = arr }

let shard_of t key = t.shards.(Hashtbl.hash key land t.shard_mask)

(* ---- Costing ---- *)

let query_cost t config q =
  let t0 = Stopwatch.now_ns () in
  let key = key_of q config in
  let s = shard_of t key in
  Mutex.lock s.s_lock;
  (* The optimizer call on a miss runs under the shard lock on
     purpose: two domains missing on the same key serialize, and the
     second finds the entry — so hit/miss/opt-call totals are exactly
     those of a sequential run, and no optimizer work is duplicated.
     Cross-key contention within a shard is the price; callers that
     fan out size [?shards] accordingly. *)
  Fun.protect
    ~finally:(fun () -> Mutex.unlock s.s_lock)
    (fun () ->
      s.s_query_costs <- s.s_query_costs + 1;
      match Hashtbl.find_opt s.s_tbl key with
      | Some n ->
        s.s_hits <- s.s_hits + 1;
        touch s n;
        Metrics.Counter.incr m_hits;
        Metrics.Histogram.observe m_lookup_hit (Stopwatch.elapsed_since_ns t0);
        n.n_cost
      | None ->
        s.s_misses <- s.s_misses + 1;
        (* [s_opt_calls] keeps meaning "what-if resolutions the cache
           could not answer" whether the resolution ran the optimizer
           or was derived from atoms; [Optimizer.invocations] counts
           the actual optimizer runs. *)
        s.s_opt_calls <- s.s_opt_calls + 1;
        let c =
          match t.deriver with
          | None ->
            Im_optimizer.Plan.cost
              (Im_optimizer.Optimizer.optimize t.db config q)
          | Some d ->
            let cost, fb = Im_derive.Derive.query_cost d config q in
            (match fb with
             | None -> s.s_derived <- s.s_derived + 1
             | Some _ -> s.s_fallbacks <- s.s_fallbacks + 1);
            cost
        in
        if Hashtbl.length s.s_tbl >= s.s_capacity then evict_lru s;
        let n =
          {
            n_key = key;
            n_cost = c;
            n_tables = q.Query.q_tables;
            n_prev = None;
            n_next = None;
          }
        in
        Hashtbl.add s.s_tbl key n;
        push_mru s n;
        Metrics.Counter.incr m_misses;
        Metrics.Histogram.observe m_lookup_miss
          (Stopwatch.elapsed_since_ns t0);
        c)

(* The one weighted fold behind every workload cost: the exact
   left-to-right [acc +. freq *. cost] of [Workload.weighted_cost], then
   the maintenance term. [entry_cost i q] is the cost of the [i]-th
   entry's query [q]; it is called in entry order. *)
let combine t config w entry_cost =
  Atomic.incr t.cost_evals;
  let rec fold acc i = function
    | [] -> acc
    | e :: rest ->
      fold
        (acc +. (e.Workload.freq *. entry_cost i e.Workload.query))
        (i + 1) rest
  in
  let queries = fold 0. 0 w.Workload.entries in
  let updates =
    match w.Workload.updates with
    | [] -> 0.
    | inserts ->
      (match t.update_cost with
       | Some f -> f config ~inserts
       | None ->
         invalid_arg
           "Service.workload_cost: workload carries updates but the service \
            was created without ~update_cost")
  in
  queries +. updates

let workload_cost ?query_cost:override t config w =
  let per_query =
    match override with
    | Some f -> f config
    | None -> query_cost t config
  in
  combine t config w (fun _ q -> per_query q)

let workload_cost_by_entry t config w cost =
  combine t config w (fun i _ -> cost i)

(* ---- Invalidation ---- *)

let remove_if t pred =
  fold_shards t 0 (fun acc s ->
      let doomed =
        Hashtbl.fold
          (fun _ n acc -> if pred n then n :: acc else acc)
          s.s_tbl []
      in
      (* Single pass: count while removing (the old shape walked the
         doomed list twice and then List.length'd it). *)
      let k =
        List.fold_left
          (fun k n ->
            Hashtbl.remove s.s_tbl n.n_key;
            unlink s n;
            k + 1)
          0 doomed
      in
      s.s_invalidated <- s.s_invalidated + k;
      Metrics.Counter.add m_invalidated k;
      acc + k)

(* Uncached by design: plans are bulky and the derived path already
   makes producing one cheap. Used by the search layers for seek/scan
   usage analysis, where the service decides how a plan is obtained. *)
let query_plan t config q =
  match t.deriver with
  | Some d -> Im_derive.Derive.query_plan d config q
  | None -> Im_optimizer.Optimizer.optimize t.db config q

let invalidate_index t ix =
  (match t.deriver with
   | Some d -> ignore (Im_derive.Derive.invalidate_index d ix)
   | None -> ());
  let id = Index.intern ix in
  remove_if t (fun n -> Array.exists (Int.equal id) n.n_key.k_relevant)

let invalidate_table t tbl =
  (match t.deriver with
   | Some d -> ignore (Im_derive.Derive.invalidate_table d tbl)
   | None -> ());
  remove_if t (fun n -> List.mem tbl n.n_tables)

let clear t =
  (match t.deriver with
   | Some d -> Im_derive.Derive.clear d
   | None -> ());
  ignore (remove_if t (fun _ -> true))
