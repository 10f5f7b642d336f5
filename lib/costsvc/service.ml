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

type key = { k_query : string; k_relevant : int array }

type node = {
  n_key : key;
  n_cost : float;
  n_tables : string list;
  mutable n_prev : node option;  (* toward the MRU end *)
  mutable n_next : node option;  (* toward the LRU end *)
}

(* The cache, its LRU list and the per-instance counters are touched
   only under [lock]: a daemon epoch on the worker domain shares a
   tenant's service with the dispatch thread. *)
type t = {
  db : Database.t;
  capacity : int;
  update_cost : (Config.t -> inserts:(string * int) list -> float) option;
  deriver : Im_derive.Derive.t option;
      (* resolves cache misses from cached access-path atoms instead of
         full optimizations; [None] = historical behavior *)
  lock : Mutex.t;
  tbl : (key, node) Hashtbl.t;
  mutable mru : node option;
  mutable lru : node option;
  mutable query_costs : int;
  mutable opt_calls : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable invalidated : int;
  mutable derived : int;
  mutable fallbacks : int;
  cost_evals : int Atomic.t;  (* workload-level; bumped outside [lock] *)
}

let create ?(capacity = 8192) ?update_cost ?(derive = false) db =
  if capacity < 1 then invalid_arg "Service.create: capacity < 1";
  {
    db;
    capacity;
    update_cost;
    deriver = (if derive then Some (Im_derive.Derive.create db) else None);
    lock = Mutex.create ();
    tbl = Hashtbl.create 256;
    mru = None;
    lru = None;
    query_costs = 0;
    opt_calls = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    invalidated = 0;
    derived = 0;
    fallbacks = 0;
    cost_evals = Atomic.make 0;
  }

let database t = t.db
let capacity t = t.capacity
let locked t f = Mutex.protect t.lock f
let size t = locked t (fun () -> Hashtbl.length t.tbl)

let counters t =
  locked t (fun () ->
      {
        c_cost_evals = Atomic.get t.cost_evals;
        c_query_costs = t.query_costs;
        c_opt_calls = t.opt_calls;
        c_hits = t.hits;
        c_misses = t.misses;
        c_evictions = t.evictions;
        c_invalidated = t.invalidated;
        c_derived = t.derived;
        c_fallbacks = t.fallbacks;
      })

let cost_evals t = Atomic.get t.cost_evals
let opt_calls t = locked t (fun () -> t.opt_calls)
let hits t = locked t (fun () -> t.hits)
let misses t = locked t (fun () -> t.misses)
let evictions t = locked t (fun () -> t.evictions)
let derived t = locked t (fun () -> t.derived)
let fallbacks t = locked t (fun () -> t.fallbacks)
let deriver t = t.deriver

(* ---- Intrusive LRU list (under [lock]) ---- *)

let unlink t n =
  (match n.n_prev with
   | Some p -> p.n_next <- n.n_next
   | None -> t.mru <- n.n_next);
  (match n.n_next with
   | Some x -> x.n_prev <- n.n_prev
   | None -> t.lru <- n.n_prev);
  n.n_prev <- None;
  n.n_next <- None

let push_mru t n =
  n.n_prev <- None;
  n.n_next <- t.mru;
  (match t.mru with
   | Some m -> m.n_prev <- Some n
   | None -> t.lru <- Some n);
  t.mru <- Some n

let touch t n =
  match t.mru with
  | Some m when m == n -> ()
  | _ ->
    unlink t n;
    push_mru t n

let evict_lru t =
  match t.lru with
  | None -> ()
  | Some n ->
    unlink t n;
    Hashtbl.remove t.tbl n.n_key;
    t.evictions <- t.evictions + 1;
    Metrics.Counter.incr m_evictions

(* ---- Keys ---- *)

(* The paper's "only relevant queries need re-optimization": the key is
   the query plus the configuration restricted to the query's tables, so
   changing indexes of other tables leaves the key — and the cached cost
   — untouched. Both identities were computed when the values were
   built: the query's canonical text and the indexes' ids, never
   concatenated name strings, so no column-name choice can alias two
   configurations. *)
let key_of q config =
  let qtables = q.Query.q_tables in
  let ids =
    List.filter_map
      (fun ix ->
        if List.mem ix.Index.idx_table qtables then Some ix.Index.idx_id
        else None)
      config
  in
  let arr = Array.of_list (List.sort_uniq Int.compare ids) in
  { k_query = q.Query.q_canon; k_relevant = arr }

(* ---- Costing ---- *)

let query_cost t config q =
  let t0 = Stopwatch.now_ns () in
  let key = key_of q config in
  (* The what-if resolution on a miss runs under the lock on purpose:
     two domains missing on the same key serialize, and the second
     finds the entry — so hit/miss/opt-call totals are exactly those of
     a sequential run, and no what-if work is duplicated. *)
  locked t (fun () ->
      t.query_costs <- t.query_costs + 1;
      match Hashtbl.find_opt t.tbl key with
      | Some n ->
        t.hits <- t.hits + 1;
        touch t n;
        Metrics.Counter.incr m_hits;
        Metrics.Histogram.observe m_lookup_hit (Stopwatch.elapsed_since_ns t0);
        n.n_cost
      | None ->
        t.misses <- t.misses + 1;
        (* [opt_calls] keeps meaning "what-if resolutions the cache
           could not answer" whether the resolution ran the optimizer
           or was derived from atoms; [Optimizer.invocations] counts
           the actual optimizer runs. *)
        t.opt_calls <- t.opt_calls + 1;
        let c =
          match t.deriver with
          | None ->
            Im_optimizer.Plan.cost
              (Im_optimizer.Optimizer.optimize t.db config q)
          | Some d ->
            let cost, fb = Im_derive.Derive.query_cost d config q in
            (match fb with
             | None -> t.derived <- t.derived + 1
             | Some _ -> t.fallbacks <- t.fallbacks + 1);
            cost
        in
        if Hashtbl.length t.tbl >= t.capacity then evict_lru t;
        let n =
          {
            n_key = key;
            n_cost = c;
            n_tables = q.Query.q_tables;
            n_prev = None;
            n_next = None;
          }
        in
        Hashtbl.add t.tbl key n;
        push_mru t n;
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
  locked t (fun () ->
      let doomed =
        Hashtbl.fold (fun _ n acc -> if pred n then n :: acc else acc) t.tbl []
      in
      (* Single pass: count while removing. *)
      let k =
        List.fold_left
          (fun k n ->
            Hashtbl.remove t.tbl n.n_key;
            unlink t n;
            k + 1)
          0 doomed
      in
      t.invalidated <- t.invalidated + k;
      Metrics.Counter.add m_invalidated k;
      k)

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
  let id = ix.Index.idx_id in
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
