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
  c_derived : int;
  c_fallbacks : int;
}

type key = { k_query : string; k_relevant : int array }

(* The cache and the per-instance counters are read and written only
   under [lock]: a daemon epoch on the worker domain shares a tenant's
   service with the dispatch thread. *)
type t = {
  db : Database.t;
  capacity : int;
  update_cost : (Config.t -> inserts:(string * int) list -> float) option;
  deriver : Im_derive.Derive.t option;
      (* resolves cache misses from cached access-path atoms instead of
         full optimizations; [None] = historical behavior *)
  lock : Mutex.t;
  tbl : (key, float) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;  (* = what-if resolutions: [opt_calls] *)
  mutable evictions : int;
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
    hits = 0;
    misses = 0;
    evictions = 0;
    cost_evals = Atomic.make 0;
  }

let database t = t.db
let locked t f = Mutex.protect t.lock f
let size t = locked t (fun () -> Hashtbl.length t.tbl)

let counters t =
  locked t (fun () ->
      {
        c_cost_evals = Atomic.get t.cost_evals;
        c_query_costs = t.hits + t.misses;
        c_opt_calls = t.misses;
        c_hits = t.hits;
        c_misses = t.misses;
        c_evictions = t.evictions;
        c_derived = (if Option.is_some t.deriver then t.misses else 0);
        c_fallbacks = 0;
      })

let cost_evals t = Atomic.get t.cost_evals
let opt_calls t = locked t (fun () -> t.misses)
let hits t = locked t (fun () -> t.hits)
let evictions t = locked t (fun () -> t.evictions)
let deriver t = t.deriver

(* ---- Keys ---- *)

(* The paper's "only relevant queries need re-optimization": the key is
   the query plus the configuration restricted to the query's tables, so
   changing indexes of other tables leaves the key — and the cached cost
   — as it was. Both identities were computed when the values were
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

(* The plan behind every miss. Plans themselves are uncached by
   design: they are bulky and the derived path already makes producing
   one cheap. The search layers also call this for seek/scan usage
   analysis, where the service decides how a plan is obtained. *)
let query_plan t config q =
  match t.deriver with
  | Some d -> Im_derive.Derive.plan d config q
  | None -> Im_optimizer.Optimizer.optimize t.db config q

let query_cost t config q =
  let t0 = Stopwatch.now_ns () in
  let key = key_of q config in
  (* The what-if resolution on a miss runs under the lock on purpose:
     two domains missing on the same key serialize, and the second
     finds the entry — so hit/miss/opt-call totals are exactly those of
     a sequential run, and no what-if work is duplicated. *)
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl key with
      | Some c ->
        t.hits <- t.hits + 1;
        Metrics.Counter.incr m_hits;
        Metrics.Histogram.observe m_lookup_hit (Stopwatch.elapsed_since_ns t0);
        c
      | None ->
        (* A miss is one what-if resolution ([opt_calls]) whether it
           ran the optimizer or was derived from atoms;
           [Optimizer.invocations] counts the actual optimizer runs. *)
        t.misses <- t.misses + 1;
        let c = Im_optimizer.Plan.cost (query_plan t config q) in
        (* Bounded the way [Parser.Prepared] is: a full table is
           cleared, and the entries it dropped are the evictions. A
           cost is pure in its key, so a clear only costs
           recomputation. *)
        let n = Hashtbl.length t.tbl in
        if n >= t.capacity then begin
          t.evictions <- t.evictions + n;
          Metrics.Counter.add m_evictions n;
          Hashtbl.clear t.tbl
        end;
        Hashtbl.add t.tbl key c;
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

