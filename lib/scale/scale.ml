module Config = Im_catalog.Config
module Index = Im_catalog.Index
module Query = Im_sqlir.Query
module Workload = Im_workload.Workload
module Compress = Im_workload.Compress
module Service = Im_costsvc.Service
module Derive = Im_derive.Derive
module Metrics = Im_obs.Metrics

let m_buckets = Metrics.gauge "scale_buckets"
let m_fold_ratio = Metrics.gauge "scale_fold_ratio"
let m_bound_eps = Metrics.gauge "scale_bound_eps"
let m_probe_costs = Metrics.counter "scale_probe_costs_total"

let slack = 2.0

(* Per-bucket probe configurations and the leader's sampled costs over
   them (parallel arrays). *)
type probes = {
  pr_configs : Config.t list;
  pr_leader : float array;
}

type bucket = {
  bu_leader : Query.t;
  mutable bu_mass : float;
  mutable bu_probes : probes option;  (* sampled lazily *)
}

(* Where a known canonical query folds: its bucket plus its sampled
   spread (vs the bucket leader) and floor. Spread 0 and floor 0 until
   the bucket needed sampling. *)
type member = {
  mb_bucket : bucket;
  mb_spread : float;
  mutable mb_floor : float;
}

type t = {
  sc_deriver : Derive.t;
  sc_eps : float;
  (* Optional frequent-itemset miner fed at admission time: every
     folded statement's mass lands on its bucket leader's column sets,
     so mining the stream here equals mining the compressed snapshot Ŵ
     — for free, O(1) per repeated statement. *)
  sc_mine : Im_mine.Mine.t option;
  sc_by_sig : (string, bucket) Hashtbl.t;
  sc_by_query : (string, member) Hashtbl.t;  (* keyed by [q_canon] *)
  mutable sc_order : bucket list;  (* reversed creation order *)
  mutable sc_buckets : int;
  mutable sc_statements : int;
  mutable sc_exact : int;
  mutable sc_approx : int;
  mutable sc_delta : float;  (* Δ: Σ f·spread over folded statements *)
  mutable sc_floor : float;  (* L: Σ f·floor over sampled statements *)
  mutable sc_probe_costs : int;
}

let create ?(eps = 0.05) ?mine service =
  {
    sc_deriver =
      (match Service.deriver service with
       | Some d -> d
       | None -> Derive.create (Service.database service));
    sc_eps = Float.max 0. eps;
    sc_mine = mine;
    sc_by_sig = Hashtbl.create 256;
    sc_by_query = Hashtbl.create 1024;
    sc_order = [];
    sc_buckets = 0;
    sc_statements = 0;
    sc_exact = 0;
    sc_approx = 0;
    sc_delta = 0.;
    sc_floor = 0.;
    sc_probe_costs = 0;
  }

let eps t = t.sc_eps

(* ---- Probe configurations ----

   The regimes a per-table access path can be in: heap scan (no
   indexes), index seek (a single-column index per sargable column),
   covering scan (one index over every referenced column per table),
   and seek+covering together. Sampled costs over these bracket the
   cost function's range; [slack] absorbs configurations between the
   regimes. *)
let probe_configs q =
  let uniq = List.sort_uniq compare in
  let seek =
    List.concat_map
      (fun tbl ->
        List.map
          (fun col -> Index.make ~table:tbl [ col ])
          (uniq (Query.sargable_columns q tbl)))
      q.Query.q_tables
  in
  let covering =
    List.concat_map
      (fun tbl ->
        match uniq (Query.referenced_columns q tbl) with
        | [] -> []
        | cols -> [ Index.make ~table:tbl cols ])
      q.Query.q_tables
  in
  let full =
    Im_util.List_ext.dedup_keep_order Index.equal (seek @ covering)
  in
  Im_util.List_ext.dedup_keep_order
    (List.equal Index.equal)
    [ []; seek; covering; full ]

let array_min a = Array.fold_left Float.min a.(0) a

(* Probes go straight to the deriver, never through [Service.query_cost]:
   sampling must leave the service's hit/miss/opt-call counters alone. *)
let sample_costs t probes q =
  let n = List.length probes.pr_configs in
  t.sc_probe_costs <- t.sc_probe_costs + n;
  Metrics.Counter.add m_probe_costs n;
  Array.of_list
    (List.map
       (fun config -> Derive.query_cost t.sc_deriver config q)
       probes.pr_configs)

let ensure_probes t b =
  match b.bu_probes with
  | Some p -> p
  | None ->
    let configs = probe_configs b.bu_leader in
    let probes = { pr_configs = configs; pr_leader = [||] } in
    let leader = sample_costs t probes b.bu_leader in
    let probes = { probes with pr_leader = leader } in
    b.bu_probes <- Some probes;
    (* The leader's own mass starts strengthening L from here on. *)
    (match Hashtbl.find_opt t.sc_by_query b.bu_leader.Query.q_canon with
     | Some m when m.mb_bucket == b -> m.mb_floor <- array_min leader
     | Some _ | None -> ());
    probes

(* Admission: would folding [f] mass at [spread] keep the post-state
   invariant [slack·Δ ≤ ε·L]? Both sides only grow, so checking each
   admission's post-state keeps the invariant at every step. *)
let admits t ~spread ~floor ~freq =
  slack *. (t.sc_delta +. (freq *. spread))
  <= t.sc_eps *. (t.sc_floor +. (freq *. floor))

let fold_into t b q ~freq ~spread ~floor =
  (* Mine the fold as its leader: the statement's mass lands exactly
     where the compressed snapshot will carry it. *)
  Option.iter (fun m -> Im_mine.Mine.observe m ~freq b.bu_leader) t.sc_mine;
  t.sc_statements <- t.sc_statements + 1;
  t.sc_floor <- t.sc_floor +. (freq *. floor);
  b.bu_mass <- b.bu_mass +. freq;
  if String.equal q.Query.q_canon b.bu_leader.Query.q_canon then
    t.sc_exact <- t.sc_exact + 1
  else begin
    t.sc_approx <- t.sc_approx + 1;
    t.sc_delta <- t.sc_delta +. (freq *. spread)
  end

let create_bucket t q ~freq ~floor =
  Option.iter (fun m -> Im_mine.Mine.observe m ~freq q) t.sc_mine;
  let b = { bu_leader = q; bu_mass = freq; bu_probes = None } in
  t.sc_order <- b :: t.sc_order;
  t.sc_buckets <- t.sc_buckets + 1;
  Hashtbl.replace t.sc_by_query q.Query.q_canon
    { mb_bucket = b; mb_spread = 0.; mb_floor = floor };
  (* A new leader is a statement of its own bucket, not a fold. *)
  t.sc_statements <- t.sc_statements + 1;
  t.sc_floor <- t.sc_floor +. (freq *. floor);
  b

let try_admit t b q ~freq =
  let probes = ensure_probes t b in
  let costs = sample_costs t probes q in
  let floor = array_min costs in
  let spread = ref 0. in
  Array.iteri
    (fun i c -> spread := Float.max !spread (Float.abs (c -. probes.pr_leader.(i))))
    costs;
  let spread = !spread in
  if admits t ~spread ~floor ~freq then begin
    Hashtbl.replace t.sc_by_query q.Query.q_canon
      { mb_bucket = b; mb_spread = spread; mb_floor = floor };
    fold_into t b q ~freq ~spread ~floor
  end
  else
    (* Over budget: own bucket, exact from now on — its sampled floor
       still strengthens the denominator. *)
    ignore (create_bucket t q ~freq ~floor)

let observe t ?(freq = 1.0) q =
  (* A repeated statement (the hot path at 100k–1M-statement scale) is
     hash lookups on the canonical text [Query.make] already built —
     never a signature computation. *)
  match Hashtbl.find_opt t.sc_by_query q.Query.q_canon with
  | Some m ->
    if m.mb_spread > 0. && not (admits t ~spread:m.mb_spread ~floor:m.mb_floor ~freq)
    then
      (* This repeat no longer fits the budget next to its leader:
         demote the query to its own bucket (mass already folded was
         admitted under the invariant and stays accounted in Δ).
         [create_bucket] replaces the query's member record. *)
      ignore (create_bucket t q ~freq ~floor:m.mb_floor)
    else
      fold_into t m.mb_bucket q ~freq ~spread:m.mb_spread ~floor:m.mb_floor
  | None ->
    if t.sc_eps <= 0. then
      (* ε = 0: only canonically identical statements fold — one bucket
         per distinct query, no sampling, Δ stays 0. *)
      ignore (create_bucket t q ~freq ~floor:0.)
    else begin
      let key = Compress.signature_key (Compress.signature q) in
      match Hashtbl.find_opt t.sc_by_sig key with
      | Some b -> try_admit t b q ~freq
      | None ->
        Hashtbl.add t.sc_by_sig key (create_bucket t q ~freq ~floor:0.)
    end

let observe_workload t (w : Workload.t) =
  List.iter
    (fun (e : Workload.entry) -> observe t ~freq:e.Workload.freq e.Workload.query)
    w.Workload.entries

let bound t =
  if t.sc_delta = 0. then 0.
  else if t.sc_floor <= 0. then infinity
  else slack *. t.sc_delta /. t.sc_floor

type stats = {
  st_statements : int;
  st_buckets : int;
  st_exact_folds : int;
  st_approx_folds : int;
  st_eps_budget : float;
  st_eps_bound : float;
  st_probe_costs : int;
}

let stats t =
  {
    st_statements = t.sc_statements;
    st_buckets = t.sc_buckets;
    st_exact_folds = t.sc_exact;
    st_approx_folds = t.sc_approx;
    st_eps_budget = t.sc_eps;
    st_eps_bound = bound t;
    st_probe_costs = t.sc_probe_costs;
  }

let fold_ratio st =
  if st.st_buckets = 0 then 0.
  else float_of_int st.st_statements /. float_of_int st.st_buckets

let snapshot ?(name = "scale") t =
  Metrics.Gauge.set_int m_buckets t.sc_buckets;
  Metrics.Gauge.set m_fold_ratio (fold_ratio (stats t));
  Metrics.Gauge.set m_bound_eps (bound t);
  Workload.of_entries ~name
    (List.rev_map
       (fun b -> { Workload.query = b.bu_leader; freq = b.bu_mass })
       t.sc_order)

let prepare ?compress ?prune_support service (w : Workload.t) =
  let miner =
    match prune_support with
    | Some s when s > 0. -> Some (Im_mine.Mine.create (), s)
    | Some _ | None -> None
  in
  let mine = Option.map fst miner in
  let workload, compactor =
    match compress with
    | None ->
      Option.iter (fun m -> Im_mine.Mine.observe_workload m w) mine;
      (w, None)
    | Some eps ->
      let t = create ~eps ?mine service in
      observe_workload t w;
      ( Workload.with_updates (snapshot ~name:w.Workload.name t)
          w.Workload.updates,
        Some t )
  in
  ( workload,
    compactor,
    Option.map (fun (m, s) -> Im_mine.Mine.frontier m ~support:s) miner )
