module Database = Im_catalog.Database
module Config = Im_catalog.Config
module Query = Im_sqlir.Query
module Predicate = Im_sqlir.Predicate

(* Atomic: the what-if service can call the optimizer from several
   domains at once (tune's per-query fan-out, a daemon epoch racing
   the dispatch thread), and tests compare exact invocation totals. *)
let counter = Atomic.make 0
let invocations () = Atomic.get counter
let reset_invocations () = Atomic.set counter 0

(* Process-wide metrics: invocations split by the kind of plan the
   call produced (root operator). One handle per kind, bound directly:
   the hot path is a single match and an atomic increment — no
   list lookup per invocation. *)
let m_calls_access =
  Im_obs.Metrics.counter ~labels:[ ("kind", "access") ] "optimizer_calls_total"

let m_calls_hash_join =
  Im_obs.Metrics.counter
    ~labels:[ ("kind", "hash_join") ]
    "optimizer_calls_total"

let m_calls_index_nlj =
  Im_obs.Metrics.counter
    ~labels:[ ("kind", "index_nlj") ]
    "optimizer_calls_total"

let m_calls_sort =
  Im_obs.Metrics.counter ~labels:[ ("kind", "sort") ] "optimizer_calls_total"

let m_calls_hash_aggregate =
  Im_obs.Metrics.counter
    ~labels:[ ("kind", "hash_aggregate") ]
    "optimizer_calls_total"

let count_call (plan : Plan.t) =
  Im_obs.Metrics.Counter.incr
    (match plan.Plan.root.Plan.op with
     | Plan.Access _ -> m_calls_access
     | Plan.Hash_join _ -> m_calls_hash_join
     | Plan.Index_nlj _ -> m_calls_index_nlj
     | Plan.Sort _ -> m_calls_sort
     | Plan.Hash_aggregate _ -> m_calls_hash_aggregate)

(* FROM-clause sizes up to this bound are planned with exhaustive
   left-deep enumeration; larger ones greedily. *)
let join_order_limit = 5

(* ---- Single-table building blocks ---- *)

let access_input q tbl =
  {
    Access_path.ap_table = tbl;
    ap_selections = Query.selection_predicates q tbl;
    ap_param_eq = [];
    ap_required = Query.referenced_columns q tbl;
  }

let node_of_choice (c : Access_path.choice) =
  {
    Plan.op = Plan.Access (c.access, c.residual);
    est_rows = c.out_rows;
    est_cost = c.cost;
  }

(* ---- Access providers ---- *)

type access_provider = {
  pa_best : Access_path.input -> Access_path.choice;
  pa_candidates : Access_path.input -> Access_path.choice list;
}

let direct_provider db config =
  {
    pa_best = (fun input -> Access_path.best db config input);
    pa_candidates = (fun input -> Access_path.candidates db config input);
  }

(* Per-optimization memo over the provider (derivation level 1): join
   planning re-asks for the same table's access path inside every join
   step of every permutation — up to 5! orders — yet within one call
   the answer is pure in (table, probe column). [Access_path.best] is
   deterministic (first minimum), so memoizing changes nothing but the
   amount of arithmetic. *)
type accessors = {
  ac_plain : string -> Access_path.choice;
  ac_probe : string -> Predicate.colref -> Access_path.choice;
  ac_candidates : string -> Access_path.choice list;
}

let memoized_accessors provider db q =
  let plain : (string, Access_path.choice) Hashtbl.t = Hashtbl.create 8 in
  let probed : (string * string, Access_path.choice) Hashtbl.t =
    Hashtbl.create 8
  in
  let ac_plain tbl =
    match Hashtbl.find_opt plain tbl with
    | Some c -> c
    | None ->
      let c = provider.pa_best (access_input q tbl) in
      Hashtbl.add plain tbl c;
      c
  in
  (* The probe input is determined by (query, table, probe column):
     the per-probe selectivity is the column's density, pure in the
     database statistics. *)
  let ac_probe tbl (inner_col : Predicate.colref) =
    let key = (tbl, inner_col.Predicate.cr_column) in
    match Hashtbl.find_opt probed key with
    | Some c -> c
    | None ->
      let probe_input =
        {
          (access_input q tbl) with
          Access_path.ap_param_eq =
            [
              ( inner_col.Predicate.cr_column,
                Cardinality.density db inner_col );
            ];
        }
      in
      let c = provider.pa_best probe_input in
      Hashtbl.add probed key c;
      c
  in
  {
    ac_plain;
    ac_probe;
    ac_candidates = (fun tbl -> provider.pa_candidates (access_input q tbl));
  }

(* ---- Join planning ---- *)

type intermediate = {
  tables : string list;
  node : Plan.node;
}

let join_pred_between q joined tbl =
  List.find_opt
    (fun p ->
      match p with
      | Predicate.Join (a, b) ->
        (List.mem a.Predicate.cr_table joined && b.Predicate.cr_table = tbl)
        || (List.mem b.Predicate.cr_table joined && a.Predicate.cr_table = tbl)
      | Predicate.Cmp _ | Predicate.Between _ | Predicate.In_list _ -> false)
    (Query.join_predicates q)

(* Cost of joining [inter] with base table [tbl]. Considers a hash join
   (building on the table's own best access path) and an index
   nested-loop join (parameterized seek into [tbl]). *)
let join_step db acc q inter tbl =
  match join_pred_between q inter.tables tbl with
  | None ->
    (* Cartesian fallback: hash join with selectivity 1 and no key. *)
    let inner = acc.ac_plain tbl in
    let inner_node = node_of_choice inner in
    let rows = inter.node.Plan.est_rows *. inner.out_rows in
    let cost =
      inter.node.Plan.est_cost +. inner.Access_path.cost
      +. ((inter.node.Plan.est_rows +. inner.Access_path.out_rows)
          *. Cost_params.cpu_hash)
      +. (rows *. Cost_params.cpu_row)
    in
    let fake_pred =
      Predicate.Join
        ( Predicate.colref (List.hd inter.tables) "<cartesian>",
          Predicate.colref tbl "<cartesian>" )
    in
    {
      tables = tbl :: inter.tables;
      node =
        {
          Plan.op = Plan.Hash_join (inter.node, inner_node, fake_pred);
          est_rows = rows;
          est_cost = cost;
        };
    }
  | Some (Predicate.Join (a, b) as p) ->
    let inner_col = if a.Predicate.cr_table = tbl then a else b in
    let join_sel = Cardinality.join_selectivity db p in
    let inner_plain = acc.ac_plain tbl in
    let rows =
      inter.node.Plan.est_rows *. inner_plain.Access_path.out_rows *. join_sel
    in
    (* Hash join. *)
    let hash_cost =
      inter.node.Plan.est_cost +. inner_plain.Access_path.cost
      +. ((inter.node.Plan.est_rows +. inner_plain.Access_path.out_rows)
          *. Cost_params.cpu_hash)
      +. (rows *. Cost_params.cpu_row)
    in
    let hash_node =
      {
        Plan.op = Plan.Hash_join (inter.node, node_of_choice inner_plain, p);
        est_rows = rows;
        est_cost = hash_cost;
      }
    in
    (* Index nested loop: probe tbl once per outer row. *)
    let probe = acc.ac_probe tbl inner_col in
    let is_seek =
      match probe.Access_path.access with
      | Plan.Index_seek _ -> true
      | Plan.Seq_scan _ | Plan.Index_scan _ | Plan.Index_intersection _ ->
        false
    in
    let best_node =
      if not is_seek then hash_node
      else begin
        let nlj_cost =
          inter.node.Plan.est_cost
          +. (inter.node.Plan.est_rows *. probe.Access_path.cost)
          +. (rows *. Cost_params.cpu_row)
        in
        if nlj_cost < hash_cost then
          {
            Plan.op = Plan.Index_nlj (inter.node, probe.Access_path.access, p);
            est_rows =
              inter.node.Plan.est_rows *. probe.Access_path.out_rows;
            est_cost = nlj_cost;
          }
        else hash_node
      end
    in
    { tables = tbl :: inter.tables; node = best_node }
  | Some (Predicate.Cmp _ | Predicate.Between _ | Predicate.In_list _) ->
    assert false (* join_pred_between only returns Join *)

let plan_join db acc q order =
  match order with
  | [] -> invalid_arg "Optimizer.plan_join: no tables"
  | first :: rest ->
    let start =
      { tables = [ first ]; node = node_of_choice (acc.ac_plain first) }
    in
    let final =
      List.fold_left (fun inter tbl -> join_step db acc q inter tbl) start rest
    in
    final.node

let best_join db acc q =
  let tables = q.Query.q_tables in
  if List.length tables <= 1 then plan_join db acc q tables
  else if List.length tables <= join_order_limit then begin
    let orders = Im_util.Combin.permutations tables in
    let planned = List.map (plan_join db acc q) orders in
    match
      Im_util.List_ext.min_by (fun (n : Plan.node) -> n.Plan.est_cost) planned
    with
    | Some n -> n
    | None -> assert false
  end
  else begin
    (* Greedy: start from the most selective base table, then repeatedly
       add the join partner yielding the cheapest intermediate. *)
    let base_rows tbl = (acc.ac_plain tbl).Access_path.out_rows in
    let first =
      match Im_util.List_ext.min_by base_rows tables with
      | Some t -> t
      | None -> assert false
    in
    let rec grow inter remaining =
      match remaining with
      | [] -> inter.node
      | _ ->
        let extended =
          List.map (fun tbl -> (tbl, join_step db acc q inter tbl)) remaining
        in
        (match
           Im_util.List_ext.min_by
             (fun (_, i) -> i.node.Plan.est_cost)
             extended
         with
         | Some (tbl, next) ->
           grow next (List.filter (fun t -> t <> tbl) remaining)
         | None -> assert false)
    in
    let start =
      { tables = [ first ]; node = node_of_choice (acc.ac_plain first) }
    in
    grow start (List.filter (fun t -> t <> first) tables)
  end

(* ---- Aggregation and ordering ---- *)

let add_aggregate db q (node : Plan.node) =
  if Query.has_aggregates q || q.Query.q_group_by <> [] then begin
    let groups =
      Cardinality.group_count db q.Query.q_group_by ~rows:node.Plan.est_rows
    in
    Some
      {
        Plan.op = Plan.Hash_aggregate node;
        est_rows = groups;
        est_cost =
          node.Plan.est_cost
          +. (node.Plan.est_rows *. Cost_params.cpu_hash)
          +. (groups *. Cost_params.cpu_row);
      }
  end
  else None

let add_sort q (node : Plan.node) =
  if q.Query.q_order_by = [] then node
  else begin
    let n = Float.max 2.0 node.Plan.est_rows in
    {
      Plan.op = Plan.Sort (node, q.Query.q_order_by);
      est_rows = node.Plan.est_rows;
      est_cost =
        node.Plan.est_cost
        +. (Cost_params.cpu_sort_factor *. n *. (Float.log n /. Float.log 2.));
    }
  end

let plan_with ~provider db q =
  let acc = memoized_accessors provider db q in
  match q.Query.q_tables with
  | [ tbl ] ->
    (* Single table: access-path choice can also satisfy ORDER BY. *)
    let choice = acc.ac_plain tbl in
    let base = node_of_choice choice in
    (match add_aggregate db q base with
     | Some agg ->
       let root = add_sort q agg in
       { Plan.root; query_id = q.Query.q_id; usages = Plan.collect_usages root }
     | None ->
       let sorted_for_free =
         Access_path.provides_order db choice q.Query.q_order_by
       in
       let root = if sorted_for_free then base else add_sort q base in
       (* If sorting is required, re-examine candidates: a pricier access
          path that avoids the sort may win overall. *)
       let root =
         if sorted_for_free || q.Query.q_order_by = [] then root
         else begin
           let alternatives = acc.ac_candidates tbl in
           let with_sort_cost (c : Access_path.choice) =
             let n = node_of_choice c in
             if Access_path.provides_order db c q.Query.q_order_by then n
             else add_sort q n
           in
           match
             Im_util.List_ext.min_by
               (fun (n : Plan.node) -> n.Plan.est_cost)
               (List.map with_sort_cost alternatives)
           with
           | Some best -> best
           | None -> root
         end
       in
       { Plan.root; query_id = q.Query.q_id; usages = Plan.collect_usages root })
  | _ ->
    let joined = best_join db acc q in
    let root =
      match add_aggregate db q joined with
      | Some agg -> add_sort q agg
      | None -> add_sort q joined
    in
    { Plan.root; query_id = q.Query.q_id; usages = Plan.collect_usages root }

let optimize db config q =
  Atomic.incr counter;
  let plan = plan_with ~provider:(direct_provider db config) db q in
  count_call plan;
  plan
