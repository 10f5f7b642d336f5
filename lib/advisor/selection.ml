module Database = Im_catalog.Database
module Config = Im_catalog.Config
module Index = Im_catalog.Index
module Query = Im_sqlir.Query
module Predicate = Im_sqlir.Predicate
module Workload = Im_workload.Workload
module Service = Im_costsvc.Service
module Metrics = Im_obs.Metrics
module Access_path = Im_optimizer.Access_path
module Optimizer = Im_optimizer.Optimizer
module Derive = Im_derive.Derive

type outcome = {
  s_config : Config.t;
  s_budget_pages : int;
  s_pages : int;
  s_base_cost : float;
  s_final_cost : float;
  s_candidates : int;
  s_optimizer_calls : int;
  s_rounds : int;
  s_cells_recosted : int;
  s_cells_certified : int;
  s_cells_reused : int;
  s_shared_evals : int;
}

let m_recosted = Metrics.counter "selection_cells_recosted_total"
let m_certified = Metrics.counter "selection_cells_certified_total"
let m_reused = Metrics.counter "selection_cells_reused_total"
let m_shared = Metrics.counter "selection_shared_evals_total"

(* ---- The access-path certificate (DESIGN.md §2l) ---- *)

(* Every access-path input [plan_with] can request for [q], under any
   join order: a superset of the planner's plain and probe inputs. *)
let probes db q =
  let probe (col : Predicate.colref) =
    {
      (Optimizer.access_input q col.cr_table) with
      Access_path.ap_param_eq =
        [ (col.cr_column, Im_optimizer.Cardinality.density db col) ];
    }
  in
  List.concat_map
    (function
      | Predicate.Join (a, b) -> [ a; b ]
      | Predicate.Cmp _ | Between _ | In_list _ -> [])
    (Query.join_predicates q)
  |> List.filter (fun (col : Predicate.colref) ->
         List.mem col.cr_table q.Query.q_tables)
  |> List.sort_uniq compare
  |> List.map probe
  |> List.append (List.map (Optimizer.access_input q) q.Query.q_tables)
  |> Array.of_list

(* [ix]'s atom on [input], from the deriver's cache (a warm service
   already holds it), reduced to its cheapest own path and a lower bound
   on every path it adds: its intersections each cost at least its
   [ss_base], since every other term is non-negative. [infinity] on
   inputs of other tables, which [ix] cannot touch. *)
let own_and_bound d q (input : Access_path.input) ix =
  if input.ap_table <> ix.Index.idx_table then (Float.infinity, Float.infinity)
  else
    let a = Derive.atom d q input ix in
    let own =
      List.fold_left
        (fun acc (ch : Access_path.choice) -> Float.min acc ch.cost)
        Float.infinity a.at_choices
    in
    (own, match a.at_seek with Some ss -> Float.min own ss.ss_base | None -> own)

(* The cheapest path through the heap or one index of [config]: the
   best path, or above it when an intersection wins — an upper bound
   keeps the certificate sound. *)
let single_best d db config q (input : Access_path.input) =
  List.fold_left
    (fun acc ix -> Float.min acc (fst (own_and_bound d q input ix)))
    (Access_path.heap_choice db input).cost
    (Config.on_table config input.ap_table)

(* Strictly above every current best: tie-breaking never matters. *)
let beats lbs bests = Array.for_all2 (fun lb best -> lb > best) lbs bests

(* A single-table ORDER BY without aggregation is never certified:
   when its best path needs a sort, [plan_with] may pick a costlier
   path that provides the order, so a candidate whose own paths all
   lose to the current best can still change the plan. *)
let may_trade_sort q =
  match q.Query.q_tables with
  | [ _ ] ->
    q.Query.q_order_by <> []
    && (not (Query.has_aggregates q))
    && q.Query.q_group_by = []
  | _ -> false

let certifies db config q ix =
  (not (may_trade_sort q))
  &&
  let d = Derive.create db and ps = probes db q in
  beats
    (Array.map (fun p -> snd (own_and_bound d q p ix)) ps)
    (Array.map (single_best d db config q) ps)

(* The certificate oracle, when the deriver validates
   ([IM_VALIDATE_DERIVE]): re-plan outside the cost service, so its
   counters are the same with it on and off. *)
let check_cell db config q expected =
  let p = Optimizer.plan_with ~provider:(Optimizer.direct_provider db config) db q in
  let got = Im_optimizer.Plan.cost p in
  if Int64.bits_of_float got <> Int64.bits_of_float expected then
    raise
      (Derive.Mismatch
         (Printf.sprintf "selection certificate kept %.17g for %s, optimizer: %.17g"
            expected (Query.to_sql q) got))

(* One greedy round's state, reached by committing a fixed sequence of
   candidates: the workload cost of [config @ [c]] per candidate [c]
   ([nan] until some pass costs it), the per-query cost row under
   [config], and the rounds reached from here, keyed by the committed
   candidate. Passes that commit the same sequence walk the same nodes
   and share every cost already computed. The key is the commit order,
   not the sorted set: the maintenance term sums per index in
   configuration order, so a permuted configuration need not cost the
   same float. *)
type round = {
  r_costs : float array;
  r_row : float array;
  mutable r_next : (int * round) list;
}

type context = {
  svc : Service.t;
  workload : Workload.t;
  queries : Query.t array;  (* entry order *)
  cands : Index.t array;
  pages : int array;
  cand_queries : int array array;
      (* per candidate, ascending ids of the queries referencing its
         table — the only rows the candidate can change *)
  query_cells : (int * int) array array;
      (* per query, in candidate order, the cells (c, k) with
         cand_queries.(c).(k) = that query *)
  db : Database.t;
  deriver : Derive.t;
  probes : Access_path.input array array;
      (* per query; [||] when [may_trade_sort], never certified *)
  root_bests : float array array;  (* per query and probe: heap costs *)
  lbs : float array array array;
      (* per cell (c, k), c's lower bound on each probe of its query *)
  root : round;
  base_cost : float;
  base_calls : int;  (* what-if calls spent costing the base row *)
}

let context ?service ?prune db workload =
  let svc =
    match service with
    | Some s -> s
    | None -> Im_merging.Cost_eval.default_service db
  in
  let calls_before = Service.opt_calls svc in
  let schema = Database.schema db in
  let candidates =
    List.concat_map
      (fun q -> Im_tuning.Candidates.for_query schema q)
      (Workload.queries workload)
    |> Im_util.List_ext.dedup_keep_order Index.equal
  in
  (* Frontier pruning (Aouiche-style candidate generation): only
     candidates whose column set the workload supports — or that the
     workload never touched at all — enter the knapsack greedy, so the
     per-candidate costing loop shrinks with the frontier. *)
  let candidates =
    match prune with
    | None -> candidates
    | Some fr -> List.filter (Im_mine.Mine.keep_index fr) candidates
  in
  let cands = Array.of_list candidates in
  let queries =
    Array.of_list (List.map (fun e -> e.Workload.query) workload.Workload.entries)
  in
  let by_table = Hashtbl.create 16 in
  for j = Array.length queries - 1 downto 0 do
    List.iter
      (fun tbl ->
        let js = Option.value ~default:[] (Hashtbl.find_opt by_table tbl) in
        Hashtbl.replace by_table tbl (j :: js))
      queries.(j).Query.q_tables
  done;
  let cand_queries =
    Array.map
      (fun ix ->
        Array.of_list
          (Option.value ~default:[] (Hashtbl.find_opt by_table ix.Index.idx_table)))
      cands
  in
  let per_query = Array.make (Array.length queries) [] in
  for c = Array.length cands - 1 downto 0 do
    Array.iteri (fun k j -> per_query.(j) <- (c, k) :: per_query.(j)) cand_queries.(c)
  done;
  let query_cells = Array.map Array.of_list per_query in
  let deriver =
    match Service.deriver svc with Some d -> d | None -> Derive.create db
  in
  let probes =
    Array.map (fun q -> if may_trade_sort q then [||] else probes db q) queries
  in
  (* Query-major, like the fill. *)
  let lbs = Array.map (fun js -> Array.make (Array.length js) [||]) cand_queries in
  Array.iteri
    (fun j qcells ->
      Array.iter
        (fun (c, k) ->
          let lb p = snd (own_and_bound deriver queries.(j) p cands.(c)) in
          lbs.(c).(k) <- Array.map lb probes.(j))
        qcells)
    query_cells;
  let row = Array.map (fun q -> Service.query_cost svc Config.empty q) queries in
  let base_cost =
    Service.workload_cost_by_entry svc Config.empty workload (Array.get row)
  in
  {
    svc;
    workload;
    queries;
    cands;
    pages = Array.map (Database.index_pages db) cands;
    cand_queries;
    query_cells;
    db;
    deriver;
    root_bests =
      Array.map (Array.map (fun p -> (Access_path.heap_choice db p).cost)) probes;
    probes;
    lbs;
    root =
      { r_costs = Array.make (Array.length cands) Float.nan; r_row = row; r_next = [] };
    base_cost;
    base_calls = Service.opt_calls svc - calls_before;
  }

(* A pass stops at [max_indexes] indexes, or when the best candidate
   improves workload cost by no more than [min_benefit] relative. *)
let max_indexes = 40
let min_benefit = 0.002

let run ctx ~budget_pages =
  let svc = ctx.svc in
  let calls_before = Service.opt_calls svc in
  let m = Array.length ctx.cands and n = Array.length ctx.queries in
  (* Cell cells.(c).(k): the cost of query cand_queries.(c).(k) under
     [config @ [c]]; [nan] marks a stale or never-filled cell. Every
     other query's cost under [config @ [c]] is its entry in [row].
     bests.(j).(i): the cheapest path through the heap or one index of
     [config] for probe i of query j. *)
  let cells =
    Array.map (fun js -> Array.make (Array.length js) Float.nan) ctx.cand_queries
  in
  let row = Array.copy ctx.root.r_row in
  let bests = Array.map Array.copy ctx.root_bests in
  let certified c k j = ctx.probes.(j) <> [||] && beats ctx.lbs.(c).(k) bests.(j) in
  let scratch = Array.make n 0. in
  let alive = Array.make m true in
  let fresh = Array.make m false in
  let with_c = Array.make m Config.empty in
  let config = ref Config.empty and size = ref 0 and pages_now = ref 0 in
  let cost_now = ref ctx.base_cost and node = ref ctx.root and stop = ref false in
  let rounds = ref 0 and recosted = ref 0 and certs = ref 0 in
  let reused = ref 0 and shared = ref 0 in
  while (not !stop) && !size < max_indexes do
    incr rounds;
    let nd = !node in
    (* Pages only grow: a candidate that does not fit now never will. *)
    let need = ref 0 in
    for c = 0 to m - 1 do
      if alive.(c) && !pages_now + ctx.pages.(c) > budget_pages then
        alive.(c) <- false;
      fresh.(c) <- alive.(c) && Float.is_nan nd.r_costs.(c);
      if fresh.(c) then begin
        incr need;
        with_c.(c) <- Config.add ctx.cands.(c) !config
      end
      else if alive.(c) then incr shared
    done;
    (* Query-major fill of the stale cells. Keys are field reads, so
       the order buys no lookup; it is kept because the cost service's
       LRU recency, and so its hit, miss and eviction counts, follow
       it. A certified cell is the query's current cost. *)
    let filled_before = !recosted + !certs in
    Array.iteri
      (fun j qcells ->
        let q = ctx.queries.(j) in
        Array.iter
          (fun (c, k) ->
            if fresh.(c) && Float.is_nan cells.(c).(k) then
              if certified c k j then begin
                if Derive.validating ctx.deriver then
                  check_cell ctx.db with_c.(c) q row.(j);
                cells.(c).(k) <- row.(j);
                incr certs
              end
              else begin
                cells.(c).(k) <- Service.query_cost svc with_c.(c) q;
                incr recosted
              end)
          qcells)
      ctx.query_cells;
    reused := !reused + (!need * n) - (!recosted + !certs - filled_before);
    for c = 0 to m - 1 do
      if fresh.(c) then begin
        Array.blit row 0 scratch 0 n;
        Array.iteri (fun k j -> scratch.(j) <- cells.(c).(k)) ctx.cand_queries.(c);
        nd.r_costs.(c) <-
          Service.workload_cost_by_entry svc with_c.(c) ctx.workload
            (Array.get scratch)
      end
    done;
    (* Benefit per page, the classic knapsack-style greedy score; the
       first candidate with the highest score wins. *)
    let best = ref (-1) and best_score = ref 0. in
    for c = 0 to m - 1 do
      if alive.(c) then begin
        let benefit = !cost_now -. nd.r_costs.(c) in
        if benefit > min_benefit *. !cost_now then begin
          let score = benefit /. float_of_int ctx.pages.(c) in
          if !best < 0 || score > !best_score then begin
            best := c;
            best_score := score
          end
        end
      end
    done;
    if !best < 0 then stop := true
    else begin
      let b = !best in
      let next = Config.add ctx.cands.(b) !config in
      let rel = ctx.cand_queries.(b) in
      (* Narrowed staleness: a query b certifies keeps its cost, its
         bests and its cells — b's paths lose to the best of every
         probe under [config], hence under [config @ [c]] for any c. *)
      let kept = Array.mapi (fun k j -> certified b k j) rel in
      (match List.assoc_opt b nd.r_next with
       | Some child ->
         Array.blit child.r_row 0 row 0 n;
         node := child
       | None ->
         Array.iteri
           (fun k j ->
             if Float.is_nan cells.(b).(k) then
               if kept.(k) then incr certs
               else begin
                 incr recosted;
                 row.(j) <- Service.query_cost svc next ctx.queries.(j)
               end
             else row.(j) <- cells.(b).(k))
           rel;
         let child =
           { r_costs = Array.make m Float.nan; r_row = Array.copy row; r_next = [] }
         in
         nd.r_next <- (b, child) :: nd.r_next;
         node := child);
      alive.(b) <- false;
      (* Only queries referencing b's table that b does not certify see
         a new relevant configuration: their cells, and no others, go
         stale. *)
      Array.iteri
        (fun k j ->
          let qcells = ctx.query_cells.(j) in
          if not kept.(k) then begin
            Array.iter (fun (c, k') -> cells.(c).(k') <- Float.nan) qcells;
            Array.iteri
              (fun i p ->
                bests.(j).(i) <-
                  Float.min bests.(j).(i)
                    (fst (own_and_bound ctx.deriver ctx.queries.(j) p ctx.cands.(b))))
              ctx.probes.(j)
          end
          else if Derive.validating ctx.deriver then begin
            let q = ctx.queries.(j) in
            check_cell ctx.db next q row.(j);
            Array.iter
              (fun (c, k') ->
                if alive.(c) && not (Float.is_nan cells.(c).(k')) then
                  check_cell ctx.db (Config.add ctx.cands.(c) next) q cells.(c).(k'))
              qcells
          end)
        rel;
      config := next;
      incr size;
      pages_now := !pages_now + ctx.pages.(b);
      cost_now := nd.r_costs.(b)
    end
  done;
  Metrics.Counter.add m_recosted !recosted;
  Metrics.Counter.add m_certified !certs;
  Metrics.Counter.add m_reused !reused;
  Metrics.Counter.add m_shared !shared;
  {
    s_config = !config;
    s_budget_pages = budget_pages;
    s_pages = !pages_now;
    s_base_cost = ctx.base_cost;
    s_final_cost = !cost_now;
    s_candidates = m;
    s_optimizer_calls = Service.opt_calls svc - calls_before;
    s_rounds = !rounds;
    s_cells_recosted = !recosted;
    s_cells_certified = !certs;
    s_cells_reused = !reused;
    s_shared_evals = !shared;
  }

let select ?service ?prune db workload ~budget_pages =
  let ctx = context ?service ?prune db workload in
  let o = run ctx ~budget_pages in
  { o with s_optimizer_calls = o.s_optimizer_calls + ctx.base_calls }
