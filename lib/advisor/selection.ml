module Database = Im_catalog.Database
module Config = Im_catalog.Config
module Index = Im_catalog.Index
module Query = Im_sqlir.Query
module Workload = Im_workload.Workload
module Service = Im_costsvc.Service
module Metrics = Im_obs.Metrics

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
  s_cells_reused : int;
  s_shared_evals : int;
}

let m_recosted = Metrics.counter "selection_cells_recosted_total"
let m_reused = Metrics.counter "selection_cells_reused_total"
let m_shared = Metrics.counter "selection_shared_evals_total"

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
    query_cells = Array.map Array.of_list per_query;
    root =
      { r_costs = Array.make (Array.length cands) Float.nan; r_row = row; r_next = [] };
    base_cost;
    base_calls = Service.opt_calls svc - calls_before;
  }

let run ?(max_indexes = 40) ?(min_benefit = 0.002) ctx ~budget_pages =
  let svc = ctx.svc in
  let calls_before = Service.opt_calls svc in
  let m = Array.length ctx.cands and n = Array.length ctx.queries in
  (* Cell cells.(c).(k): the cost of query cand_queries.(c).(k) under
     [config @ [c]]; [nan] marks a stale or never-filled cell. Every
     other query's cost under [config @ [c]] is its entry in [row]. *)
  let cells =
    Array.map (fun js -> Array.make (Array.length js) Float.nan) ctx.cand_queries
  in
  let row = Array.copy ctx.root.r_row in
  let scratch = Array.make n 0. in
  let alive = Array.make m true in
  let fresh = Array.make m false in
  let with_c = Array.make m Config.empty in
  let config = ref Config.empty and size = ref 0 and pages_now = ref 0 in
  let cost_now = ref ctx.base_cost and node = ref ctx.root and stop = ref false in
  let rounds = ref 0 and recosted = ref 0 and reused = ref 0 and shared = ref 0 in
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
    (* Query-major fill of the stale cells: consecutive what-if calls
       share one query. *)
    let recosted_before = !recosted in
    Array.iteri
      (fun j qcells ->
        let q = ctx.queries.(j) in
        Array.iter
          (fun (c, k) ->
            if fresh.(c) && Float.is_nan cells.(c).(k) then begin
              cells.(c).(k) <- Service.query_cost svc with_c.(c) q;
              incr recosted
            end)
          qcells)
      ctx.query_cells;
    reused := !reused + (!need * n) - (!recosted - recosted_before);
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
      (match List.assoc_opt b nd.r_next with
       | Some child ->
         Array.blit child.r_row 0 row 0 n;
         node := child
       | None ->
         Array.iteri
           (fun k j ->
             row.(j) <-
               (if Float.is_nan cells.(b).(k) then begin
                  incr recosted;
                  Service.query_cost svc next ctx.queries.(j)
                end
                else cells.(b).(k)))
           rel;
         let child =
           { r_costs = Array.make m Float.nan; r_row = Array.copy row; r_next = [] }
         in
         nd.r_next <- (b, child) :: nd.r_next;
         node := child);
      (* Only queries referencing b's table see a new relevant
         configuration: their cells, and no others, go stale. *)
      Array.iter
        (fun j ->
          Array.iter (fun (c, k) -> cells.(c).(k) <- Float.nan) ctx.query_cells.(j))
        rel;
      config := next;
      incr size;
      pages_now := !pages_now + ctx.pages.(b);
      cost_now := nd.r_costs.(b);
      alive.(b) <- false
    end
  done;
  Metrics.Counter.add m_recosted !recosted;
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
    s_cells_reused = !reused;
    s_shared_evals = !shared;
  }

let select ?service ?max_indexes ?min_benefit ?prune db workload ~budget_pages =
  let ctx = context ?service ?prune db workload in
  let o = run ?max_indexes ?min_benefit ctx ~budget_pages in
  { o with s_optimizer_calls = o.s_optimizer_calls + ctx.base_calls }
