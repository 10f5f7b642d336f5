module Index = Im_catalog.Index
module Query = Im_sqlir.Query
module Workload = Im_workload.Workload
module Metrics = Im_obs.Metrics

let m_itemsets = Metrics.gauge "mine_itemsets"
let m_supported_tables = Metrics.gauge "mine_supported_tables"
let m_kept = Metrics.counter "mine_kept_pairs_total"
let m_pruned = Metrics.counter "mine_pruned_pairs_total"

(* One distinct (table, column-set) itemset: sorted distinct columns
   with its accumulated frequency mass. *)
type itemset = {
  is_cols : string array;  (* sorted, distinct *)
  mutable is_mass : float;
}

type table_acc = { ta_sets : (string, itemset) Hashtbl.t }

type t = {
  mn_by_table : (string, table_acc) Hashtbl.t;
  (* Canonical query text -> the statement's per-table itemsets,
     resolved once: a repeated statement is this lookup and a few field
     bumps — never a second referenced-columns walk. *)
  mn_by_query : (string, itemset list) Hashtbl.t;
  mutable mn_statements : int;
  mutable mn_mass : float;
  mutable mn_itemsets : int;
}

let create () =
  {
    mn_by_table = Hashtbl.create 64;
    mn_by_query = Hashtbl.create 1024;
    mn_statements = 0;
    mn_mass = 0.;
    mn_itemsets = 0;
  }

(* Columns never contain control characters, so a separator below the
   printable range makes the key injective. *)
let colset_key cols = String.concat "\x1f" cols

let table_acc t tbl =
  match Hashtbl.find_opt t.mn_by_table tbl with
  | Some ta -> ta
  | None ->
    let ta = { ta_sets = Hashtbl.create 64 } in
    Hashtbl.add t.mn_by_table tbl ta;
    ta

let itemset_for t tbl cols =
  let ta = table_acc t tbl in
  let key = colset_key cols in
  match Hashtbl.find_opt ta.ta_sets key with
  | Some s -> s
  | None ->
    let s = { is_cols = Array.of_list cols; is_mass = 0. } in
    Hashtbl.add ta.ta_sets key s;
    t.mn_itemsets <- t.mn_itemsets + 1;
    s

let observe t ?(freq = 1.0) q =
  let sets =
    match Hashtbl.find_opt t.mn_by_query q.Query.q_canon with
    | Some sets -> sets
    | None ->
      let sets =
        List.filter_map
          (fun tbl ->
            match List.sort_uniq compare (Query.referenced_columns q tbl) with
            | [] -> None
            | cols -> Some (itemset_for t tbl cols))
          q.Query.q_tables
      in
      Hashtbl.add t.mn_by_query q.Query.q_canon sets;
      sets
  in
  t.mn_statements <- t.mn_statements + 1;
  t.mn_mass <- t.mn_mass +. freq;
  List.iter (fun s -> s.is_mass <- s.is_mass +. freq) sets

let observe_workload t (w : Workload.t) =
  List.iter
    (fun (e : Workload.entry) ->
      observe t ~freq:e.Workload.freq e.Workload.query)
    w.Workload.entries

let statements t = t.mn_statements
let mass t = t.mn_mass
let itemsets t = t.mn_itemsets

(* ---- Frontier ---- *)

type frontier = {
  fr_support : float;
  fr_threshold : float;  (* absolute mass threshold *)
  fr_mass : float;
  fr_itemsets : int;
  fr_supported_tables : int;
  (* Per table, the observed itemsets in sorted-key order: support sums
     walk this array left to right, so a verdict depends only on the
     accumulated masses — not on hash or feed order. *)
  fr_tables : (string, (string array * float) array) Hashtbl.t;
  fr_memo : (string, float) Hashtbl.t;  (* (table + key) -> support *)
  (* Accepted-merge products the search marked as justified (see
     [bless]): they count as supported without distorting the honest
     [support_of] masses. *)
  fr_blessed : (string, unit) Hashtbl.t;
  mutable fr_kept : int;
  mutable fr_pruned : int;
}

let frontier t ~support =
  let support = Float.max 0. support in
  let threshold = support *. t.mn_mass in
  let tables = Hashtbl.create (Hashtbl.length t.mn_by_table) in
  let supported_tables = ref 0 in
  Hashtbl.iter
    (fun tbl ta ->
      let sets =
        Hashtbl.fold (fun key s acc -> (key, s) :: acc) ta.ta_sets []
        |> List.sort (fun (k1, _) (k2, _) -> compare k1 k2)
        |> List.map (fun (_, s) -> (s.is_cols, s.is_mass))
        |> Array.of_list
      in
      if
        Array.exists (fun (_, m) -> m > 0. && m >= threshold) sets
      then incr supported_tables;
      Hashtbl.add tables tbl sets)
    t.mn_by_table;
  Metrics.Gauge.set_int m_itemsets t.mn_itemsets;
  Metrics.Gauge.set_int m_supported_tables !supported_tables;
  {
    fr_support = support;
    fr_threshold = threshold;
    fr_mass = t.mn_mass;
    fr_itemsets = t.mn_itemsets;
    fr_supported_tables = !supported_tables;
    fr_tables = tables;
    fr_memo = Hashtbl.create 256;
    fr_blessed = Hashtbl.create 32;
    fr_kept = 0;
    fr_pruned = 0;
  }

(* [cols] sorted list ⊆ [set] sorted array, by merge walk. *)
let subset_sorted cols set =
  let n = Array.length set in
  let rec go cs i =
    match cs with
    | [] -> true
    | c :: tl ->
      if i >= n then false
      else
        let cmp = compare set.(i) (c : string) in
        if cmp < 0 then go cs (i + 1)
        else if cmp = 0 then go tl (i + 1)
        else false
  in
  go cols 0

let blessed_key ~table cols = table ^ "\x1e" ^ colset_key cols

(* Support of an already-sorted distinct column list. *)
let support_sorted fr ~table cols =
  let memo_key = blessed_key ~table cols in
  match Hashtbl.find_opt fr.fr_memo memo_key with
  | Some s -> s
  | None ->
    let s =
      match Hashtbl.find_opt fr.fr_tables table with
      | None -> 0.
      | Some sets ->
        Array.fold_left
          (fun acc (set, mass) ->
            if subset_sorted cols set then acc +. mass else acc)
          0. sets
    in
    Hashtbl.add fr.fr_memo memo_key s;
    s

let support_of fr ~table cols =
  support_sorted fr ~table (List.sort_uniq compare cols)

let supported_sorted fr ~table cols =
  Hashtbl.mem fr.fr_blessed (blessed_key ~table cols)
  ||
  let s = support_sorted fr ~table cols in
  s > 0. && s >= fr.fr_threshold

let supported fr ~table cols =
  supported_sorted fr ~table (List.sort_uniq compare cols)

let index_cols ix = List.sort_uniq compare ix.Index.idx_columns

let bless fr ix =
  Hashtbl.replace fr.fr_blessed
    (blessed_key ~table:ix.Index.idx_table (index_cols ix))
    ()

let evidence fr ix =
  Hashtbl.mem fr.fr_blessed
    (blessed_key ~table:ix.Index.idx_table (index_cols ix))
  || support_sorted fr ~table:ix.Index.idx_table (index_cols ix) > 0.

let tally fr keep =
  if keep then begin
    fr.fr_kept <- fr.fr_kept + 1;
    Metrics.Counter.incr m_kept
  end
  else begin
    fr.fr_pruned <- fr.fr_pruned + 1;
    Metrics.Counter.incr m_pruned
  end;
  keep

let keep_block fr indexes =
  match indexes with
  | [] | [ _ ] -> true
  | ix :: _ ->
    let table = ix.Index.idx_table in
    let cols = List.map index_cols indexes in
    let union = List.sort_uniq compare (List.concat cols) in
    let width = List.length union in
    (* The union collapses into one member's column set: no new column
       combination, a pure storage win. *)
    let collapses = List.exists (fun cs -> List.length cs = width) cols in
    (* All members define the same column set (merge products can
       duplicate an existing index): merging is free, always keep. *)
    let duplicates =
      match cols with
      | first :: rest -> List.for_all (fun cs -> cs = first) rest
      | [] -> true
    in
    let member_supported cs = supported_sorted fr ~table cs in
    tally fr
      (supported_sorted fr ~table union
      || duplicates
      (* Subset-absorbing merges stay only around a hot member: cold
         indexes swallowing cold indexes is exactly the quadratic tail
         the workload cannot justify costing. *)
      || (collapses && List.exists member_supported cols)
      (* Every parent is itself frequent (or a blessed merge product):
         merging hot indexes is the storage-vs-cost tradeoff the bound
         exists to arbitrate, so it stays costable even when no single
         statement covers the union. *)
      || List.for_all member_supported cols
      (* Correctness valve: the workload never touched any parent, so
         the miner has no evidence either way — leave the pair to the
         cost-bounded search. *)
      || List.for_all (fun i -> not (evidence fr i)) indexes)

let keep_pair fr i1 i2 = keep_block fr [ i1; i2 ]

let keep_index fr ix =
  let cols = index_cols ix in
  let s = support_sorted fr ~table:ix.Index.idx_table cols in
  s = 0. || s >= fr.fr_threshold

type stats = {
  fs_support : float;
  fs_mass : float;
  fs_itemsets : int;
  fs_supported_tables : int;
  fs_kept : int;
  fs_pruned : int;
}

let frontier_stats fr =
  {
    fs_support = fr.fr_support;
    fs_mass = fr.fr_mass;
    fs_itemsets = fr.fr_itemsets;
    fs_supported_tables = fr.fr_supported_tables;
    fs_kept = fr.fr_kept;
    fs_pruned = fr.fr_pruned;
  }
