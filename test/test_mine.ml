(* Tests for the frequent-itemset miner and the merge-frontier pruning
   predicate: feed-order determinism, support monotonicity, the
   keep_pair/keep_block rule set (union support, duplicates, hot
   containment, all-parents-supported, bless, the correctness valve),
   and --prune-support 0 bit-identity with the unpruned search (greedy
   and exhaustive). *)

module Mine = Im_mine.Mine
module Scale = Im_scale.Scale
module Service = Im_costsvc.Service
module Database = Im_catalog.Database
module Index = Im_catalog.Index
module Schema = Im_sqlir.Schema
module Datatype = Im_sqlir.Datatype
module Value = Im_sqlir.Value
module Predicate = Im_sqlir.Predicate
module Query = Im_sqlir.Query
module Workload = Im_workload.Workload
module Search = Im_merging.Search
module Merge = Im_merging.Merge

let tc = Alcotest.test_case
let cr = Predicate.colref

let sdb =
  lazy (Im_workload.Synthetic.database ~seed:11 Im_workload.Synthetic.synthetic1)

let rags ?(seed = 3) n db =
  Im_workload.Ragsgen.generate db ~rng:(Im_util.Rng.create seed) ~n

(* Per-entry (table, sorted column set) footprints: exactly the
   itemsets the miner accumulates. *)
let footprints (w : Workload.t) =
  List.concat_map
    (fun (e : Workload.entry) ->
      List.filter_map
        (fun tbl ->
          match
            List.sort_uniq compare (Query.referenced_columns e.Workload.query tbl)
          with
          | [] -> None
          | cols -> Some (tbl, cols))
        e.Workload.query.Query.q_tables)
    w.Workload.entries
  |> List.sort_uniq compare

(* ---- Feed-order determinism ---- *)

let test_feed_order_determinism () =
  let db = Lazy.force sdb in
  let w = rags ~seed:21 20 db in
  let feed entries =
    let t = Mine.create () in
    List.iter
      (fun (e : Workload.entry) -> Mine.observe t ~freq:e.Workload.freq e.Workload.query)
      entries;
    t
  in
  let forward = feed w.Workload.entries in
  let backward = feed (List.rev w.Workload.entries) in
  Alcotest.(check int) "same statements" (Mine.statements forward)
    (Mine.statements backward);
  Alcotest.(check (float 1e-9)) "same mass" (Mine.mass forward)
    (Mine.mass backward);
  Alcotest.(check int) "same itemsets" (Mine.itemsets forward)
    (Mine.itemsets backward);
  List.iter
    (fun support ->
      let f1 = Mine.frontier forward ~support in
      let f2 = Mine.frontier backward ~support in
      List.iter
        (fun (table, cols) ->
          Alcotest.(check (float 0.))
            (Printf.sprintf "S=%g %s(%s): identical support" support table
               (String.concat "," cols))
            (Mine.support_of f1 ~table cols)
            (Mine.support_of f2 ~table cols);
          Alcotest.(check bool) "identical verdict"
            (Mine.supported f1 ~table cols)
            (Mine.supported f2 ~table cols))
        (footprints w);
      let s1 = Mine.frontier_stats f1 and s2 = Mine.frontier_stats f2 in
      Alcotest.(check int) "same supported tables" s1.Mine.fs_supported_tables
        s2.Mine.fs_supported_tables)
    [ 0.0; 0.05; 0.2; 0.5 ]

(* ---- Support monotonicity: raising S never grows the frontier ---- *)

let test_support_monotonic () =
  let db = Lazy.force sdb in
  let w = rags ~seed:31 25 db in
  let t = Mine.create () in
  Mine.observe_workload t w;
  let thresholds = [ 0.0; 0.02; 0.05; 0.1; 0.25; 0.5; 1.0 ] in
  let frontiers = List.map (fun s -> (s, Mine.frontier t ~support:s)) thresholds in
  let rec adjacent = function
    | (s_lo, f_lo) :: ((s_hi, f_hi) :: _ as rest) ->
      List.iter
        (fun (table, cols) ->
          if Mine.supported f_hi ~table cols then
            Alcotest.(check bool)
              (Printf.sprintf "%s(%s) supported at %g => supported at %g" table
                 (String.concat "," cols) s_hi s_lo)
              true
              (Mine.supported f_lo ~table cols))
        (footprints w);
      let st_lo = Mine.frontier_stats f_lo and st_hi = Mine.frontier_stats f_hi in
      Alcotest.(check bool) "supported tables never grow" true
        (st_hi.Mine.fs_supported_tables <= st_lo.Mine.fs_supported_tables);
      adjacent rest
    | _ -> ()
  in
  adjacent frontiers;
  (* At S = 0 every observed footprint is supported. *)
  let f0 = List.assoc 0.0 frontiers in
  List.iter
    (fun (table, cols) ->
      Alcotest.(check bool) "all observed supported at 0" true
        (Mine.supported f0 ~table cols))
    (footprints w)

(* ---- The keep rule set, on a hand-built workload ---- *)

(* 90 % of the mass co-accesses (a, b); a sliver touches c; x, y are
   never referenced. Threshold 0.5 makes {a}, {b}, {a,b} supported and
   {c} evidence-but-cold. *)
let rule_frontier () =
  let t = Mine.create () in
  let q_ab =
    Query.make ~id:"q_ab"
      ~select:[ Query.Sel_col (cr "t" "a"); Query.Sel_col (cr "t" "b") ]
      [ "t" ]
  in
  let q_c = Query.make ~id:"q_c" ~select:[ Query.Sel_col (cr "t" "c") ] [ "t" ] in
  Mine.observe t ~freq:9. q_ab;
  Mine.observe t ~freq:1. q_c;
  Mine.frontier t ~support:0.5

let ix cols = Index.make ~table:"t" cols

let test_keep_rules () =
  let fr = rule_frontier () in
  let i_a = ix [ "a" ] and i_b = ix [ "b" ] and i_c = ix [ "c" ] in
  let i_x = ix [ "x" ] and i_y = ix [ "y" ] in
  Alcotest.(check bool) "union supported: kept" true (Mine.keep_pair fr i_a i_b);
  Alcotest.(check bool) "hot + cold, union unsupported: pruned" false
    (Mine.keep_pair fr i_a i_c);
  Alcotest.(check bool) "valve: both parents evidence-free kept" true
    (Mine.keep_pair fr i_x i_y);
  Alcotest.(check bool) "partial evidence does not open the valve" false
    (Mine.keep_pair fr i_c i_x);
  Alcotest.(check bool) "duplicate column sets always kept" true
    (Mine.keep_pair fr i_c (ix [ "c" ]));
  (* Containment: the union collapses into one member's column set.
     Around a hot member it is kept even though the union itself is
     unsupported; cold-into-cold is pruned. *)
  Alcotest.(check bool) "containment around a hot member kept" true
    (Mine.keep_pair fr i_a (ix [ "a"; "x" ]));
  Alcotest.(check bool) "cold containment pruned" false
    (Mine.keep_pair fr i_c (ix [ "c"; "x" ]));
  (* Blocks generalize pairs; singletons are always kept. *)
  Alcotest.(check bool) "singleton block kept" true (Mine.keep_block fr [ i_c ]);
  Alcotest.(check bool) "all-supported block kept" true
    (Mine.keep_block fr [ i_a; i_b; ix [ "a"; "b" ] ]);
  Alcotest.(check bool) "block with one cold member pruned" false
    (Mine.keep_block fr [ i_a; i_b; i_c ]);
  let st = Mine.frontier_stats fr in
  (* 9 tallied decisions: the singleton block is kept without counting. *)
  Alcotest.(check int) "every decision tallied" 9
    (st.Mine.fs_kept + st.Mine.fs_pruned)

let test_bless () =
  let fr = rule_frontier () in
  let i_a = ix [ "a" ] and i_c = ix [ "c" ] in
  Alcotest.(check bool) "before bless: pruned" false (Mine.keep_pair fr i_a i_c);
  Mine.bless fr i_c;
  Alcotest.(check bool) "after bless: all parents supported, kept" true
    (Mine.keep_pair fr i_a i_c);
  (* Bless marks evidence too, but leaves the honest masses alone. *)
  let i_x = ix [ "x" ] in
  Alcotest.(check bool) "no evidence before" false (Mine.evidence fr i_x);
  Mine.bless fr i_x;
  Alcotest.(check bool) "blessed is evidence" true (Mine.evidence fr i_x);
  Alcotest.(check (float 0.)) "support mass undistorted" 0.
    (Mine.support_of fr ~table:"t" [ "x" ])

let test_keep_index () =
  let fr = rule_frontier () in
  Alcotest.(check bool) "supported kept" true (Mine.keep_index fr (ix [ "a" ]));
  Alcotest.(check bool) "never-touched kept (valve)" true
    (Mine.keep_index fr (ix [ "x" ]));
  Alcotest.(check bool) "cold-but-touched pruned" false
    (Mine.keep_index fr (ix [ "c" ]))

(* ---- prune-support 0 bit-identity with the unpruned search ---- *)

let outcome_sig (o : Search.outcome) =
  ( List.map
      (fun it ->
        ( Index.to_string it.Merge.it_index,
          List.map Index.to_string it.Merge.it_parents ))
      o.Search.o_items,
    o.Search.o_final_pages,
    o.Search.o_final_cost,
    o.Search.o_iterations )

(* The CLI's prelude: mine the workload through [Scale.prepare] and pass
   the frontier it returns to the search. *)
let pruned_run ~prune_support db w ~initial strategy =
  let service = Im_merging.Cost_eval.default_service db in
  let w, _, prune = Scale.prepare ~prune_support service w in
  (Search.run ~service ?prune db w ~initial strategy, prune)

let test_prune_support_zero_identity () =
  let db = Lazy.force sdb in
  let w = rags ~seed:61 12 db in
  let initial =
    Im_tuning.Initial_config.build db w ~rng:(Im_util.Rng.create 13) ~n:5
  in
  List.iter
    (fun (name, strategy) ->
      let plain = Search.run db w ~initial strategy in
      let zero, frontier =
        pruned_run ~prune_support:0.0 db w ~initial strategy
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: identical outcome" name)
        true
        (outcome_sig plain = outcome_sig zero);
      Alcotest.(check bool) "prune-support 0 mines no frontier" true
        (frontier = None))
    [
      ("greedy", Search.Greedy);
      ("exhaustive", Search.Exhaustive_search { config_limit = 10_000 });
    ]

(* Positive support actually prunes (and still respects the bound). *)
let test_prune_support_active () =
  let db = Lazy.force sdb in
  let w = rags ~seed:62 12 db in
  let initial = Im_tuning.Initial_config.per_query_union db w in
  let o, frontier =
    pruned_run ~prune_support:0.5 db w ~initial Search.Greedy
  in
  (match frontier with
   | None -> Alcotest.fail "no frontier mined"
   | Some fr ->
     let st = Mine.frontier_stats fr in
     Alcotest.(check bool) "pair decisions were made" true
       (st.Mine.fs_kept + st.Mine.fs_pruned > 0));
  match (o.Search.o_final_cost, o.Search.o_bound) with
  | Some c, Some b -> Alcotest.(check bool) "bound respected" true (c <= b)
  | _ -> Alcotest.fail "numeric model expected"

(* ---- The compactor feeds the miner at admission time ---- *)

let test_compactor_feed_matches_direct () =
  let db = Lazy.force sdb in
  let base = rags ~seed:71 10 db in
  (* Duplicate statements so folding actually happens: the miner must
     still see every statement's mass, not just bucket leaders'. *)
  let w =
    Workload.of_entries ~name:"dup"
      (List.concat
         (List.init 3 (fun k ->
              List.mapi
                (fun i (e : Workload.entry) ->
                  { e with Workload.freq = 1. +. float_of_int ((i + k) mod 3) })
                base.Workload.entries)))
  in
  let direct = Mine.create () in
  Mine.observe_workload direct w;
  let fed = Mine.create () in
  let svc = Service.create ~derive:true db in
  Scale.observe_workload (Scale.create ~eps:0.3 ~mine:fed svc) w;
  Alcotest.(check int) "same statements" (Mine.statements direct)
    (Mine.statements fed);
  Alcotest.(check (float 1e-9)) "same mass" (Mine.mass direct) (Mine.mass fed);
  let f1 = Mine.frontier direct ~support:0.2 in
  let f2 = Mine.frontier fed ~support:0.2 in
  List.iter
    (fun (table, cols) ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "%s(%s): same mined support" table
           (String.concat "," cols))
        (Mine.support_of f1 ~table cols)
        (Mine.support_of f2 ~table cols))
    (footprints w)

let () =
  Alcotest.run "im_mine"
    [
      ( "determinism",
        [
          tc "feed order" `Quick test_feed_order_determinism;
        ] );
      ("monotonicity", [ tc "raising S never grows" `Quick test_support_monotonic ]);
      ( "keep rules",
        [
          tc "pair/block rule set" `Quick test_keep_rules;
          tc "bless" `Quick test_bless;
          tc "keep_index" `Quick test_keep_index;
        ] );
      ( "search identity",
        [
          tc "prune-support 0 bit-identical" `Quick
            test_prune_support_zero_identity;
          tc "positive support prunes" `Quick test_prune_support_active;
        ] );
      ( "admission",
        [ tc "compactor-fed = direct" `Quick test_compactor_feed_matches_direct ] );
    ]
