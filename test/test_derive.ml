(* Tests for atomic cost derivation: bit-level exactness against the
   full optimizer across workloads and configurations, single-table
   ORDER BY derived without an optimizer run, validation mode,
   atom-cache reuse and clearing at capacity, exact atom-cache counters
   when 4 domains share one deriver, the deriving cost service, and
   search-level identity (merge output with and without derivation). *)

module Derive = Im_derive.Derive
module Service = Im_costsvc.Service
module Optimizer = Im_optimizer.Optimizer
module Plan = Im_optimizer.Plan
module Database = Im_catalog.Database
module Config = Im_catalog.Config
module Index = Im_catalog.Index
module Schema = Im_sqlir.Schema
module Datatype = Im_sqlir.Datatype
module Value = Im_sqlir.Value
module Query = Im_sqlir.Query
module Predicate = Im_sqlir.Predicate
module Workload = Im_workload.Workload
module Search = Im_merging.Search
module Cost_eval = Im_merging.Cost_eval
module Merge = Im_merging.Merge

let tc = Alcotest.test_case
let bits = Int64.bits_of_float
let full_cost db config q = Plan.cost (Optimizer.optimize db config q)

let check_bitwise ctx expected actual =
  Alcotest.(check int64) ctx (bits expected) (bits actual)

(* ---- A generated database with generated workloads: the broad net ---- *)

let sdb =
  lazy (Im_workload.Synthetic.database ~seed:11 Im_workload.Synthetic.synthetic1)

let rags_workload db =
  Im_workload.Ragsgen.generate db ~rng:(Im_util.Rng.create 3) ~n:20

let proj_workload db =
  Im_workload.Projgen.generate db ~rng:(Im_util.Rng.create 5) ~n:12

let configs db workload =
  [
    ("empty", Config.empty);
    ( "initial-6",
      Im_tuning.Initial_config.build db workload
        ~rng:(Im_util.Rng.create 7) ~n:6 );
    ("union", Im_tuning.Initial_config.per_query_union db workload);
  ]

let test_bitwise_exactness () =
  let db = Lazy.force sdb in
  let d = Derive.create db in
  List.iter
    (fun (wname, workload) ->
      List.iter
        (fun (cname, config) ->
          List.iter
            (fun q ->
              let derived = Derive.query_cost d config q in
              check_bitwise
                (Printf.sprintf "%s/%s/%s" wname cname q.Query.q_id)
                (full_cost db config q)
                derived;
              (* And stable on re-derivation. *)
              let again = Derive.query_cost d config q in
              check_bitwise "re-derivation" derived again)
            (Workload.queries workload))
        (configs db workload))
    [ ("rags", rags_workload db); ("proj", proj_workload db) ];
  Alcotest.(check bool) "some answers were derived" true (Derive.derived d > 0);
  Alcotest.(check bool) "atoms were reused across configurations" true
    (Derive.atom_hits d > 0)

(* Randomized: any subset of the union configuration, any query. *)
let test_random_subsets () =
  let db = Lazy.force sdb in
  let workload = rags_workload db in
  let queries = Array.of_list (Workload.queries workload) in
  let pool =
    Array.of_list (Im_tuning.Initial_config.per_query_union db workload)
  in
  let d = Derive.create db in
  let gen =
    QCheck.(pair (int_bound (Array.length queries - 1)) (int_bound max_int))
  in
  let prop (qi, mask) =
    let config =
      List.filteri (fun i _ -> (mask lsr (i mod 60)) land 1 = 1
                               || (mask lsr (i mod 7)) land 1 = 1)
        (Array.to_list pool)
    in
    let q = queries.(qi) in
    let derived = Derive.query_cost d config q in
    bits derived = bits (full_cost db config q)
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:150 ~name:"derived = optimized (bitwise)" gen
       prop)

(* ---- Single-table ORDER BY (handmade schema) ---- *)

let schema =
  Schema.make
    [
      Schema.make_table "t"
        [ ("a", Datatype.Int); ("b", Datatype.Int); ("c", Datatype.Int) ];
    ]

let rows_t =
  List.init 600 (fun i ->
      [| Value.Int (i mod 50); Value.Int (i mod 9); Value.Int i |])

let hdb = lazy (Database.create schema [ ("t", rows_t) ])
let col = Predicate.colref

let sel tbl c = Query.Sel_col (col tbl c)
let eq tbl c v = Predicate.Cmp (Predicate.Eq, col tbl c, Value.Int v)

(* The 6 orders of t's columns; [perm k n] is the first [n] of the
   [k]-th. *)
let perm k n =
  let orders =
    [| [ "a"; "b"; "c" ]; [ "a"; "c"; "b" ]; [ "b"; "a"; "c" ];
       [ "b"; "c"; "a" ]; [ "c"; "a"; "b" ]; [ "c"; "b"; "a" ] |]
  in
  List.filteri (fun i _ -> i < n) orders.(k mod 6)

(* A single-table ORDER BY without aggregation — 1 to 3 keys, each ASC
   or DESC, optionally behind an equality that pins a seek prefix — and
   0 to 4 indexes on t, one of them optionally covering the query with
   the pinned column and the keys leading. Sort placement weighs every
   candidate against the sort, so these are the plans that read the
   provider's full candidate list. *)
let gen_order_case =
  let open QCheck.Gen in
  let* keys = map2 perm (int_bound 5) (int_range 1 3)
  and* dirs = list_repeat 3 bool
  and* pin = opt (pair (oneofl [ "a"; "b"; "c" ]) (int_bound 49))
  and* selected = int_range 1 7
  and* covering = bool
  and* others =
    list_size (int_bound 4) (map2 perm (int_bound 5) (int_range 1 3))
  in
  let order_by =
    List.mapi
      (fun i c -> (col "t" c, if List.nth dirs i then Query.Asc else Query.Desc))
      keys
  in
  let select =
    List.filteri (fun i _ -> (selected lsr i) land 1 = 1) [ "a"; "b"; "c" ]
  in
  let q =
    Query.make ~id:"ord"
      ~select:(List.map (sel "t") select)
      ~where:(match pin with Some (c, v) -> [ eq "t" c v ] | None -> [])
      ~order_by [ "t" ]
  in
  let cover =
    Im_util.List_ext.dedup_keep_order String.equal
      (Option.to_list (Option.map fst pin) @ keys @ select)
  in
  let config =
    (if covering then [ cover ] else []) @ others
    |> List.filteri (fun i _ -> i < 4)
    |> List.map (Index.make ~table:"t")
    |> Im_util.List_ext.dedup_keep_order Index.equal
  in
  return (q, config)

let print_order_case (q, config) =
  Printf.sprintf "%s under [%s]" (Query.to_sql q)
    (String.concat "; " (List.map Index.to_string config))

let test_order_by_derives () =
  let db = Lazy.force hdb in
  let d = Derive.create ~validate:false db in
  let prop (q, config) =
    let before = Optimizer.invocations () in
    let derived = Derive.plan d config q in
    let invoked = Optimizer.invocations () - before in
    if invoked <> 0 then
      QCheck.Test.fail_reportf "%d optimizer invocations while deriving" invoked;
    derived = Optimizer.optimize db config q
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:300 ~name:"order by: derived = optimized"
       (QCheck.make ~print:print_order_case gen_order_case)
       prop)

(* ---- Validation mode ---- *)

let test_validation_mode () =
  let db = Lazy.force sdb in
  let workload = rags_workload db in
  let d = Derive.create ~validate:true db in
  Alcotest.(check bool) "validating" true (Derive.validating d);
  let config = Im_tuning.Initial_config.per_query_union db workload in
  (* Every derived answer is cross-checked; Mismatch would fail here. *)
  List.iter
    (fun q -> ignore (Derive.query_cost d config q))
    (Workload.queries workload);
  Alcotest.(check bool) "cross-checks ran" true (Derive.validations d > 0);
  Alcotest.(check int) "every derivation validated" (Derive.derived d)
    (Derive.validations d)

(* ---- Atom cache: reuse ---- *)

let test_atom_reuse () =
  let db = Lazy.force hdb in
  let d = Derive.create db in
  let q = Query.make ~id:"r1" ~select:[ sel "t" "a" ] ~where:[ eq "t" "a" 3 ] [ "t" ] in
  let ix_a = Index.make ~table:"t" [ "a" ] in
  let ix_b = Index.make ~table:"t" [ "b"; "a" ] in
  ignore (Derive.query_cost d [ ix_a ] q);
  let misses = Derive.atom_misses d in
  Alcotest.(check bool) "cold atoms missed" true (misses > 0);
  (* Identical call: pure hits. *)
  ignore (Derive.query_cost d [ ix_a ] q);
  Alcotest.(check int) "no new atom misses on repeat" misses
    (Derive.atom_misses d);
  (* Superset configuration: only the new index's atom misses. *)
  ignore (Derive.query_cost d [ ix_a; ix_b ] q);
  Alcotest.(check int) "one new atom for the new index" (misses + 1)
    (Derive.atom_misses d);
  let entries = Derive.atom_entries d in
  Alcotest.(check bool) "entries live" true (entries > 0);
  (* Nothing invalidates: a loaded database never changes, so below
     capacity the first configuration's atoms still answer. *)
  ignore (Derive.query_cost d [ ix_a ] q);
  Alcotest.(check int) "first configuration still cached" (misses + 1)
    (Derive.atom_misses d);
  Alcotest.(check int) "entries kept" entries (Derive.atom_entries d)

(* ---- Atom cache: bounded by clearing ---- *)

(* One deriver driven past twice [Derive.capacity] distinct atoms: a
   table of 16 columns, a configuration of all 256 one- and two-column
   indexes, and point queries whose constants differ, so each query
   adds 256 atoms. The atom table is cleared whenever it fills, so the
   live count (atoms plus heap baselines) stays within [2 * capacity]
   and falls; every cost, before and after a clear, is the optimizer's
   bit for bit. *)
let test_atoms_cleared_at_capacity () =
  let cols = List.init 16 (Printf.sprintf "c%d") in
  let wide =
    Schema.make
      [ Schema.make_table "w" (List.map (fun c -> (c, Datatype.Int)) cols) ]
  in
  let rows =
    List.init 2000 (fun i ->
        Array.of_list (List.mapi (fun k _ -> Value.Int (i mod (k + 7))) cols))
  in
  let db = Database.create wide [ ("w", rows) ] in
  let config =
    List.concat_map
      (fun a ->
        [ a ]
        :: List.filter_map (fun b -> if a = b then None else Some [ a; b ]) cols)
      cols
    |> List.map (Index.make ~table:"w")
  in
  let query i =
    let c = List.nth cols (i mod 16) in
    Query.make ~id:"p"
      ~select:[ sel "w" "c0" ]
      ~where:[ Predicate.Cmp (Predicate.Eq, col "w" c, Value.Int i) ]
      [ "w" ]
  in
  let d = Derive.create ~validate:false db in
  let n = (2 * Derive.capacity / List.length config) + 64 in
  let peak = ref 0 and fell = ref false in
  for i = 0 to n - 1 do
    let q = query i in
    let before = Derive.atom_entries d in
    let got = Derive.query_cost d config q in
    let entries = Derive.atom_entries d in
    if entries < before then fell := true;
    peak := max !peak entries;
    if i mod 97 = 0 || i >= n - 4 then
      check_bitwise (Printf.sprintf "query %d" i) (full_cost db config q) got
  done;
  Alcotest.(check int) "every atom missed once" (n * List.length config)
    (Derive.atom_misses d);
  Alcotest.(check bool) "the atom table was cleared" true !fell;
  if !peak > 2 * Derive.capacity then
    Alcotest.failf "%d live entries, capacity %d" !peak Derive.capacity

(* ---- Atom cache: counters under concurrency ---- *)

let test_derive_hammer () =
  (* Every (query, configuration) cell costed through
     [Derive.query_cost] by 4 domains on one deriver: costs must equal
     a sequential run's bitwise and the atom-cache counters must equal
     a sequential run doing the same work 4 times — misses are
     computed under the lock, so the loser of a same-key race scores a
     hit. [q_order] weighs its access paths against a sort. *)
  let open Domain_hammer in
  let db = Lazy.force db in
  let queries =
    q_scan :: q_order :: List.init 8 (fun i -> point ~id:(Printf.sprintf "b%d" i) i)
  in
  let configs = [ []; [ i_seek ]; [ i_scan ]; [ i_seek; i_scan ]; initial ] in
  let cells =
    List.concat_map (fun q -> List.map (fun c -> (q, c)) configs) queries
  in
  let costs d () =
    List.map (fun (q, c) -> Derive.query_cost d c q) cells
  in
  let counters d =
    [
      ("atom_hits", Derive.atom_hits d);
      ("atom_misses", Derive.atom_misses d);
      ("atom_entries", Derive.atom_entries d);
      ("derived", Derive.derived d);
    ]
  in
  let seq_d = Derive.create db in
  let seq_costs = List.init 4 (fun _ -> costs seq_d ()) in
  let par_d = Derive.create db in
  let par_costs = hammer (costs par_d) in
  Alcotest.(check (list (list (float 0.)))) "bit-identical costs" seq_costs
    par_costs;
  check_counters "derive" (counters seq_d) (counters par_d)

(* ---- The deriving cost service ---- *)

let test_service_derive_identical () =
  let db = Lazy.force sdb in
  let workload = rags_workload db in
  let plain = Service.create db in
  let deriving = Service.create ~derive:true db in
  let invoked = ref 0 in
  List.iter
    (fun (cname, config) ->
      List.iter
        (fun q ->
          let expected = Service.query_cost plain config q in
          let before = Optimizer.invocations () in
          let got = Service.query_cost deriving config q in
          invoked := !invoked + (Optimizer.invocations () - before);
          check_bitwise (Printf.sprintf "%s/%s" cname q.Query.q_id) expected got)
        (Workload.queries workload))
    (configs db workload);
  let c = Service.counters deriving in
  Alcotest.(check bool) "misses resolved" true (c.Service.c_opt_calls > 0);
  Alcotest.(check int) "every miss derived" c.Service.c_misses c.Service.c_derived;
  (* The optimizer ran only to cross-check ([IM_VALIDATE_DERIVE]). *)
  let validations =
    Option.fold ~none:0 ~some:Derive.validations (Service.deriver deriving)
  in
  Alcotest.(check int) "optimizer ran only to validate" validations !invoked

(* ---- Search-level identity: merge output with and without ---- *)

let fingerprint items =
  String.concat "; "
    (List.map
       (fun it ->
         Printf.sprintf "%s<-[%s]"
           (Index.to_string it.Merge.it_index)
           (String.concat ", " (List.map Index.to_string it.Merge.it_parents)))
       items)

(* The fig5/6 setup (the databases, workload and seeds of the bench
   harness): greedy and exhaustive merge search from three initial
   configurations on each database, with derivation off (every miss
   runs the optimizer) and on (every miss derived). The merged
   configuration, its pages and its exact cost must not move. *)
let test_search_identity () =
  let databases =
    [
      ("tpcd", Im_workload.Tpcd.database ~sf:0.004 ~seed:1999 ());
      ( "synthetic1",
        Im_workload.Synthetic.(database ~seed:101 synthetic1) );
      ( "synthetic2",
        Im_workload.Synthetic.(database ~seed:202 synthetic2) );
    ]
  in
  let strategies =
    [
      ("greedy", Search.Greedy);
      ("exhaustive", Search.Exhaustive_search { config_limit = 100_000 });
    ]
  in
  List.iter
    (fun (dname, db) ->
      let workload =
        Im_workload.Ragsgen.generate db ~rng:(Im_util.Rng.create 1) ~n:30
      in
      List.iter
        (fun (sname, strategy) ->
          List.iter
            (fun seed ->
              let initial =
                Im_tuning.Initial_config.build db workload
                  ~rng:(Im_util.Rng.create seed) ~n:5
              in
              let run derive =
                let service =
                  Im_costsvc.Service.create ~derive
                    ~update_cost:(Im_merging.Maintenance.config_batch_cost db)
                    db
                in
                Search.run ~service ~cost_model:Cost_eval.Optimizer_estimated
                  ~cost_constraint:0.10 db workload ~initial strategy
              in
              let off = run false in
              let on = run true in
              let ctx what =
                Printf.sprintf "%s/%s/seed %d: %s" dname sname seed what
              in
              Alcotest.(check string)
                (ctx "identical merged configuration")
                (fingerprint off.Search.o_items)
                (fingerprint on.Search.o_items);
              Alcotest.(check int) (ctx "identical pages")
                off.Search.o_final_pages on.Search.o_final_pages;
              Alcotest.(check (option (float 0.)))
                (ctx "identical cost (exact)")
                off.Search.o_final_cost on.Search.o_final_cost;
              Alcotest.(check int) (ctx "off never derives") 0
                off.Search.o_derived_costs;
              Alcotest.(check bool) (ctx "on derives") true
                (on.Search.o_derived_costs > 0))
            [ 2; 3; 4 ])
        strategies)
    databases

let () =
  Alcotest.run "im_derive"
    [
      ( "exactness",
        [
          tc "bitwise vs full optimizer" `Quick test_bitwise_exactness;
          tc "random config subsets" `Quick test_random_subsets;
          tc "order by derives exactly" `Quick test_order_by_derives;
        ] );
      ("validation", [ tc "cross-check mode" `Quick test_validation_mode ]);
      ( "atoms",
        [
          tc "reuse and invalidation" `Quick test_atom_reuse;
          tc "cleared at capacity" `Quick test_atoms_cleared_at_capacity;
        ] );
      ("derive", [ tc "4-domain hammer" `Quick test_derive_hammer ]);
      ( "service",
        [ tc "deriving service identical" `Quick test_service_derive_identical ] );
      ("search", [ tc "merge output identity" `Quick test_search_identity ]);
    ]
