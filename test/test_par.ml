(* Tests for the im_par domain pool and the domain-safe caches behind
   it: pool lifecycle, exception propagation, ordering determinism, and
   sharded cost-service and Derive.Batch counter exactness under
   concurrent hammering. *)

module Pool = Im_par.Pool
module Service = Im_costsvc.Service
module Database = Im_catalog.Database
module Index = Im_catalog.Index
module Schema = Im_sqlir.Schema
module Datatype = Im_sqlir.Datatype
module Value = Im_sqlir.Value
module Predicate = Im_sqlir.Predicate
module Query = Im_sqlir.Query

let tc = Alcotest.test_case
let cr = Predicate.colref

(* ---- Pool mechanics ---- *)

let test_pool_lifecycle () =
  let pool = Pool.create ~domains:2 () in
  Alcotest.(check int) "domain count" 2 (Pool.domain_count pool);
  Alcotest.(check (list int))
    "usable"
    [ 1; 4; 9 ]
    (Pool.parallel_map pool (fun x -> x * x) [ 1; 2; 3 ]);
  Pool.shutdown pool;
  Pool.shutdown pool;
  (* idempotent *)
  Alcotest.check_raises "rejects work after shutdown"
    (Invalid_argument "Im_par.Pool: pool used after shutdown") (fun () ->
      ignore (Pool.parallel_map pool Fun.id [ 1 ]))

let test_pool_sequential_fallback () =
  let pool = Pool.create ~domains:0 () in
  Alcotest.(check int) "no workers" 0 (Pool.domain_count pool);
  let xs = List.init 50 Fun.id in
  Alcotest.(check (list int))
    "parallel_map is List.map" (List.map succ xs)
    (Pool.parallel_map pool succ xs);
  Pool.shutdown pool

let test_exception_propagation () =
  let pool = Pool.create ~domains:3 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  Alcotest.check_raises "task exception reaches the caller" (Failure "boom")
    (fun () ->
      ignore
        (Pool.parallel_map pool
           (fun i -> if i = 7 then failwith "boom" else i)
           (List.init 20 Fun.id)));
  (* A failed batch must not poison the pool. *)
  Alcotest.(check (list int))
    "pool survives a failed batch" [ 2; 3; 4 ]
    (Pool.parallel_map pool succ [ 1; 2; 3 ])

let test_ordering_deterministic () =
  let xs = List.init 200 Fun.id in
  let expected = List.map (fun i -> i * i) xs in
  List.iter
    (fun domains ->
      let pool = Pool.create ~domains () in
      Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
      let label what = Printf.sprintf "%s at %d domains" what domains in
      Alcotest.(check (list int))
        (label "parallel_map order")
        expected
        (Pool.parallel_map pool (fun i -> i * i) xs);
      Alcotest.(check (list int)) (label "empty input") []
        (Pool.parallel_map pool (fun i -> i * i) []))
    [ 0; 1; 3 ]

(* ---- A small database (mirrors test_merging's) ---- *)

let schema =
  Schema.make
    [
      Schema.make_table "t"
        [
          ("a", Datatype.Int);
          ("b", Datatype.Int);
          ("c", Datatype.Float);
          ("d", Datatype.Varchar 40);
          ("e", Datatype.Date);
        ];
    ]

let db =
  let rows =
    List.init 12_000 (fun i ->
        [|
          Value.Int (i mod 200);
          Value.Int (i mod 37);
          Value.Float (float_of_int (i mod 501));
          Value.Str (Printf.sprintf "pad%05d" (i mod 1000));
          Value.Date (i mod 730);
        |])
  in
  Database.create schema [ ("t", rows) ]

let point ~id v =
  Query.make ~id
    ~select:[ Query.Sel_col (cr "t" "c") ]
    ~where:[ Predicate.Cmp (Predicate.Eq, cr "t" "a", Value.Int v) ]
    [ "t" ]

let q_scan =
  Query.make ~id:"q_scan"
    ~select:[ Query.Sel_col (cr "t" "b"); Query.Sel_col (cr "t" "c") ]
    [ "t" ]

let q_order =
  Query.make ~id:"q_order"
    ~select:[ Query.Sel_col (cr "t" "e"); Query.Sel_col (cr "t" "b") ]
    ~order_by:[ (cr "t" "e", Query.Asc) ]
    [ "t" ]

let i_seek = Index.make ~table:"t" [ "a"; "c" ]
let i_scan = Index.make ~table:"t" [ "b"; "c" ]
let i_order = Index.make ~table:"t" [ "e"; "b" ]
let initial = [ i_seek; i_scan; i_order ]

(* ---- Sharded service: counters under concurrency ---- *)

let test_sharded_counters_match_sequential () =
  (* 10 distinct queries, each issued 8 times, costed on an 8-shard
     service hammered through a 4-domain pool: every counter total and
     every cost must equal the single-shard sequential run. The service
     holds the shard lock through the optimizer call, so concurrent
     same-key misses serialize and the counters stay exact. *)
  let queries = List.init 10 (fun i -> point ~id:(Printf.sprintf "h%d" i) i) in
  let hammer = List.concat (List.init 8 (fun _ -> queries)) in
  let seq_svc = Service.create db in
  let seq_costs = List.map (fun q -> Service.query_cost seq_svc [] q) hammer in
  let par_svc = Service.create ~shards:8 db in
  Alcotest.(check int) "shards rounded to 8" 8 (Service.shard_count par_svc);
  let pool = Pool.create ~domains:4 () in
  let par_costs =
    Fun.protect
      ~finally:(fun () -> Pool.shutdown pool)
      (fun () ->
        Pool.parallel_map pool (fun q -> Service.query_cost par_svc [] q) hammer)
  in
  Alcotest.(check (list (float 0.))) "bit-identical costs" seq_costs par_costs;
  let counters svc =
    [
      ("hits", Service.hits svc);
      ("misses", Service.misses svc);
      ("opt_calls", Service.opt_calls svc);
      ("evictions", Service.evictions svc);
      ("entries", Service.size svc);
    ]
  in
  List.iter2
    (fun (name, seq_v) (_, par_v) ->
      Alcotest.(check int) (name ^ " equal across shards") seq_v par_v)
    (counters seq_svc) (counters par_svc);
  Alcotest.(check int) "one miss per distinct query" 10 (Service.misses par_svc)

(* ---- Derive.Batch: domain safety ---- *)

let test_batch_hammer () =
  (* Domain-safe Derive.Batch: the same batches hammered from a
     4-domain pool must produce bitwise the scores of a sequential run
     AND leave the deriver's atom-cache counters exactly equal — the
     per-batch mutex holds across the miss path, so concurrent misses
     on one memo key consult the striped cache exactly once (mirror of
     the sharded costsvc counter test above). *)
  let queries =
    q_scan :: q_order :: List.init 8 (fun i -> point ~id:(Printf.sprintf "b%d" i) i)
  in
  let configs =
    [ []; [ i_seek ]; [ i_scan ]; [ i_seek; i_scan ]; initial ]
  in
  let work reps = List.concat (List.init reps (fun _ -> configs)) in
  let run_costs cost_fn batches =
    List.concat_map
      (fun b -> List.map (fun c -> cost_fn b c) (work 3))
      batches
  in
  let snapshot d =
    [
      ("atom_hits", Im_derive.Derive.atom_hits d);
      ("atom_misses", Im_derive.Derive.atom_misses d);
      ("atom_entries", Im_derive.Derive.atom_entries d);
      ("derived", Im_derive.Derive.derived d);
      ("fallbacks", Im_derive.Derive.fallbacks d);
    ]
  in
  (* Sequential reference. *)
  let seq_d = Im_derive.Derive.create db in
  let seq_batches = List.map (Im_derive.Derive.Batch.create seq_d) queries in
  let seq_costs = run_costs Im_derive.Derive.Batch.cost seq_batches in
  let seq_counters = snapshot seq_d in
  (* Parallel hammer: every (batch, config, rep) cell on 4 domains —
     many concurrent costings per batch. *)
  let par_d = Im_derive.Derive.create ~shards:8 db in
  let par_batches = List.map (Im_derive.Derive.Batch.create par_d) queries in
  let cells =
    List.concat_map (fun b -> List.map (fun c -> (b, c)) (work 3)) par_batches
  in
  let pool = Pool.create ~domains:4 () in
  let par_costs =
    Fun.protect
      ~finally:(fun () -> Pool.shutdown pool)
      (fun () ->
        Pool.parallel_map pool
          (fun (b, c) -> Im_derive.Derive.Batch.cost b c)
          cells)
  in
  Alcotest.(check (list (float 0.)))
    "bitwise-equal batch scores" seq_costs par_costs;
  List.iter2
    (fun (name, seq_v) (_, par_v) ->
      Alcotest.(check int) (name ^ " exact under hammer") seq_v par_v)
    seq_counters (snapshot par_d)

let () =
  Alcotest.run "im_par"
    [
      ( "pool",
        [
          tc "lifecycle" `Quick test_pool_lifecycle;
          tc "sequential fallback" `Quick test_pool_sequential_fallback;
          tc "exception propagation" `Quick test_exception_propagation;
          tc "ordering determinism" `Quick test_ordering_deterministic;
        ] );
      ( "service",
        [ tc "sharded counters" `Quick test_sharded_counters_match_sequential ]
      );
      ( "derive batch",
        [ tc "4-domain hammer" `Quick test_batch_hammer ] );
    ]
