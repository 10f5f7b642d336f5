(* Tests for the im_par domain pool and the domain-safe caches: pool
   lifecycle, exception propagation, ordering determinism, and the
   single-lock cost service and atom cache keeping bit-identical costs
   and exact counters when 4 domains hammer them at once. *)

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

(* [work] run on 4 domains at once, all starting together, so
   concurrent misses on one key are likely; each domain's results in
   [work]'s order. *)
let hammer work =
  let start = Atomic.make false in
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            while not (Atomic.get start) do
              Domain.cpu_relax ()
            done;
            work ()))
  in
  Atomic.set start true;
  List.map Domain.join domains

let check_counters name seq par =
  List.iter2
    (fun (k, seq_v) (_, par_v) ->
      Alcotest.(check int) (Printf.sprintf "%s %s = sequential" name k) seq_v
        par_v)
    seq par

(* ---- Cost service: counters under concurrency ---- *)

let test_service_hammer () =
  (* 10 distinct queries, each issued 8 times, costed by 4 domains on
     one service: every cost and counter total must equal a sequential
     run doing the same work 4 times. The service holds its lock
     through the what-if resolution, so concurrent same-key misses
     serialize and the counters stay exact. *)
  let queries = List.init 10 (fun i -> point ~id:(Printf.sprintf "h%d" i) i) in
  let work = List.concat (List.init 8 (fun _ -> queries)) in
  let costs svc () = List.map (fun q -> Service.query_cost svc [] q) work in
  let counters svc =
    [
      ("hits", Service.hits svc);
      ("misses", Service.misses svc);
      ("opt_calls", Service.opt_calls svc);
      ("evictions", Service.evictions svc);
      ("entries", Service.size svc);
    ]
  in
  let seq_svc = Service.create ~derive:true db in
  let seq_costs = List.init 4 (fun _ -> costs seq_svc ()) in
  let par_svc = Service.create ~derive:true db in
  let par_costs = hammer (costs par_svc) in
  Alcotest.(check (list (list (float 0.)))) "bit-identical costs" seq_costs
    par_costs;
  check_counters "service" (counters seq_svc) (counters par_svc);
  Alcotest.(check int) "one miss per distinct query" 10 (Service.misses par_svc)

(* ---- Atom cache: counters under concurrency ---- *)

let test_derive_hammer () =
  (* Every (query, configuration) cell costed through
     [Derive.query_cost] by 4 domains on one deriver: costs must equal
     a sequential run's bitwise and the atom-cache counters must equal
     a sequential run doing the same work 4 times — misses are
     computed under the lock, so the loser of a same-key race scores a
     hit. [q_order] exercises the optimizer fallback. *)
  let queries =
    q_scan :: q_order :: List.init 8 (fun i -> point ~id:(Printf.sprintf "b%d" i) i)
  in
  let configs = [ []; [ i_seek ]; [ i_scan ]; [ i_seek; i_scan ]; initial ] in
  let cells =
    List.concat_map (fun q -> List.map (fun c -> (q, c)) configs) queries
  in
  let costs d () =
    List.map (fun (q, c) -> fst (Im_derive.Derive.query_cost d c q)) cells
  in
  let counters d =
    [
      ("atom_hits", Im_derive.Derive.atom_hits d);
      ("atom_misses", Im_derive.Derive.atom_misses d);
      ("atom_entries", Im_derive.Derive.atom_entries d);
      ("derived", Im_derive.Derive.derived d);
      ("fallbacks", Im_derive.Derive.fallbacks d);
    ]
  in
  let seq_d = Im_derive.Derive.create db in
  let seq_costs = List.init 4 (fun _ -> costs seq_d ()) in
  let par_d = Im_derive.Derive.create db in
  let par_costs = hammer (costs par_d) in
  Alcotest.(check (list (list (float 0.)))) "bit-identical costs" seq_costs
    par_costs;
  check_counters "derive" (counters seq_d) (counters par_d);
  Alcotest.(check bool) "fallback shape exercised" true
    (Im_derive.Derive.fallbacks par_d > 0)

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
      ("service", [ tc "4-domain hammer" `Quick test_service_hammer ]);
      ("derive", [ tc "4-domain hammer" `Quick test_derive_hammer ]);
    ]
