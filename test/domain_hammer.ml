(* Shared by the cost-service and atom-cache concurrency tests: a small
   database (mirrors test_merging's), a few queries and indexes over
   it, and [hammer], which runs the same work on 4 domains at once. *)

module Database = Im_catalog.Database
module Index = Im_catalog.Index
module Schema = Im_sqlir.Schema
module Datatype = Im_sqlir.Datatype
module Value = Im_sqlir.Value
module Predicate = Im_sqlir.Predicate
module Query = Im_sqlir.Query

let cr = Predicate.colref

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
  lazy
    (let rows =
       List.init 12_000 (fun i ->
           [|
             Value.Int (i mod 200);
             Value.Int (i mod 37);
             Value.Float (float_of_int (i mod 501));
             Value.Str (Printf.sprintf "pad%05d" (i mod 1000));
             Value.Date (i mod 730);
           |])
     in
     Database.create schema [ ("t", rows) ])

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
