module Query = Im_sqlir.Query
module Compress = Im_workload.Compress
module Workload = Im_workload.Workload

type cluster = {
  cl_query : Query.t;
  cl_signature : Compress.signature;
  cl_freq : float;
  cl_hits : int;
}

type slot = {
  s_signature : Compress.signature;
  s_query : Query.t;
  mutable s_freq : float;
  mutable s_hits : int;
}

type t = {
  w_capacity : int;
  w_decay : float;
  mutable w_slots : slot list;
  mutable w_statements : int;
  mutable w_evictions : int;
}

let threshold = 0.25

let create ?(capacity = 48) ?(decay = 0.995) () =
  if capacity < 1 then invalid_arg "Window.create: capacity < 1";
  if not (decay > 0. && decay <= 1.) then
    invalid_arg "Window.create: decay outside (0, 1] or NaN";
  {
    w_capacity = capacity;
    w_decay = decay;
    w_slots = [];
    w_statements = 0;
    w_evictions = 0;
  }

let evict_lightest t =
  match t.w_slots with
  | [] -> ()
  | first :: rest ->
    let lightest =
      List.fold_left (fun m s -> if s.s_freq < m.s_freq then s else m) first rest
    in
    t.w_slots <- List.filter (fun s -> s != lightest) t.w_slots;
    t.w_evictions <- t.w_evictions + 1

let observe t q =
  t.w_statements <- t.w_statements + 1;
  List.iter (fun s -> s.s_freq <- s.s_freq *. t.w_decay) t.w_slots;
  let sg = Compress.signature q in
  match
    List.find_opt
      (fun s -> Compress.distance sg s.s_signature <= threshold)
      t.w_slots
  with
  | Some s ->
    s.s_freq <- s.s_freq +. 1.;
    s.s_hits <- s.s_hits + 1
  | None ->
    if List.length t.w_slots >= t.w_capacity then evict_lightest t;
    t.w_slots <-
      t.w_slots @ [ { s_signature = sg; s_query = q; s_freq = 1.; s_hits = 1 } ]

let clusters t =
  t.w_slots
  |> List.map (fun s ->
         {
           cl_query = s.s_query;
           cl_signature = s.s_signature;
           cl_freq = s.s_freq;
           cl_hits = s.s_hits;
         })
  |> List.sort (fun a b -> Float.compare b.cl_freq a.cl_freq)

let to_workload t =
  Workload.of_entries ~name:"window"
    (List.map
       (fun c -> { Workload.query = c.cl_query; freq = c.cl_freq })
       (clusters t))

let statements t = t.w_statements
let cluster_count t = List.length t.w_slots
let evictions t = t.w_evictions
let total_mass t = List.fold_left (fun acc s -> acc +. s.s_freq) 0. t.w_slots
let capacity t = t.w_capacity
