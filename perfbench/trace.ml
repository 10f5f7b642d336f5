(* In-memory spans recorded by the benchmark around each call it makes
   into a library layer. Nothing here reaches inside [lib/]: a span
   covers exactly one benchmark-side call, so a layer's self time is
   the part of its spans that no child span covers.

   Disabled (the untraced runs that produce the end-to-end metrics),
   [span] is a direct call. Enabled, each span costs two monotonic
   clock reads and one record; spans stay in memory until [write]. *)

type span = {
  id : int;
  parent : int;  (** 0 at the root *)
  name : string;
  start_ns : int64;
  stop_ns : int64;
}

let enabled = ref false
let run_id = ref ""
let next_id = ref 1
let current = ref 0
let spans : span list ref = ref []

let enable ~run = enabled := true; run_id := run

(* Run [f] with recording off (the untraced side of an overhead
   comparison inside a traced run). *)
let without f =
  let was = !enabled in
  enabled := false;
  Fun.protect ~finally:(fun () -> enabled := was) f

let span name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = !current in
    current := id;
    let start_ns = Im_util.Stopwatch.now_ns () in
    let finish () =
      let stop_ns = Im_util.Stopwatch.now_ns () in
      current := parent;
      spans := { id; parent; name; start_ns; stop_ns } :: !spans
    in
    match f () with
    | v -> finish (); v
    | exception e -> finish (); raise e
  end

let seconds s = Int64.to_float (Int64.sub s.stop_ns s.start_ns) *. 1e-9

type layer = { l_count : int; l_total_s : float; l_self_s : float }

(* Per span name: call count, total duration and self time. Spans nest
   strictly on one thread, so a child's whole duration lies inside its
   parent's and self = duration - sum of the direct children's. *)
let layers () =
  let child_s = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child_s s.parent
          (seconds s +. Option.value ~default:0. (Hashtbl.find_opt child_s s.parent)))
    !spans;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let d = seconds s in
      let self = d -. Option.value ~default:0. (Hashtbl.find_opt child_s s.id) in
      let l =
        Option.value
          ~default:{ l_count = 0; l_total_s = 0.; l_self_s = 0. }
          (Hashtbl.find_opt by_name s.name)
      in
      Hashtbl.replace by_name s.name
        { l_count = l.l_count + 1; l_total_s = l.l_total_s +. d;
          l_self_s = l.l_self_s +. self })
    !spans;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_name []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let layer name =
  match List.assoc_opt name (layers ()) with
  | Some l -> l
  | None -> { l_count = 0; l_total_s = 0.; l_self_s = 0. }

(* Spans written per name: per-statement layers record 200k spans a
   run, which the layer lines summarize in full. *)
let written_per_name = 1000

(* One JSON object per line: spans in start order (the first
   [written_per_name] of each name), then one summary line per layer
   covering every span. *)
let write path =
  let oc = open_out path in
  let ordered =
    List.sort (fun a b -> Int64.compare a.start_ns b.start_ns) !spans
  in
  let seen = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let n = Option.value ~default:0 (Hashtbl.find_opt seen s.name) in
      Hashtbl.replace seen s.name (n + 1);
      if n < written_per_name then
      Printf.fprintf oc
        "{\"run\":%S,\"id\":%d,\"parent\":%d,\"name\":%S,\"start_ns\":%Ld,\"end_ns\":%Ld}\n"
        !run_id s.id s.parent s.name s.start_ns s.stop_ns)
    ordered;
  List.iter
    (fun (name, l) ->
      Printf.fprintf oc
        "{\"run\":%S,\"layer\":%S,\"count\":%d,\"total_s\":%.9f,\"self_s\":%.9f}\n"
        !run_id name l.l_count l.l_total_s l.l_self_s)
    (layers ());
  close_out oc
