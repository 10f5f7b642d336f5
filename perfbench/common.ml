(* Shared pieces of the benchmark: seeded inputs, statistics, process
   figures and the result line. *)

module Database = Im_catalog.Database
module Query = Im_sqlir.Query
module Workload = Im_workload.Workload
module Rng = Im_util.Rng

let now_s = Im_util.Stopwatch.now_s

(* ---- Results ---- *)

type metric = { m_name : string; m_unit : string; m_value : float }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
}

let metric m_name m_unit m_value = { m_name; m_unit; m_value }

(* Raised by a workload that could not drive its run: the benchmark
   then exits non-zero without printing a result. *)
exception Refuse of string

let refuse fmt = Printf.ksprintf (fun s -> raise (Refuse s)) fmt

(* Every figure keeps all its digits; %.17g round-trips a double. *)
let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let result_line r =
  let metrics =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.m_name
          (json_number m.m_value) m.m_unit)
      r.metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed (String.concat ", " metrics)

(* ---- Checks ---- *)

(* Correctness violations are collected, printed and turn the result's
   [correct] false; they never stop the run. *)
let violations : string list ref = ref []

let check ok fmt =
  Printf.ksprintf
    (fun msg ->
      if not ok then begin
        prerr_endline ("perfbench: check failed: " ^ msg);
        violations := msg :: !violations
      end)
    fmt

(* ---- Statistics ---- *)

(* Linear interpolation between order statistics. *)
let quantile p xs =
  match List.sort Float.compare xs with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    let pos = p *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs
let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (max 1 (List.length xs))

(* ---- Process figures ---- *)

(* VmHWM (peak resident set) of a process, in MiB. *)
let peak_rss_mb pid =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> nan
      | line ->
        (match Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> kb) with
         | Some kb -> float_of_int kb /. 1024.
         | None -> scan ())
    in
    let v = scan () in
    close_in ic;
    v

let out_dir = Filename.concat "perfbench" "out"

let ensure_out_dir () =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755

(* ---- Seeded inputs ---- *)

(* The daemon builds its databases with the CLI's default seed, so the
   in-process inputs use the same one and name the same data. *)
let db_seed = 1

let synthetic1 () =
  Im_workload.Synthetic.database ~seed:db_seed Im_workload.Synthetic.synthetic1

let synthetic2 () =
  Im_workload.Synthetic.database ~seed:db_seed Im_workload.Synthetic.synthetic2

(* Build the statistics the optimizer reads for every column now, so
   set-up time includes them and the timed part does not. *)
let build_stats db =
  List.iter
    (fun (t : Im_sqlir.Schema.table) ->
      List.iter
        (fun c -> ignore (Database.stats db t.Im_sqlir.Schema.tbl_name c))
        (Im_sqlir.Schema.column_names t))
    (Database.schema db).Im_sqlir.Schema.tables

(* Template pools are fixed (rng 7, the pool [exp_scale] streams); a
   run's seed decides which templates are drawn and how their integer
   constants shift. Keeping the query shapes fixed keeps the work per
   run comparable across seeds, while every seed still feeds the
   program different statements. *)
let templates db ~n =
  Array.of_list
    (Workload.queries (Im_workload.Ragsgen.generate db ~rng:(Rng.create 7) ~n))

(* Shift every integer literal in [sql] by [delta], leaving identifiers
   (which embed digits, e.g. t0_c15) untouched: same template,
   different constants. *)
let mutate_constants ~delta sql =
  let n = String.length sql in
  let buf = Buffer.create (n + 8) in
  let is_ident c =
    c = '_'
    || (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9')
  in
  let i = ref 0 in
  let prev_ident = ref false in
  while !i < n do
    let c = sql.[!i] in
    if c >= '0' && c <= '9' && not !prev_ident then begin
      let j = ref !i in
      while !j < n && sql.[!j] >= '0' && sql.[!j] <= '9' do
        incr j
      done;
      let lit = String.sub sql !i (!j - !i) in
      (match int_of_string_opt lit with
       | Some v -> Buffer.add_string buf (string_of_int (v + delta))
       | None -> Buffer.add_string buf lit);
      prev_ident := true;
      i := !j
    end
    else begin
      Buffer.add_char buf c;
      prev_ident := is_ident c;
      incr i
    end
  done;
  Buffer.contents buf

let parse db ~id sql =
  match Im_sqlir.Parser.parse_query ~schema:(Database.schema db) ~id sql with
  | Ok q -> q
  | Error msg -> failwith (Printf.sprintf "generated statement rejected: %s: %s" msg sql)
