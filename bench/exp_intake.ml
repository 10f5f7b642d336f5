(* EXP-INTAKE — per-statement intake cost, layer by layer.

   For each of the three databases, a pool of 60 ragsgen queries is
   replayed into [statements_n] statements with EXP-SCALE's skewed picks
   and shifted integer constants ([Exp_scale.next_statement]): a
   templated log, few shapes and many constants. Each phase runs over
   the whole log [reps] times and reports its best run in µs per
   statement:

   - tokenize: [Lexer.tokenize] alone;
   - shape: [Lexer.shape] alone, the walk every prepared hit pays;
   - parse_query: the full parser (lex, parse, validate);
   - prepared: [Parser.Prepared.parse], a fresh cache per run;
   - fold: [Workload_file.fold] over the log written to a file (read,
     split into statements, prepared parse);
   - split: fold minus prepared, the reading and statement splitting;
   - observe: [Scale.observe] of the parsed log into a fresh compactor
     (eps 0.05, feeding a miner) on a fresh deriving cost service, as
     perfbench log_merge runs it.

   Hard assert: on every statement of every database, [Prepared.parse]
   returns exactly what [parse_query] returns, under distinct ids
   (structural equality: same id, same canonical text, same error).

   JSON artifact to $IM_BENCH_OUT (default BENCH_intake.json). *)

module Database = Im_catalog.Database
module Query = Im_sqlir.Query
module Lexer = Im_sqlir.Lexer
module Parser = Im_sqlir.Parser

let statements_n = 50_000
let reps = 3

let best_us f =
  let best = ref infinity in
  for _ = 1 to reps do
    Gc.full_major ();
    let (), s = Im_util.Stopwatch.time f in
    best := Float.min !best s
  done;
  !best /. float_of_int statements_n *. 1e6

let log_of db =
  let texts = Array.map Query.to_sql (Exp_scale.stream_pool db) in
  let rng = Im_util.Rng.create 99 in
  Array.init statements_n (fun _ -> Exp_scale.next_statement rng texts)

type row = {
  name : string;
  shapes : int;
  avg_chars : float;
  tokenize_us : float;
  shape_us : float;
  parse_us : float;
  prepared_us : float;
  fold_us : float;
  observe_us : float;
}

let measure (name, db) =
  let schema = Database.schema db in
  let log = log_of db in
  (* Exactness first, over one cache for the whole log. *)
  let cache = Parser.Prepared.create schema in
  Array.iteri
    (fun i sql ->
      let id = Printf.sprintf "W%d" (i + 1) in
      if Parser.Prepared.parse cache ~id sql <> Parser.parse_query ~schema ~id sql
      then
        failwith
          (Printf.sprintf "EXP-INTAKE: %s: prepared parse differs on %s" name sql))
    log;
  let shapes = Parser.Prepared.size cache in
  let tokenize_us =
    best_us (fun () -> Array.iter (fun sql -> ignore (Lexer.tokenize sql)) log)
  in
  let shape_us =
    let key = Buffer.create 256 in
    best_us (fun () ->
        Array.iter
          (fun sql ->
            Buffer.clear key;
            ignore (Lexer.shape sql key))
          log)
  in
  let parse_us =
    best_us (fun () ->
        Array.iter (fun sql -> ignore (Parser.parse_query ~schema ~id:"W" sql)) log)
  in
  let prepared_us =
    best_us (fun () ->
        let cache = Parser.Prepared.create schema in
        Array.iter (fun sql -> ignore (Parser.Prepared.parse cache ~id:"W" sql)) log)
  in
  let path = Filename.temp_file "im_intake" ".sql" in
  Out_channel.with_open_text path (fun oc ->
      Array.iter
        (fun sql ->
          output_string oc sql;
          output_string oc ";\n")
        log);
  let fold_us =
    best_us (fun () ->
        match Im_workload.Workload_file.fold ~schema path ~init:0 ~f:(fun n _ _ -> n + 1) with
        | Ok n when n = statements_n -> ()
        | Ok n -> failwith (Printf.sprintf "EXP-INTAKE: %s: folded %d statements" name n)
        | Error m -> failwith ("EXP-INTAKE: fold failed: " ^ m))
  in
  Sys.remove path;
  let parsed =
    Array.map
      (fun sql ->
        match Parser.parse_query ~schema ~id:"W" sql with
        | Ok q -> q
        | Error m -> failwith ("EXP-INTAKE: " ^ m))
      log
  in
  let observe_us =
    best_us (fun () ->
        let svc = Im_costsvc.Service.create ~derive:true db in
        let compactor = Im_scale.Scale.create ~eps:0.05 ~mine:(Im_mine.Mine.create ()) svc in
        Array.iter (fun q -> Im_scale.Scale.observe compactor q) parsed)
  in
  let chars = Array.fold_left (fun acc sql -> acc + String.length sql) 0 log in
  {
    name;
    shapes;
    avg_chars = float_of_int chars /. float_of_int statements_n;
    tokenize_us;
    shape_us;
    parse_us;
    prepared_us;
    fold_us;
    observe_us;
  }

let run () =
  Exp_common.section
    (Printf.sprintf "EXP-INTAKE statement intake (%d statements per database)"
       statements_n);
  let rows = List.map measure (Exp_common.databases ()) in
  let f2 = Printf.sprintf "%.2f" in
  Exp_common.print_table
    ~title:"Intake, us per statement (best of 3; prepared = parse_query on every statement)"
    ~header:[ "db"; "shapes"; "chars"; "tokenize"; "shape"; "parse_query"; "prepared";
              "fold"; "split"; "observe"; "speed-up" ]
    ~rows:
      (List.map
         (fun r ->
           [ r.name; string_of_int r.shapes; Printf.sprintf "%.0f" r.avg_chars;
             f2 r.tokenize_us; f2 r.shape_us; f2 r.parse_us; f2 r.prepared_us;
             f2 r.fold_us; f2 (r.fold_us -. r.prepared_us); f2 r.observe_us;
             Printf.sprintf "%.1fx" (r.parse_us /. r.prepared_us) ])
         rows);
  let out =
    match Sys.getenv_opt "IM_BENCH_OUT" with
    | Some p when p <> "" -> p
    | _ -> "BENCH_intake.json"
  in
  Out_channel.with_open_text out (fun oc ->
      Printf.fprintf oc
        "{\n  \"experiment\": \"intake\",\n  \"statements\": %d,\n\
        \  \"cores\": %d,\n  \"equal\": true,\n  \"databases\": [\n%s\n  ]\n}\n"
        statements_n (Domain.recommended_domain_count ())
        (String.concat ",\n"
           (List.map
              (fun r ->
                Printf.sprintf
                  "    {\"db\": %S, \"shapes\": %d, \"avg_chars\": %.1f, \
                   \"tokenize_us\": %.3f, \"shape_us\": %.3f, \
                   \"parse_query_us\": %.3f, \"prepared_us\": %.3f, \
                   \"fold_us\": %.3f, \"split_us\": %.3f, \"observe_us\": %.3f}"
                  r.name r.shapes r.avg_chars r.tokenize_us r.shape_us r.parse_us
                  r.prepared_us r.fold_us (r.fold_us -. r.prepared_us) r.observe_us)
              rows)));
  Printf.printf "\nwrote %s\n" out
