module Query = Im_sqlir.Query

let rec skip p s i = if i < String.length s && p s.[i] then skip p s (i + 1) else i

let is_space c = c = ' ' || c = '\t' || c = '\n' || c = '\r' || c = '\012' (* as String.trim *)

(* A frequency annotation is a comment of the shape
   [--<ws>freq<ws>:<ws><value>] with arbitrary (including zero)
   whitespace at every <ws>; [None] for any other line, found without
   allocating unless the line starts with [--]. Returning the raw value
   string keeps malformed values (e.g. "-- freq: fast") as hard parse
   errors rather than silently ignored comments. *)
let annotation_value line =
  let i = skip is_space line 0 in
  if i + 1 >= String.length line || line.[i] <> '-' || line.[i + 1] <> '-' then None
  else
    match Scanf.sscanf (String.trim line) "--%_[ \t]%4s%_[ \t]:%[^\n]" (fun k v -> (k, v)) with
    | k, v when String.lowercase_ascii k = "freq" -> Some (String.trim v)
    | _ | (exception (Scanf.Scan_failure _ | Failure _ | End_of_file)) -> None

(* The first byte after leading whitespace and [--] comments; the
   text's length when there is none (no statement, though a comment may
   have followed the last [';']). *)
let rec statement_start text i =
  let i = skip is_space text i and n = String.length text in
  if i + 1 < n && text.[i] = '-' && text.[i + 1] = '-' then
    statement_start text
      (Option.value (String.index_from_opt text i '\n') ~default:n)
  else i

let parse_freq raw =
  match float_of_string_opt raw with
  | Some v when Float.is_finite v && v > 0. -> Ok v
  | Some v when Float.is_finite v ->
    Error (Printf.sprintf "non-positive frequency %s" raw)
  | Some _ | None -> Error (Printf.sprintf "malformed frequency %S" raw)

exception Fold_error of string

(* The streaming core: lines are consumed one at a time from
   [next_line] and statements are emitted as soon as their terminating
   [';'] arrives, so a 100k-statement script never materializes as a
   list. A whole line that is a frequency annotation queues its value
   for the next emitted statement (for well-formed all-or-none files
   this equals the historical zip of annotations against statements);
   any other line is appended to the statement buffer, a run at a time.
   [';'] splits only outside single-quoted string literals (the lexer's
   [''] escape toggles the quote state twice, so naive toggling tracks
   it correctly) and outside [--] line comments. *)
let fold_lines ~schema ~id_prefix next_line ~init ~f =
  let prepared = Im_sqlir.Parser.Prepared.create schema in
  let buf = Buffer.create 256 in
  let pending : float Queue.t = Queue.create () in
  let annotations = ref 0 in
  let statements = ref 0 in
  let acc = ref init in
  let in_string = ref false in
  let emit () =
    let text = Buffer.contents buf in
    Buffer.clear buf;
    let start = statement_start text 0 in
    if start < String.length text then begin
      incr statements;
      let id = id_prefix ^ string_of_int !statements in
      match Im_sqlir.Parser.Prepared.parse prepared ~id text with
      | Error msg ->
        (* Positions count from the statement's first byte, not from a
           comment or blank line the buffer carried in front of it. *)
        let msg =
          match
            Im_sqlir.Parser.Prepared.parse prepared ~id
              (String.sub text start (String.length text - start))
          with
          | Error own -> own
          | Ok _ -> msg
        in
        raise (Fold_error (Printf.sprintf "statement %d: %s" !statements msg))
      | Ok q ->
        let freq =
          if Queue.is_empty pending then None else Some (Queue.pop pending)
        in
        acc := f !acc q freq
    end
  in
  let scan_line line =
    let n = String.length line in
    (* [from] is the first byte not yet copied; [outside] and [inside]
       look for the next byte that ends a run outside and inside a
       string literal. A trailing comment is kept for the lexer to
       skip, but a [';'] in it splits nothing. *)
    let rest from =
      Buffer.add_substring buf line from (n - from);
      Buffer.add_char buf '\n'
    in
    let rec outside from i =
      if i >= n then rest from
      else
        match String.unsafe_get line i with
        | '\'' ->
          in_string := true;
          inside from (i + 1)
        | ';' ->
          Buffer.add_substring buf line from (i + 1 - from);
          emit ();
          outside (i + 1) (i + 1)
        | '-' when i + 1 < n && line.[i + 1] = '-' -> rest from
        | _ -> outside from (i + 1)
    and inside from i =
      if i >= n then rest from
      else if String.unsafe_get line i = '\'' then begin
        in_string := false;
        outside from (i + 1)
      end
      else inside from (i + 1)
    in
    if !in_string then inside 0 0 else outside 0 0
  in
  try
    let rec loop () =
      match next_line () with
      | None -> ()
      | Some line ->
        (match if !in_string then None else annotation_value line with
         | Some raw ->
           (match parse_freq raw with
            | Ok v ->
              Queue.add v pending;
              incr annotations
            | Error msg -> raise (Fold_error msg))
         | None -> scan_line line);
        loop ()
    in
    loop ();
    emit ();
    if not (Queue.is_empty pending) then
      raise
        (Fold_error
           (Printf.sprintf
              "%d frequency annotations for %d statements (annotate all or \
               none)"
              !annotations !statements))
    else Ok !acc
  with Fold_error msg -> Error msg

let string_lines text =
  let lines = ref (String.split_on_char '\n' text) in
  fun () ->
    match !lines with
    | [] -> None
    | l :: rest ->
      lines := rest;
      Some l

(* Batch loading on top of the stream: collect entries (frequency 1
   when unannotated) and enforce the historical all-or-none annotation
   contract, which the per-statement stream itself does not need. *)
let workload_of_stream ~schema ~id_prefix next_line =
  let ( let* ) r f = Result.bind r f in
  let* rev_entries, annotated, total =
    fold_lines ~schema ~id_prefix next_line ~init:([], 0, 0)
      ~f:(fun (entries, annotated, total) q freq ->
        let e =
          { Workload.query = q; freq = Option.value freq ~default:1.0 }
        in
        (e :: entries, (annotated + if Option.is_some freq then 1 else 0),
         total + 1))
  in
  if annotated <> 0 && annotated <> total then
    Error
      (Printf.sprintf
         "%d frequency annotations for %d statements (annotate all or none)"
         annotated total)
  else Ok (Workload.of_entries ~name:"file" (List.rev rev_entries))

let parse ~schema ?(id_prefix = "W") text =
  workload_of_stream ~schema ~id_prefix (string_lines text)

let fold ~schema ?(id_prefix = "W") path ~init ~f =
  match
    In_channel.with_open_text path (fun ic ->
        fold_lines ~schema ~id_prefix
          (fun () -> In_channel.input_line ic)
          ~init ~f)
  with
  | r -> r
  | exception Sys_error msg -> Error msg

let load ~schema ?(id_prefix = "W") path =
  match
    In_channel.with_open_text path (fun ic ->
        workload_of_stream ~schema ~id_prefix (fun () ->
            In_channel.input_line ic))
  with
  | r -> r
  | exception Sys_error msg -> Error msg

let save workload path =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun { Workload.query; freq } ->
          if freq <> 1.0 then Printf.fprintf oc "-- freq: %g\n" freq;
          Printf.fprintf oc "%s;\n" (Query.to_sql query))
        workload.Workload.entries)
